package aggsrv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/wire"
)

// Fanin is the out-of-process horizontal tier: an HTTP router over N
// remote aggregator replica servers hosting the qlove.Slots hash slots of
// the key space under a qlove.SlotMap (a fixed hash, so any router
// instance partitions identically). Each slot has Replication owners
// holding full copies of its state; the default map at replication 1
// routes a key to replica SlotOf(key) % N. Replicas are reached only
// through FaninConfig.Client, so they may be remote servers or, behind an
// http.RoundTripper, handlers in this process.
//
// It serves the same endpoints as Server:
//
//   - /push routes the worker's blob frame-by-frame — bit-verbatim, via
//     the wire raw scanner — to EVERY owner of each frame's slot IN
//     PARALLEL: a replica owning every frame is forwarded the body as it
//     arrived, one owning some gets a part holding just its frames, and
//     every other reachable replica an empty push, so worker liveness and
//     push deadlines stay coherent partition-wide. The push succeeds when
//     every slot that carried frames was applied by at least Quorum of its
//     owners; otherwise it 502s naming the failed replicas and slots. An
//     owner that missed frames is marked dirty and resynced in the
//     background (below).
//   - /query proxies to the key's primary owner, response bytes untouched;
//     transport errors and 5xx are retried with exponential backoff +
//     jitter (queries are idempotent reads), and the read fails over /
//     hedges across the slot's remaining owners — clean live owners
//     first, then dirty ones (stale beats absent), then ejected ones.
//   - /snapshot fans out in parallel, then reads each key from its slot's
//     first preferred owner that answered — each key's JSON element
//     relayed verbatim, so estimates remain bit-identical to the owning
//     replica's. With every replica healthy the output is byte-identical
//     to a single-process server; with some unreachable it degrades to
//     the covered keys plus a "degraded" field naming the losses, and
//     502s only when NO replica answered.
//   - /healthz probes every replica and reports per-replica status
//     (ok/down, dirty, consecutive failures) plus per-slot coverage (how
//     many slots have all / some / none of their owners live); the
//     aggregate status is "degraded" while any replica is down or dirty.
//   - /metrics aggregates across replicas, tolerating outages per-replica.
//   - /slots reports the live slot table (owners per slot, quorum).
//   - /slots/move?slot=S&to=R (POST) migrates one slot live: the slot's
//     state is exported from a clean owner, replayed onto the new owner,
//     and the table flips — all under the router's write lock, so
//     concurrent pushes and reads drain first and resume against the new
//     table. Growing a tier N→N+1 is a handful of moves, not a reshuffle.
//
// Replica health: failThreshold consecutive failures (transport errors or
// 5xx) eject a replica — pushes skip it and reads prefer its peers — and
// a background prober reinstates it as soon as its /healthz answers
// again. A replica that missed frames for a slot it owns (ejected during
// a push, or its cursor rejected a delta) is marked DIRTY: reads prefer
// clean owners, and the prober resyncs each dirty replica's slots from a
// clean live owner (slot export → replay), clearing the flag when every
// owned slot has been repaired and no push missed the replica meanwhile.
// Close stops the prober.
type Fanin struct {
	cfg    FaninConfig
	reps   []*faninReplica
	client *http.Client
	mux    *http.ServeMux

	// mu guards the slot table. Read-held across /push fan-out and reads,
	// write-held across /slots/move — so a migration drains in-flight
	// traffic, flips, and lets it resume against the new table: no frame
	// can land at an old owner after its slot moved.
	mu    sync.RWMutex
	slots *qlove.SlotMap

	stopOnce sync.Once
	stop     chan struct{}
}

// FaninConfig configures the router's replicas, replication and client.
type FaninConfig struct {
	// Replicas are the replica base URLs ("http://10.0.0.1:7171"), one per
	// partition. Duplicates (after trailing-slash normalization) are
	// rejected — two identical owners would silently split one partition.
	Replicas []string
	// Replication is the copies-per-slot factor, in [1, len(Replicas)];
	// 0 means 1 (no replication). Ignored when Slots is set (the map
	// carries its own factor).
	Replication int
	// Quorum is how many of a slot's owners must apply a push's frames
	// for the slot to count as delivered, in [1, Replication]; 0 means
	// ⌈Replication/2⌉ — a strict majority for odd factors, half for even
	// ones, so an R=2 pair keeps accepting writes when one replica dies.
	Quorum int
	// Slots optionally seeds a non-canonical slot table (it is cloned;
	// owner indices must be < len(Replicas)). Nil builds the canonical
	// qlove.NewSlotMap(len(Replicas), Replication): slot s's primary is
	// replica s % len(Replicas).
	Slots *qlove.SlotMap
	// Client overrides the HTTP client. nil builds one with Timeout as
	// both the connect and the full per-request deadline — never
	// http.DefaultClient, whose missing timeout lets one wedged replica
	// hang every request through the router.
	Client *http.Client
	// Timeout is the per-request deadline for the built-in client
	// (<= 0 means 10s). Ignored when Client is set.
	Timeout time.Duration
}

// faninReplica is one replica's address and live health state.
type faninReplica struct {
	url   string
	fails atomic.Int32
	down  atomic.Bool
	// dirty is nonzero while the replica's state may have diverged: it
	// counts the pushes carrying frames for a slot it owns that it missed
	// (ejected, transport failure, or its cursor rejected the delta) since
	// it was last clean. Reads prefer clean owners; the prober resyncs
	// dirty replicas from clean ones and resets the count only if it still
	// equals what the resync started from, so a mark that lands DURING a
	// resync survives it.
	dirty atomic.Uint64
}

// The router's resilience policy: no deployment needs other values, so
// they are constants rather than configuration.
const (
	// readRetries is how many times an idempotent read (/query, /snapshot
	// parts) is retried after a transport error or 5xx. Pushes are never
	// retried: a replica may have applied frames before failing
	// mid-response.
	readRetries = 2
	// retryBase is the backoff before the first retry; each retry doubles
	// it — capped at maxRetryBackoff — and adds up to 50% jitter.
	retryBase = 25 * time.Millisecond
	// hedgeDelay is how long a read waits on one owner before also asking
	// the slot's next owner, first answer wins. Only meaningful at
	// Replication >= 2.
	hedgeDelay = 100 * time.Millisecond
	// failThreshold is how many consecutive failures eject a replica.
	failThreshold = 3
	// probeInterval is how often the background prober re-checks ejected
	// replicas for reinstatement and resyncs dirty ones.
	probeInterval = time.Second
)

// maxRetryBackoff caps the exponential retry backoff: past a couple of
// seconds a bigger wait only delays the failure verdict, and an unbounded
// shift eventually overflows time.Duration into a negative value (which
// used to panic the jitter draw).
const maxRetryBackoff = 2 * time.Second

// maxReplicaBody caps how much of a replica response the router will
// buffer (same ceiling as a push body); a misbehaving replica is a failed
// replica, not an OOM.
const maxReplicaBody = maxPushBody

// maxAckBody caps a push/drop acknowledgement body — a small JSON
// document; anything near the cap is garbage.
const maxAckBody = 1 << 20

// NewFaninConfig returns a router configured by cfg.
func NewFaninConfig(cfg FaninConfig) (*Fanin, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("aggsrv: fan-in needs at least one replica URL")
	}
	normalize := func(u string) (string, error) {
		parsed, err := url.Parse(u)
		if err != nil || parsed.Scheme == "" || parsed.Host == "" {
			return "", fmt.Errorf("aggsrv: bad replica URL %q", u)
		}
		return strings.TrimRight(u, "/"), nil
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}

	// The slot table: canonical for the configured replication factor, or
	// the caller's own (a resize-in-progress layout, a recovered table).
	if cfg.Slots != nil {
		if cfg.Replication != 0 && cfg.Replication != cfg.Slots.Replication() {
			return nil, fmt.Errorf("aggsrv: slot map replication %d, config says %d", cfg.Slots.Replication(), cfg.Replication)
		}
		cfg.Replication = cfg.Slots.Replication()
		if max := cfg.Slots.MaxReplica(); max >= len(cfg.Replicas) {
			return nil, fmt.Errorf("aggsrv: slot map references replica %d, only %d configured", max, len(cfg.Replicas))
		}
	}
	if cfg.Replication == 0 {
		cfg.Replication = 1
	}
	if cfg.Replication < 0 || cfg.Replication > len(cfg.Replicas) {
		return nil, fmt.Errorf("aggsrv: replication factor %d outside [1, %d replicas]", cfg.Replication, len(cfg.Replicas))
	}
	if cfg.Quorum == 0 {
		cfg.Quorum = (cfg.Replication + 1) / 2
	}
	if cfg.Quorum < 0 || cfg.Quorum > cfg.Replication {
		return nil, fmt.Errorf("aggsrv: quorum %d outside [1, replication %d]", cfg.Quorum, cfg.Replication)
	}
	slots := cfg.Slots
	if slots == nil {
		var err error
		if slots, err = qlove.NewSlotMap(len(cfg.Replicas), cfg.Replication); err != nil {
			return nil, err
		}
	} else {
		slots = slots.Clone()
	}

	reps := make([]*faninReplica, len(cfg.Replicas))
	seen := make(map[string]struct{}, len(cfg.Replicas))
	for i, u := range cfg.Replicas {
		clean, err := normalize(u)
		if err != nil {
			return nil, err
		}
		if _, dup := seen[clean]; dup {
			return nil, fmt.Errorf("aggsrv: duplicate replica URL %q — one partition cannot have two identical owners", clean)
		}
		seen[clean] = struct{}{}
		reps[i] = &faninReplica{url: clean}
	}

	client := cfg.Client
	if client == nil {
		// A dedicated transport so the dial deadline is bounded separately
		// from the whole-request Timeout: a black-holed replica fails at
		// connect, not after the full request budget.
		dial := cfg.Timeout
		if dial > 2*time.Second {
			dial = 2 * time.Second
		}
		client = &http.Client{
			Timeout: cfg.Timeout,
			Transport: &http.Transport{
				DialContext:         (&net.Dialer{Timeout: dial}).DialContext,
				MaxIdleConnsPerHost: 16,
			},
		}
	}

	f := &Fanin{cfg: cfg, reps: reps, client: client, mux: http.NewServeMux(), slots: slots, stop: make(chan struct{})}
	f.mux.HandleFunc("/push", f.handlePush)
	f.mux.HandleFunc("/query", f.handleQuery)
	f.mux.HandleFunc("/snapshot", f.handleSnapshot)
	f.mux.HandleFunc("/healthz", f.handleHealthz)
	f.mux.HandleFunc("/metrics", f.handleMetrics)
	f.mux.HandleFunc("/slots", f.handleSlots)
	f.mux.HandleFunc("/slots/move", f.handleSlotMove)
	go f.probeLoop()
	return f, nil
}

// Handler returns the root handler for mounting on any http.Server.
func (f *Fanin) Handler() http.Handler { return f.mux }

// Replicas returns the replica base URLs.
func (f *Fanin) Replicas() []string {
	out := make([]string, len(f.reps))
	for i, rep := range f.reps {
		out[i] = rep.url
	}
	return out
}

// SlotTable returns a copy of the current slot→owners table.
func (f *Fanin) SlotTable() *qlove.SlotMap {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.slots.Clone()
}

// Close stops the background health prober. The router keeps serving
// (ejected replicas just stop being reinstated automatically).
func (f *Fanin) Close() error {
	f.stopOnce.Do(func() { close(f.stop) })
	return nil
}

// record folds one request outcome into the replica's health: a success
// clears the failure streak and reinstates; failThreshold consecutive
// failures eject. Ejection marks the replica dirty — while it is
// unreachable it misses pushes for slots it owns, so its state must be
// assumed stale until resynced.
func (f *Fanin) record(rep *faninReplica, ok bool) {
	if ok {
		rep.fails.Store(0)
		rep.down.Store(false)
		return
	}
	if int(rep.fails.Add(1)) >= failThreshold {
		if !rep.down.Swap(true) {
			rep.dirty.Add(1)
		}
	}
}

// probeLoop runs probeTick every probeInterval until Close.
func (f *Fanin) probeLoop() {
	t := time.NewTicker(probeInterval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
		}
		f.probeTick()
	}
}

// probeTick reinstates ejected replicas and repairs dirty ones: each down
// replica's /healthz is probed (a 200 brings it back), then each live
// dirty replica's owned slots are resynced from clean live owners.
func (f *Fanin) probeTick() {
	for _, rep := range f.reps {
		if !rep.down.Load() {
			continue
		}
		status, _, err := f.fetch(rep.url, "/healthz")
		f.record(rep, err == nil && status == http.StatusOK)
	}
	for i, rep := range f.reps {
		if rep.down.Load() || rep.dirty.Load() == 0 {
			continue
		}
		f.resync(i, rep)
	}
}

// resync repairs one live dirty replica: every slot it owns is
// re-exported from a clean live co-owner and replayed (drop, then
// bootstrap frames), and the dirty flag clears once every owned slot
// either resynced or has no clean source to resync from (a slot whose
// every other owner is down or dirty has nothing better to copy — the
// replica's own state is as good as it gets).
//
// Replays race concurrent worker pushes benignly: a push landing between
// export and replay re-applies on top of the replayed bootstrap state via
// its normal delta cursor, or misses the replica and marks it again — a
// mark newer than the count read on entry keeps it dirty for the next
// probe tick. A slot moved away mid-resync leaves a stray
// replayed copy behind; reads filter by the live table, so a stray is
// wasted memory until the next migration drop, never a wrong answer.
func (f *Fanin) resync(i int, rep *faninReplica) {
	// Read before anything is exported: a later mark is a push this resync
	// may not have copied.
	marks := rep.dirty.Load()
	f.mu.RLock()
	table := f.slots.Clone()
	f.mu.RUnlock()
	// Group this replica's owned slots by their first clean live co-owner.
	// A slot with no such co-owner has no better copy anywhere (every
	// other owner is down or itself dirty) — the replica's own state is as
	// good as it gets, so the slot needs no repair.
	bySource := make(map[*faninReplica][]int)
	for _, s := range table.SlotsOwnedBy(i) {
		for _, o := range table.OwnersView(s) {
			if o == i {
				continue
			}
			if cand := f.reps[o]; !cand.down.Load() && cand.dirty.Load() == 0 {
				bySource[cand] = append(bySource[cand], s)
				break
			}
		}
	}
	for src, slots := range bySource {
		if _, err := f.replaySlots(src, rep, slots); err != nil {
			return // stay dirty; the next probe tick retries
		}
	}
	// Every repairable slot was repaired up to the marks seen on entry:
	// the replica serves reads again unless a push missed it meanwhile.
	rep.dirty.CompareAndSwap(marks, 0)
}

// replaySlots copies the given slots' state from replica src to replica
// dst: export from src, drop dst's (possibly stale) resident state for
// those slots, then replay the per-worker bootstrap blobs. It returns how
// many worker blobs it replayed.
func (f *Fanin) replaySlots(src, dst *faninReplica, slots []int) (int, error) {
	parts := make([]string, len(slots))
	for i, s := range slots {
		parts[i] = strconv.Itoa(s)
	}
	q := "?slots=" + strings.Join(parts, ",")
	status, body, err := f.fetch(src.url, "/slots/export"+q)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("export status %d", status)
	}
	var exp SlotExport
	if err := json.Unmarshal(body, &exp); err != nil {
		return 0, fmt.Errorf("bad export: %w", err)
	}
	// Drop before replay: a sub-stream bootstrap frame replaces only its
	// own sub-stream, so stale siblings at dst must go first.
	if status, _, err := f.post(dst.url, "/slots/drop"+q, nil); err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("drop status %d: %v", status, err)
	}
	for _, wb := range exp.Workers {
		status, rb, err := f.post(dst.url, "/push?worker="+url.QueryEscape(wb.Worker), wb.Blob)
		if err != nil {
			return 0, err
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("replay worker %q status %d: %s", wb.Worker, status, bytes.TrimSpace(rb))
		}
	}
	return len(exp.Workers), nil
}

// fetch GETs one replica path, returning status and a bounded body; a
// response past maxReplicaBody is an error (a replica failure), not an
// unbounded buffer.
func (f *Fanin) fetch(base, path string) (int, []byte, error) {
	resp, err := f.client.Get(base + path)
	if err != nil {
		return 0, nil, err
	}
	body, err := readBounded(resp.Body, maxReplicaBody)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// post POSTs one replica path, returning status and a bounded ack body.
func (f *Fanin) post(base, path string, body []byte) (int, []byte, error) {
	return readAck(f.client.Post(base+path, "application/octet-stream", bytes.NewReader(body)))
}

// postLent is post over a lent push buffer (nil posts an empty body). The
// request body holds its own reference to the buffer until the transport
// closes it, so bytes the transport reads after Do has returned are still
// the ones routed here.
func (f *Fanin) postLent(base, path string, l *lentBuf) (int, []byte, error) {
	if l == nil || l.buf.Len() == 0 {
		return f.post(base, path, nil)
	}
	req, err := http.NewRequest(http.MethodPost, base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	// Without a length net/http sends a body of its own type chunked.
	req.ContentLength = int64(l.buf.Len())
	req.Body = l.body()
	// A transport rewinds only within Do, while the handler still holds
	// its own reference.
	req.GetBody = func() (io.ReadCloser, error) { return l.body(), nil }
	return readAck(f.client.Do(req))
}

// readAck returns a replica response's status and bounded ack body.
func readAck(resp *http.Response, err error) (int, []byte, error) {
	if err != nil {
		return 0, nil, err
	}
	rb, err := readBounded(resp.Body, maxAckBody)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, rb, nil
}

// lentBuf is a pushBodies buffer shared by the /push handler that read it
// and the request bodies forwarding it to replicas. Each holder has one
// reference — the handler until it returns, each body until its first
// Close — and the last release puts the buffer back in the pool. net/http
// may read and close a request body after RoundTrip has returned, which is
// why the handler's return alone cannot recycle it.
type lentBuf struct {
	buf  *bytes.Buffer
	refs atomic.Int32
}

// lend wraps buf with the caller's reference.
func lend(buf *bytes.Buffer) *lentBuf {
	l := &lentBuf{buf: buf}
	l.refs.Store(1)
	return l
}

// release drops one reference.
func (l *lentBuf) release() {
	if l.refs.Add(-1) == 0 {
		pushBodies.Put(l.buf)
	}
}

// body returns a request body over the buffer's bytes that holds a
// reference of its own; the caller must hold one while it asks.
func (l *lentBuf) body() io.ReadCloser {
	l.refs.Add(1)
	b := &lentBody{from: l}
	b.Reset(l.buf.Bytes())
	return b
}

// lentBody reads a lentBuf; its first Close releases its reference (net/http
// may close a body more than once).
type lentBody struct {
	bytes.Reader
	from   *lentBuf
	closed atomic.Bool
}

func (b *lentBody) Close() error {
	if b.closed.CompareAndSwap(false, true) {
		b.from.release()
	}
	return nil
}

// readBounded reads r up to limit bytes; anything longer is an error.
func readBounded(r io.Reader, limit int64) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > limit {
		return nil, fmt.Errorf("response exceeds the %d-byte cap", limit)
	}
	return body, nil
}

// retryBackoff is the pre-jitter backoff before retry `attempt`: base
// doubled per attempt, clamped to maxRetryBackoff. The clamp also guards
// the shift itself — a large attempt count would overflow time.Duration
// negative, and a negative bound panics the jitter draw.
func retryBackoff(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	for ; attempt > 0; attempt-- {
		base <<= 1
		if base >= maxRetryBackoff || base <= 0 {
			return maxRetryBackoff
		}
	}
	if base > maxRetryBackoff {
		return maxRetryBackoff
	}
	return base
}

// fetchRetry is fetch with the idempotent-read retry policy: transport
// errors and 5xx retry up to readRetries times with doubling capped
// backoff + jitter; every attempt's outcome feeds the replica's health.
// 4xx pass straight through — they are the replica's answer, not its
// failure.
func (f *Fanin) fetchRetry(rep *faninReplica, path string) (int, []byte, error) {
	var (
		status int
		body   []byte
		err    error
	)
	for attempt := 0; ; attempt++ {
		status, body, err = f.fetch(rep.url, path)
		ok := err == nil && status < 500
		f.record(rep, ok)
		if ok || attempt >= readRetries {
			return status, body, err
		}
		backoff := retryBackoff(retryBase, attempt)
		if half := int64(backoff / 2); half > 0 {
			backoff += time.Duration(rand.Int63n(half + 1))
		}
		select {
		case <-f.stop:
			return status, body, err
		case <-time.After(backoff):
		}
	}
}

// --- push ---

// FaninPushOutcome is one replica's result within a fan-out push.
type FaninPushOutcome struct {
	URL    string `json:"url"`
	OK     bool   `json:"ok"`
	Error  string `json:"error,omitempty"`
	Frames int    `json:"frames,omitempty"`
	Keys   int    `json:"keys,omitempty"`
}

// FaninPushError is the 502 body when any slot that carried frames missed
// its quorum: the replicas that failed by name, the under-quorum slots,
// plus every replica's outcome. Frames delivered to the replicas that DID
// apply remain applied; owners that missed frames are dirty and resync in
// the background.
type FaninPushError struct {
	Error       string             `json:"error"`
	Failed      []string           `json:"failed"`
	FailedSlots []int              `json:"failed_slots,omitempty"`
	Outcomes    []FaninPushOutcome `json:"outcomes"`
}

func (f *Fanin) handlePush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "push is POST-only")
		return
	}
	worker := r.URL.Query().Get("worker")
	if worker == "" {
		writeErr(w, http.StatusBadRequest, "push needs a ?worker=ID (the per-worker fold state is keyed by it)")
		return
	}
	body, err := readPushBody(w, r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "read push body: %v", err)
		return
	}
	whole := lend(body)
	defer whole.release()
	// The slot table is read-held across routing AND delivery: a slot
	// migration (write lock) drains in-flight pushes first, so no frame
	// routed against the old table lands after the flip.
	f.mu.RLock()
	defer f.mu.RUnlock()
	// Route the whole blob, in one scan, before forwarding anything: a
	// malformed blob is rejected with zero frames applied anywhere. Each
	// frame goes to every owner of its slot. A replica that has owned every
	// frame so far needs no part: it is forwarded the body as it arrived. At
	// its first miss it owned exactly the bytes scanned before that frame,
	// so they start its part, and every frame it owns after joins it.
	blob := body.Bytes()
	missed := make([]bool, len(f.reps))
	parts := make([]*lentBuf, len(f.reps))
	defer func() {
		for _, p := range parts {
			if p != nil && p != whole {
				p.release()
			}
		}
	}()
	var carried [qlove.Slots]bool // slots that carried frames
	frames := 0
	sc := wire.NewRawScanner(bytes.NewReader(blob))
	for {
		start := sc.Consumed()
		_, key, frame, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			writeErr(w, http.StatusBadRequest, "scan push blob: %v", err)
			return
		}
		if !wire.ValidName(key) {
			writeErr(w, http.StatusBadRequest, "scan push blob: key %q: %v: misplaced NUL separator", key, wire.ErrCorrupt)
			return
		}
		slot := qlove.SlotOf(key)
		carried[slot] = true
		frames++
		for i := range f.reps {
			owns := f.slots.IsOwner(slot, i)
			switch {
			case !missed[i] && !owns:
				missed[i] = true
				if start > 0 {
					parts[i] = newPart(blob[:start], len(blob))
				}
			case missed[i] && owns:
				if parts[i] == nil {
					parts[i] = newPart(nil, len(blob))
				}
				parts[i].buf.Write(frame)
			}
		}
	}
	for i := range parts {
		if !missed[i] {
			parts[i] = whole
		}
	}
	// Fan out to every replica IN PARALLEL — one slow or dead replica never
	// blocks delivery to the others, and every replica's outcome is
	// reported. Ejected replicas are skipped (their outcome says so) rather
	// than spending the full timeout on a known-dead peer every push.
	outcomes := make([]FaninPushOutcome, len(f.reps))
	var wg sync.WaitGroup
	for i, rep := range f.reps {
		out := &outcomes[i]
		out.URL = rep.url
		if rep.down.Load() {
			out.Error = "replica ejected (consecutive failures); awaiting probe reinstatement"
			continue
		}
		wg.Add(1)
		go func(i int, rep *faninReplica) {
			defer wg.Done()
			status, rb, err := f.postLent(rep.url, "/push?worker="+url.QueryEscape(worker), parts[i])
			if err != nil {
				f.record(rep, false)
				out.Error = err.Error()
				return
			}
			// Health counts transport failures and 5xx; a 4xx is the
			// replica answering (e.g. a rejected cursor), not it failing.
			f.record(rep, status < 500)
			if status != http.StatusOK {
				out.Error = fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(rb))
				return
			}
			var pr PushResult
			if err := json.Unmarshal(rb, &pr); err != nil {
				out.Error = fmt.Sprintf("bad push ack: %v", err)
				return
			}
			out.OK = true
			out.Frames = pr.Frames
			out.Keys = pr.Keys
		}(i, rep)
	}
	wg.Wait()
	// Quorum accounting, per slot that carried frames: the push succeeds
	// when every such slot was applied by at least Quorum of its owners.
	// An owner that missed its slot's frames — ejected, transport failure,
	// rejected delta — now holds stale state: mark it dirty so reads avoid
	// it and the prober resyncs it.
	var failedSlots []int // ascending
	for slot, c := range carried {
		if !c {
			continue
		}
		acked := 0
		for _, o := range f.slots.OwnersView(slot) {
			if outcomes[o].OK {
				acked++
			} else {
				f.reps[o].dirty.Add(1)
			}
		}
		if acked < f.cfg.Quorum {
			failedSlots = append(failedSlots, slot)
		}
	}
	var failed []string
	keys := 0
	for i, out := range outcomes {
		if !out.OK {
			failed = append(failed, f.reps[i].url)
			continue
		}
		if f.cfg.Replication == 1 {
			keys += out.Keys // disjoint key sets: the sum is the total
		} else if out.Keys > keys {
			keys = out.Keys // overlapping sets: the max is a floor on the total
		}
	}
	if len(failedSlots) > 0 {
		writeJSON(w, http.StatusBadGateway, FaninPushError{
			Error: fmt.Sprintf("push missed quorum %d on %d slots (%d of %d replicas failed: %s)",
				f.cfg.Quorum, len(failedSlots), len(failed), len(f.reps), strings.Join(failed, ", ")),
			Failed:      failed,
			FailedSlots: failedSlots,
			Outcomes:    outcomes,
		})
		return
	}
	writeJSON(w, http.StatusOK, PushResult{Worker: worker, Frames: frames, Keys: keys})
}

// newPart starts a replica's part of a push in a pushBodies buffer holding
// prefix. It reserves the whole blob's size once: growing frame by frame
// re-copies the part every time it doubles.
func newPart(prefix []byte, size int) *lentBuf {
	buf := pushBodies.Get().(*bytes.Buffer)
	buf.Reset()
	buf.Grow(size)
	buf.Write(prefix)
	return lend(buf)
}

// --- query ---

type fetchResult struct {
	status int
	body   []byte
	err    error
}

// readOrder returns the slot's owners in read-preference order: live
// clean owners first (primary first within each class), then live dirty
// ones (stale state beats no answer), then ejected ones (they may have
// revived since the last probe).
func (f *Fanin) readOrder(owners []int) []*faninReplica {
	out := make([]*faninReplica, 0, len(owners))
	for pass := 0; pass < 3; pass++ {
		for _, o := range owners {
			rep := f.reps[o]
			var class int
			switch {
			case rep.down.Load():
				class = 2
			case rep.dirty.Load() != 0:
				class = 1
			}
			if class == pass {
				out = append(out, rep)
			}
		}
	}
	return out
}

// queryOwners answers one read path from the candidate owners, hedging:
// the leader gets the full retry policy; each hedgeDelay without a good
// answer — or a leader failing outright — launches the next candidate,
// first good answer wins.
func (f *Fanin) queryOwners(cands []*faninReplica, path string) fetchResult {
	if len(cands) == 1 {
		s, b, e := f.fetchRetry(cands[0], path)
		return fetchResult{s, b, e}
	}
	// The buffered channel lets late losers complete without leaking
	// goroutines after we've already answered.
	ch := make(chan fetchResult, len(cands))
	launched := 0
	launch := func() {
		if launched >= len(cands) {
			return
		}
		rep := cands[launched]
		retry := launched == 0 // the leader retries; hedges get one shot
		launched++
		go func() {
			if retry {
				s, b, e := f.fetchRetry(rep, path)
				ch <- fetchResult{s, b, e}
				return
			}
			s, b, e := f.fetch(rep.url, path)
			f.record(rep, e == nil && s < 500)
			ch <- fetchResult{s, b, e}
		}()
	}
	launch()
	pending := 1
	var last fetchResult
	timer := time.NewTimer(hedgeDelay)
	defer timer.Stop()
	for pending > 0 {
		select {
		case res := <-ch:
			pending--
			last = res
			if res.err == nil && res.status < 500 {
				return res
			}
			// The candidate failed outright: launch the next immediately
			// rather than waiting out the delay.
			if launched < len(cands) {
				launch()
				pending++
			}
		case <-timer.C:
			if launched < len(cands) {
				launch()
				pending++
			}
			timer.Reset(hedgeDelay)
		}
	}
	return last
}

func (f *Fanin) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "query is GET-only")
		return
	}
	if !r.URL.Query().Has("key") {
		writeErr(w, http.StatusBadRequest, "query needs ?key=")
		return
	}
	// Read-held across the fetch: a slot move drains in-flight reads
	// before flipping and dropping the old owner's copy, so a read routed
	// to the old owner always still finds the data there.
	f.mu.RLock()
	defer f.mu.RUnlock()
	cands := f.readOrder(f.slots.OwnersView(qlove.SlotOf(r.URL.Query().Get("key"))))
	res := f.queryOwners(cands, "/query?"+r.URL.RawQuery)
	if res.err != nil {
		writeErr(w, http.StatusBadGateway, "replica %s: %v", cands[len(cands)-1].url, res.err)
		return
	}
	// Relay the owner's answer verbatim — bytes, status and all — so the
	// client sees bit-identical estimates to asking the replica directly.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// --- snapshot ---

// snapshotKeys is the minimal decode of a replica /snapshot: each key's
// element is kept as raw JSON so the fan-in re-emits it bit-identically.
type snapshotKeys struct {
	Keys []json.RawMessage `json:"keys"`
}

func (f *Fanin) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "snapshot is GET-only")
		return
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	type repSnap struct {
		keys map[string]json.RawMessage
		err  error
	}
	parts := make([]repSnap, len(f.reps))
	var wg sync.WaitGroup
	for i, rep := range f.reps {
		wg.Add(1)
		go func(i int, rep *faninReplica) {
			defer wg.Done()
			status, body, err := f.fetchRetry(rep, "/snapshot")
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d", status)
			}
			if err != nil {
				parts[i].err = fmt.Errorf("replica %s: %w", rep.url, err)
				return
			}
			var sk snapshotKeys
			if err := json.Unmarshal(body, &sk); err != nil {
				parts[i].err = fmt.Errorf("replica %s: bad snapshot: %w", rep.url, err)
				return
			}
			parts[i].keys = make(map[string]json.RawMessage, len(sk.Keys))
			for _, raw := range sk.Keys {
				var k struct {
					Key string `json:"key"`
				}
				if err := json.Unmarshal(raw, &k); err != nil {
					parts[i].err = fmt.Errorf("replica %s: bad key report: %w", rep.url, err)
					return
				}
				parts[i].keys[k.Key] = raw
			}
		}(i, rep)
	}
	wg.Wait()
	var degraded []string
	answered := make([]bool, len(f.reps))
	for i, p := range parts {
		if p.err != nil {
			degraded = append(degraded, f.reps[i].url)
			continue
		}
		answered[i] = true
	}
	if len(degraded) == len(f.reps) {
		writeErr(w, http.StatusBadGateway, "no replica answered /snapshot (%s)", strings.Join(degraded, ", "))
		return
	}
	// Each slot elects one snapshot source: its first read-preferred owner
	// that answered. Every key then relays from its slot's source — so
	// replicated copies dedupe, stray copies on non-owners are ignored,
	// and with every replica healthy the body below is byte-identical to a
	// single-process server's. A degraded fan-out appends the unreachable
	// replicas so the partial view is explicit, never silent.
	source := make([]int, qlove.Slots)
	for s := 0; s < qlove.Slots; s++ {
		source[s] = -1
		for _, rep := range f.readOrder(f.slots.OwnersView(s)) {
			idx := f.replicaIndex(rep)
			if answered[idx] {
				source[s] = idx
				break
			}
		}
	}
	type keyed struct {
		key string
		raw json.RawMessage
	}
	var all []keyed
	for i, p := range parts {
		if !answered[i] {
			continue
		}
		for k, raw := range p.keys {
			if source[qlove.SlotOf(k)] == i {
				all = append(all, keyed{key: k, raw: raw})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].key < all[j].key })
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, `{"keys":[`)
	for i, k := range all {
		if i > 0 {
			io.WriteString(w, ",")
		}
		w.Write(k.raw)
	}
	if len(degraded) > 0 {
		io.WriteString(w, `],"degraded":`)
		b, _ := json.Marshal(degraded)
		w.Write(b)
		io.WriteString(w, "}\n")
		return
	}
	io.WriteString(w, "]}\n")
}

// replicaIndex maps a replica back to its index.
func (f *Fanin) replicaIndex(rep *faninReplica) int {
	for i, r := range f.reps {
		if r == rep {
			return i
		}
	}
	return -1
}

// --- slots admin ---

// SlotsReport is the /slots document: the live table plus the quorum the
// router enforces.
type SlotsReport struct {
	Quorum int            `json:"quorum"`
	Map    *qlove.SlotMap `json:"map"`
}

func (f *Fanin) handleSlots(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "slots is GET-only")
		return
	}
	writeJSON(w, http.StatusOK, SlotsReport{Quorum: f.cfg.Quorum, Map: f.SlotTable()})
}

// SlotMoveResult acknowledges one live slot migration.
type SlotMoveResult struct {
	Slot    int    `json:"slot"`
	From    int    `json:"from"`
	To      int    `json:"to"`
	Source  string `json:"source"`  // the replica the state was exported from
	Workers int    `json:"workers"` // worker blobs replayed
	Dropped bool   `json:"dropped"` // old owner's copy dropped (best-effort)
}

// handleSlotMove migrates one slot live: POST /slots/move?slot=S&to=R
// (&from=F optional, default the slot's primary). The write lock is held
// across export → replay → table flip → old-owner drop, so concurrent
// pushes and reads drain first and resume against the new table — answers
// stay bit-identical through the migration.
func (f *Fanin) handleSlotMove(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "slots/move is POST-only")
		return
	}
	q := r.URL.Query()
	slot, err := strconv.Atoi(q.Get("slot"))
	if err != nil || slot < 0 || slot >= qlove.Slots {
		writeErr(w, http.StatusBadRequest, "need ?slot= in [0, %d)", qlove.Slots)
		return
	}
	to, err := strconv.Atoi(q.Get("to"))
	if err != nil || to < 0 || to >= len(f.reps) {
		writeErr(w, http.StatusBadRequest, "need ?to= in [0, %d replicas)", len(f.reps))
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	owners := f.slots.Owners(slot)
	from := owners[0]
	if fs := q.Get("from"); fs != "" {
		if from, err = strconv.Atoi(fs); err != nil {
			writeErr(w, http.StatusBadRequest, "bad ?from=%q", fs)
			return
		}
	}
	if !f.slots.IsOwner(slot, from) {
		writeErr(w, http.StatusBadRequest, "replica %d does not own slot %d (owners %v)", from, slot, owners)
		return
	}
	if f.slots.IsOwner(slot, to) {
		writeErr(w, http.StatusBadRequest, "replica %d already owns slot %d", to, slot)
		return
	}
	if f.reps[to].down.Load() {
		writeErr(w, http.StatusServiceUnavailable, "destination replica %s is down", f.reps[to].url)
		return
	}
	// The state source must be a CLEAN live owner — `from` itself when
	// eligible, else any co-owner. A dirty source would replicate its
	// staleness into the new owner.
	var src *faninReplica
	for _, o := range append([]int{from}, owners...) {
		if cand := f.reps[o]; !cand.down.Load() && cand.dirty.Load() == 0 {
			src = cand
			break
		}
	}
	if src == nil {
		writeErr(w, http.StatusServiceUnavailable, "no clean live owner of slot %d to export from", slot)
		return
	}
	workers, err := f.replaySlots(src, f.reps[to], []int{slot})
	if err != nil {
		writeErr(w, http.StatusBadGateway, "replay slot %d onto %s: %v", slot, f.reps[to].url, err)
		return
	}
	if err := f.slots.Move(slot, from, to); err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// Best-effort drop at the old owner: a failure leaves a stray copy
	// that reads (filtered by the table) never consult.
	dropped := false
	if status, _, err := f.post(f.reps[from].url, "/slots/drop?slot="+strconv.Itoa(slot), nil); err == nil && status == http.StatusOK {
		dropped = true
	}
	writeJSON(w, http.StatusOK, SlotMoveResult{
		Slot: slot, From: from, To: to,
		Source: src.url, Workers: workers, Dropped: dropped,
	})
}

// --- healthz ---

// FaninReplicaHealth is one replica's health as seen by the router.
type FaninReplicaHealth struct {
	URL                 string `json:"url"`
	Status              string `json:"status"` // "ok" | "down"
	Dirty               bool   `json:"dirty,omitempty"`
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
}

// FaninSlotCoverage summarizes per-slot owner liveness: of the Slots hash
// slots, how many have every owner live (FullyCovered), only some
// (UnderReplicated), or none (Uncovered). CleanCovered counts slots with
// at least one live owner that is also in sync (not dirty) — the slots
// that can serve a clean read and source a resync.
type FaninSlotCoverage struct {
	Slots           int `json:"slots"`
	Replication     int `json:"replication"`
	Quorum          int `json:"quorum"`
	FullyCovered    int `json:"fully_covered"`
	UnderReplicated int `json:"under_replicated"`
	Uncovered       int `json:"uncovered"`
	CleanCovered    int `json:"clean_covered"`
}

// FaninHealth is the fan-in /healthz document: the aggregate Health shape
// (so clients of a single server parse it unchanged) plus per-replica
// detail and per-slot coverage. Status is "degraded" while any replica is
// down or dirty.
type FaninHealth struct {
	Status   string               `json:"status"`
	Workers  int                  `json:"workers"`
	Keys     int                  `json:"keys"`
	Replicas []FaninReplicaHealth `json:"replicas"`
	Slots    *FaninSlotCoverage   `json:"slots,omitempty"`
}

func (f *Fanin) handleHealthz(w http.ResponseWriter, r *http.Request) {
	out := FaninHealth{Status: "ok", Replicas: make([]FaninReplicaHealth, len(f.reps))}
	counts := make([]Health, len(f.reps))
	var wg sync.WaitGroup
	for i, rep := range f.reps {
		wg.Add(1)
		go func(i int, rep *faninReplica) {
			defer wg.Done()
			rh := &out.Replicas[i]
			rh.URL = rep.url
			status, body, err := f.fetch(rep.url, "/healthz")
			ok := err == nil && status == http.StatusOK
			f.record(rep, ok)
			rh.ConsecutiveFailures = int(rep.fails.Load())
			rh.Dirty = rep.dirty.Load() != 0
			if !ok {
				rh.Status = "down"
				return
			}
			rh.Status = "ok"
			json.Unmarshal(body, &counts[i]) // best-effort: counts stay zero on a bad body
		}(i, rep)
	}
	wg.Wait()
	for i, rh := range out.Replicas {
		if rh.Status != "ok" || rh.Dirty {
			out.Status = "degraded"
		}
		if rh.Status != "ok" {
			continue
		}
		if counts[i].Workers > out.Workers {
			out.Workers = counts[i].Workers // every replica hosts every worker
		}
		if f.cfg.Replication == 1 {
			out.Keys += counts[i].Keys // disjoint key sets: the sum is the total
		} else if counts[i].Keys > out.Keys {
			out.Keys = counts[i].Keys // overlapping sets: the max is a floor
		}
	}
	// Per-slot coverage from the router's own health view (no extra
	// round-trips: the probes above just refreshed it).
	f.mu.RLock()
	cov := &FaninSlotCoverage{Slots: qlove.Slots, Replication: f.cfg.Replication, Quorum: f.cfg.Quorum}
	for s := 0; s < qlove.Slots; s++ {
		owners := f.slots.OwnersView(s)
		live, clean := 0, 0
		for _, o := range owners {
			if !f.reps[o].down.Load() {
				live++
				if f.reps[o].dirty.Load() == 0 {
					clean++
				}
			}
		}
		switch {
		case live == len(owners):
			cov.FullyCovered++
		case live > 0:
			cov.UnderReplicated++
		default:
			cov.Uncovered++
		}
		if clean > 0 {
			cov.CleanCovered++
		}
	}
	f.mu.RUnlock()
	out.Slots = cov
	writeJSON(w, http.StatusOK, out)
}

// --- metrics ---

// FaninMetrics is the fan-in's /metrics document: each replica's own
// metrics report, keyed by its URL.
type FaninMetrics struct {
	Replicas []FaninReplicaMetrics `json:"replicas"`
}

// FaninReplicaMetrics is one replica's metrics as relayed by the fan-in;
// Error is set instead of Metrics for an unreachable replica.
type FaninReplicaMetrics struct {
	URL     string          `json:"url"`
	Metrics json.RawMessage `json:"metrics,omitempty"`
	Error   string          `json:"error,omitempty"`
}

func (f *Fanin) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "metrics is GET-only")
		return
	}
	out := FaninMetrics{Replicas: make([]FaninReplicaMetrics, len(f.reps))}
	var wg sync.WaitGroup
	for i, rep := range f.reps {
		wg.Add(1)
		go func(i int, rep *faninReplica) {
			defer wg.Done()
			out.Replicas[i].URL = rep.url
			status, body, err := f.fetch(rep.url, "/metrics")
			f.record(rep, err == nil && status < 500)
			if err != nil {
				out.Replicas[i].Error = err.Error()
				return
			}
			out.Replicas[i].Metrics = json.RawMessage(body)
		}(i, rep)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, out)
}
