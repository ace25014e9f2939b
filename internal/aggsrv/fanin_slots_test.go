package aggsrv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestRetryBackoff pins the backoff arithmetic: doubling per attempt,
// clamped at maxRetryBackoff — including the attempt counts whose naive
// single-shift form overflows time.Duration negative (which used to panic
// the jitter draw) — and a zero/negative base disabling the wait.
func TestRetryBackoff(t *testing.T) {
	for _, tc := range []struct {
		base    time.Duration
		attempt int
		want    time.Duration
	}{
		{0, 0, 0},
		{0, 5, 0},
		{-time.Second, 3, 0},
		{25 * time.Millisecond, 0, 25 * time.Millisecond},
		{25 * time.Millisecond, 1, 50 * time.Millisecond},
		{25 * time.Millisecond, 3, 200 * time.Millisecond},
		{25 * time.Millisecond, 7, maxRetryBackoff},
		{25 * time.Millisecond, 62, maxRetryBackoff},      // 25ms<<62 is negative
		{25 * time.Millisecond, 1 << 20, maxRetryBackoff}, // absurd attempt count
		{time.Second, 1, maxRetryBackoff},
		{3 * time.Second, 0, maxRetryBackoff},
		{maxRetryBackoff, 0, maxRetryBackoff},
		{maxRetryBackoff, 5, maxRetryBackoff},
	} {
		if got := retryBackoff(tc.base, tc.attempt); got != tc.want {
			t.Errorf("retryBackoff(%v, %d) = %v, want %v", tc.base, tc.attempt, got, tc.want)
		}
	}
	// The jitter draw as fetchRetry performs it must stay in bounds and
	// never panic, whatever the attempt count.
	for attempt := 0; attempt < 200; attempt++ {
		backoff := retryBackoff(25*time.Millisecond, attempt)
		if backoff < 0 || backoff > maxRetryBackoff {
			t.Fatalf("attempt %d: backoff %v out of range", attempt, backoff)
		}
		if half := int64(backoff / 2); half > 0 {
			if j := rand.Int63n(half + 1); j < 0 || j > half {
				t.Fatalf("attempt %d: jitter %d outside [0, %d]", attempt, j, half)
			}
		}
	}
}

// faninEngine is one worker whose every key is salted two ways, driven
// through delta rounds; each round's blob goes through fx.push (fan-in AND
// reference, identical acks). Round r feeds plain engine r%2, whose frames
// ship renamed to sub-stream r%2 of their key, so every key pushed twice
// reaches the tier as a two-stream salt group.
type faninEngine struct {
	engs   [2]*qlove.Engine
	curs   [2]qlove.ExportCursor
	rounds int
	gen    workload.Generator
	keys   []string
}

func newFaninEngine(t *testing.T, seed int64, nkeys int) *faninEngine {
	t.Helper()
	cfg := qlove.Config{Spec: qlove.Window{Size: 256, Period: 64}, Phis: []float64{0.5, 0.99}, FewK: true}
	h := &faninEngine{gen: workload.NewNetMon(seed)}
	for j := range h.engs {
		eng, err := qlove.NewEngine(qlove.EngineConfig{Config: cfg, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for range eng.Results() {
			}
		}()
		t.Cleanup(eng.Close)
		h.engs[j] = eng
	}
	for i := 0; i < nkeys; i++ {
		h.keys = append(h.keys, fmt.Sprintf("key-%d", i))
	}
	return h
}

func (h *faninEngine) round(t *testing.T) []byte {
	t.Helper()
	j := h.rounds % 2
	h.rounds++
	for ki, k := range h.keys {
		if err := h.engs[j].Push(k, workload.Generate(h.gen, 120+20*ki)); err != nil {
			t.Fatal(err)
		}
	}
	var blob bytes.Buffer
	if _, err := h.engs[j].ExportDelta(&blob, &h.curs[j]); err != nil {
		t.Fatal(err)
	}
	// Rename every frame from k to wire.SaltedName(k, j), the internal
	// sub-stream name an escalated key's engine ships.
	var out []byte
	dec := wire.NewDecoder(&blob)
	for {
		f, err := dec.DecodeFrame()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		name := wire.SaltedName(f.Key, byte(j))
		switch f.Kind {
		case wire.KindFull:
			out = wire.AppendFrame(out, name, f.Snap)
		case wire.KindDelta:
			out = wire.AppendDeltaFrame(out, name, f.Delta)
		case wire.KindTombstone:
			out = wire.AppendTombstoneFrame(out, name)
		}
	}
}

// requireQuerySweep asserts every key (and a miss) answers byte-identically
// through the fan-in and the reference server.
func requireQuerySweep(t *testing.T, step string, fx *faninFixture, keys []string) {
	t.Helper()
	for _, k := range append(append([]string(nil), keys...), "no/such/key") {
		rf, bf := get(t, fx.fanin, "/query?key="+k)
		rr, br := get(t, fx.ref, "/query?key="+k)
		if rf.StatusCode != rr.StatusCode || !bytes.Equal(bf, br) {
			t.Fatalf("%s: query %q: fan-in %s %q, reference %s %q", step, k, rf.Status, bf, rr.Status, br)
		}
	}
}

// TestFaninQuorumPush runs an R=2 fan-in over two replicas: pushes land on
// both owners, killing one replica mid-chain keeps /push succeeding on
// quorum, and after the replica returns empty the dirty-resync replays its
// slots from its peer — views bit-identical to an uninterrupted
// single-server reference throughout, including the revived replica's own
// snapshot.
func TestFaninQuorumPush(t *testing.T) {
	fx := newFaninFixture(t, 2, FaninConfig{Replication: 2, Timeout: 2 * time.Second}, nil)
	h := newFaninEngine(t, 42, 6)

	// Round 1, both replicas healthy: every key owned (and held) by BOTH.
	fx.push(t, "w", h.round(t))
	for _, k := range h.keys {
		for i, rs := range fx.replicas {
			if resp, _ := get(t, rs, "/query?key="+k); resp.StatusCode != http.StatusOK {
				t.Fatalf("key %q missing on replica %d: %s", k, i, resp.Status)
			}
		}
	}
	_, s0 := get(t, fx.replicas[0], "/snapshot")
	_, s1 := get(t, fx.replicas[1], "/snapshot")
	_, sr := get(t, fx.ref, "/snapshot")
	if !bytes.Equal(s0, s1) || !bytes.Equal(s0, sr) {
		t.Fatal("healthy replicas diverge from the reference snapshot")
	}

	// Kill replica 0, remembering its address for the comeback.
	addr := fx.replicas[0].Listener.Addr().String()
	fx.replicas[0].Close()

	// Mid-chain push: replica 0 misses the delta, but every slot still
	// reaches its quorum (1 of 2) — the ack matches the reference's.
	fx.push(t, "w", h.round(t))

	// Queries fail over to the surviving owner, byte-identical.
	requireQuerySweep(t, "degraded", fx, h.keys)

	// /snapshot still serves every key (from the survivor), naming the
	// dead replica in the degraded list.
	var snap, refSnap struct {
		Keys     []json.RawMessage `json:"keys"`
		Degraded []string          `json:"degraded"`
	}
	if _, body := get(t, fx.fanin, "/snapshot"); true {
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("degraded snapshot: %v\n%s", err, body)
		}
	}
	if _, body := get(t, fx.ref, "/snapshot"); true {
		if err := json.Unmarshal(body, &refSnap); err != nil {
			t.Fatal(err)
		}
	}
	if len(snap.Keys) != len(refSnap.Keys) {
		t.Fatalf("degraded snapshot has %d keys, reference %d", len(snap.Keys), len(refSnap.Keys))
	}
	for i := range snap.Keys {
		if !bytes.Equal(snap.Keys[i], refSnap.Keys[i]) {
			t.Fatalf("degraded snapshot key %d diverges:\n%s\nvs\n%s", i, snap.Keys[i], refSnap.Keys[i])
		}
	}
	if len(snap.Degraded) != 1 || snap.Degraded[0] != fx.router.Replicas()[0] {
		t.Fatalf("degraded snapshot does not name the dead replica: %v", snap.Degraded)
	}

	// /healthz: degraded, with slot coverage showing no slot fully clean.
	var fh FaninHealth
	_, body := get(t, fx.fanin, "/healthz")
	if err := json.Unmarshal(body, &fh); err != nil {
		t.Fatal(err)
	}
	if fh.Status != "degraded" || fh.Slots == nil {
		t.Fatalf("degraded healthz: %s", body)
	}
	// One of every slot's two owners is gone: nothing fully covered, but
	// the survivor still serves a clean copy of every slot.
	if fh.Slots.Replication != 2 || fh.Slots.Quorum != 1 ||
		fh.Slots.FullyCovered != 0 || fh.Slots.UnderReplicated != qlove.Slots ||
		fh.Slots.Uncovered != 0 || fh.Slots.CleanCovered != qlove.Slots {
		t.Fatalf("slot coverage: %+v", fh.Slots)
	}

	// The replica returns on its old address with EMPTY state — the worst
	// case. The probe reinstates it and the resync replays its slots from
	// the surviving peer; /healthz goes back to "ok" only once the replica
	// is live AND clean.
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	revived := httptest.NewUnstartedServer(New(nil).Handler())
	revived.Listener.Close()
	revived.Listener = l
	revived.Start()
	t.Cleanup(revived.Close)

	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body := get(t, fx.fanin, "/healthz")
		var h FaninHealth
		if err := json.Unmarshal(body, &h); err == nil && h.Status == "ok" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never resynced: %s", body)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The revived replica's OWN snapshot is bit-identical to its peer's
	// and to the reference — the resync rebuilt the lost copy exactly.
	_, g0 := get(t, revived, "/snapshot")
	_, g1 := get(t, fx.replicas[1], "/snapshot")
	_, gr := get(t, fx.ref, "/snapshot")
	if !bytes.Equal(g0, g1) || !bytes.Equal(g0, gr) {
		t.Fatalf("resynced replica diverges (%d vs %d vs %d bytes)", len(g0), len(g1), len(gr))
	}
	if _, bf := get(t, fx.fanin, "/snapshot"); !bytes.Equal(bf, gr) {
		t.Fatal("fan-in snapshot diverges from reference after recovery")
	}

	// The delta chain continues: the resync carried the worker's seal
	// cursors, so the next delta folds on BOTH replicas with no
	// re-bootstrap, and views stay bit-identical.
	fx.push(t, "w", h.round(t))
	requireQuerySweep(t, "post-recovery", fx, h.keys)
	_, f0 := get(t, revived, "/snapshot")
	_, fr := get(t, fx.ref, "/snapshot")
	if !bytes.Equal(f0, fr) {
		t.Fatal("revived replica diverges after the post-recovery delta")
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestFaninResyncConcurrentMark: a push that misses a replica WHILE the
// prober is resyncing it — after the resync's export from the clean peer,
// before its end — must leave the replica dirty, and the next probe tick
// must repair it. The router's transport stages the interleaving: on the
// resync's /slots/drop call to the dirty replica it drives one fan-in
// /push whose delivery to that replica is lost.
func TestFaninResyncConcurrentMark(t *testing.T) {
	mem := memTransport{}
	const victim = "replica-0.mem"
	var losePush atomic.Bool          // lose the next /push delivered to the victim
	var onDrop atomic.Pointer[func()] // runs once, at the victim's next /slots/drop
	fx := newFaninFixture(t, 2, FaninConfig{
		Replication: 2,
		Client: &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
			if req.URL.Host == victim {
				switch req.URL.Path {
				case "/push":
					if losePush.CompareAndSwap(true, false) {
						return nil, fmt.Errorf("injected: push to %s lost", victim)
					}
				case "/slots/drop":
					if hook := onDrop.Swap(nil); hook != nil {
						(*hook)()
					}
				}
			}
			return mem.RoundTrip(req)
		})},
	}, mem)
	// The test drives every probe tick itself. Close stops only the
	// background prober; the router keeps serving.
	fx.router.Close()
	h := newFaninEngine(t, 44, 6)
	// A lost push is one failure, and each /healthz below answers and
	// clears the streak, so the victim is dirtied but never ejected.
	requireNotEjected := func(step string) {
		t.Helper()
		if fx.router.reps[0].down.Load() {
			t.Fatalf("%s: a lost push ejected the victim (failThreshold %d)", step, failThreshold)
		}
	}
	victimDirty := func() bool {
		t.Helper()
		var fh FaninHealth
		_, body := get(t, fx.fanin, "/healthz")
		if err := json.Unmarshal(body, &fh); err != nil {
			t.Fatal(err)
		}
		return fh.Replicas[0].Dirty
	}
	replicaSnapshot := func(i int) []byte {
		rec := httptest.NewRecorder()
		fx.servers[i].Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/snapshot", nil))
		return rec.Body.Bytes()
	}

	fx.push(t, "w", h.round(t))
	losePush.Store(true)
	fx.push(t, "w", h.round(t)) // quorum 1 of 2: acked, the victim is now dirty
	requireNotEjected("lost push")
	if !victimDirty() {
		t.Fatal("a lost push did not mark the replica dirty")
	}

	// Tick 1: the resync exports from the peer, then — before it finishes —
	// one more push misses the victim.
	midResync := func() {
		losePush.Store(true)
		fx.push(t, "w", h.round(t))
	}
	onDrop.Store(&midResync)
	fx.router.probeTick()
	if onDrop.Load() != nil {
		t.Fatal("the resync never dropped the victim's slots")
	}
	if bytes.Equal(replicaSnapshot(0), replicaSnapshot(1)) {
		t.Fatal("fixture: the victim did not miss the mid-resync push")
	}
	requireNotEjected("mid-resync push")
	if !victimDirty() {
		t.Fatal("resync cleared a dirty mark set while it ran: the replica serves as clean with a frame missing")
	}

	// Tick 2 converges.
	fx.router.probeTick()
	if victimDirty() {
		t.Fatal("second probe tick left the replica dirty")
	}
	_, ref := get(t, fx.ref, "/snapshot")
	if s0, s1 := replicaSnapshot(0), replicaSnapshot(1); !bytes.Equal(s0, s1) || !bytes.Equal(s0, ref) {
		t.Fatalf("repaired replica diverges (%d vs peer %d vs reference %d bytes)", len(s0), len(s1), len(ref))
	}
	fx.push(t, "w", h.round(t))
	requireQuerySweep(t, "post-repair", fx, h.keys)
}

// TestFaninSlotMove grows a 2-owner fan-in onto a third, empty replica by
// live /slots/move calls: only the intended slots migrate, /query answers
// stay bit-identical to the unresized reference before, during, and after,
// and the worker's delta chain keeps folding during and after the migration.
// Each move exports its slot exactly once, and its ack counts the worker
// blobs that export carried.
func TestFaninSlotMove(t *testing.T) {
	initial, err := qlove.NewSlotMap(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var exports atomic.Int32 // /slots/export requests the router made
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	fx := newFaninFixture(t, 3, FaninConfig{
		Slots: initial,
		Client: &http.Client{Timeout: 2 * time.Second, Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
			if req.URL.Path == "/slots/export" {
				exports.Add(1)
			}
			return tr.RoundTrip(req)
		})},
	}, nil)
	h := newFaninEngine(t, 43, 24)
	keyed := map[int]bool{} // slots holding one of the worker's keys
	for _, k := range h.keys {
		keyed[qlove.SlotOf(k)] = true
	}

	movedKeys, stayKeys := 0, 0
	for _, k := range h.keys {
		if qlove.SlotOf(k)%3 == 2 {
			movedKeys++
		} else {
			stayKeys++
		}
	}
	if movedKeys == 0 || stayKeys == 0 {
		t.Fatalf("key set does not cover moved and unmoved slots (%d/%d)", movedKeys, stayKeys)
	}

	fx.push(t, "w", h.round(t))
	var h2 Health
	if _, body := get(t, fx.replicas[2], "/healthz"); true {
		if err := json.Unmarshal(body, &h2); err != nil {
			t.Fatal(err)
		}
	}
	if h2.Keys != 0 {
		t.Fatalf("replica outside the slot map holds %d keys", h2.Keys)
	}

	// Re-home every slot whose canonical 3-way primary is the new replica.
	moved := map[int]bool{}
	for s := 0; s < qlove.Slots; s++ {
		if s%3 != 2 {
			continue
		}
		before := exports.Load()
		resp, body := post(t, fx.fanin, fmt.Sprintf("/slots/move?slot=%d&to=2", s), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("move slot %d: %s: %s", s, resp.Status, body)
		}
		if n := exports.Load() - before; n != 1 {
			t.Fatalf("move slot %d exported it %d times, want once", s, n)
		}
		var mv SlotMoveResult
		if err := json.Unmarshal(body, &mv); err != nil {
			t.Fatal(err)
		}
		wantWorkers := 0
		if keyed[s] {
			wantWorkers = 1 // the one worker; slots without keys export none
		}
		if mv.Slot != s || mv.To != 2 || mv.From != s%2 || mv.Workers != wantWorkers {
			t.Fatalf("move ack %+v, want %d workers", mv, wantWorkers)
		}
		moved[s] = true
		// The chain keeps folding while the tier resizes: every 20 moves a
		// delta round lands on a half-moved table.
		if len(moved)%20 == 0 {
			fx.push(t, "w", h.round(t))
		}
		if len(moved) == 20 {
			requireQuerySweep(t, "mid-migration", fx, h.keys)
		}
	}
	requireQuerySweep(t, "post-migration", fx, h.keys)

	// Slot-level diff via the replicas directly: moved slots' keys now
	// live only on replica 2; unmoved slots' keys never moved.
	for _, k := range h.keys {
		s := qlove.SlotOf(k)
		owner := s % 2
		if moved[s] {
			owner = 2
		}
		for i, rs := range fx.replicas {
			resp, _ := get(t, rs, "/query?key="+k)
			if (resp.StatusCode == http.StatusOK) != (i == owner) {
				t.Fatalf("key %q (slot %d, moved=%v) on replica %d: %s, owner %d", k, s, moved[s], i, resp.Status, owner)
			}
		}
	}

	// /slots reflects the flipped table.
	var report SlotsReport
	if _, body := get(t, fx.fanin, "/slots"); true {
		if err := json.Unmarshal(body, &report); err != nil {
			t.Fatal(err)
		}
	}
	if report.Quorum != 1 {
		t.Fatalf("quorum %d", report.Quorum)
	}
	for s := 0; s < qlove.Slots; s++ {
		want := s % 2
		if moved[s] {
			want = 2
		}
		if got := report.Map.OwnersView(s)[0]; got != want {
			t.Fatalf("slot %d primary %d in /slots, want %d", s, got, want)
		}
	}

	// Delta chains continue across the migration; the fan-in snapshot
	// stays bit-identical to the reference.
	fx.push(t, "w", h.round(t))
	requireQuerySweep(t, "post-move round", fx, h.keys)
	_, bf := get(t, fx.fanin, "/snapshot")
	_, br := get(t, fx.ref, "/snapshot")
	if !bytes.Equal(bf, br) {
		t.Fatal("fan-in snapshot diverges from reference after migration")
	}

	// Invalid moves are rejected without touching the table.
	someMoved := -1
	for s := range moved {
		someMoved = s
		break
	}
	for _, bad := range []struct {
		name, query string
		status      int
	}{
		{"GET method", fmt.Sprintf("/slots/move?slot=%d&to=1", someMoved), 0}, // via get below
		{"bad slot", "/slots/move?slot=999&to=2", http.StatusBadRequest},
		{"negative slot", "/slots/move?slot=-1&to=2", http.StatusBadRequest},
		{"bad destination", "/slots/move?slot=3&to=9", http.StatusBadRequest},
		{"source out of range", "/slots/move?slot=3&from=5&to=2", http.StatusBadRequest},
		{"destination already owns", fmt.Sprintf("/slots/move?slot=%d&to=2", someMoved), http.StatusBadRequest},
		{"source does not own", fmt.Sprintf("/slots/move?slot=%d&from=1&to=0", someMoved), http.StatusBadRequest},
	} {
		if bad.status == 0 {
			if resp, _ := get(t, fx.fanin, bad.query); resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("%s: %s, want 405", bad.name, resp.Status)
			}
			continue
		}
		if resp, body := post(t, fx.fanin, bad.query, nil); resp.StatusCode != bad.status {
			t.Fatalf("%s: %s, want %d: %s", bad.name, resp.Status, bad.status, body)
		}
	}
}
