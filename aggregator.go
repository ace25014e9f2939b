package qlove

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"repro/internal/aggstore"
	"repro/internal/wire"
)

// Aggregator is the long-running receiving half of the incremental
// distributed plane: it folds worker push streams — full frames for
// bootstrap, delta frames thereafter, tombstones for evicted keys — into a
// resident per-(worker, key) state, and answers queries from the merged
// cross-worker view. It is what cmd/qlove-agg serves over HTTP in -serve
// mode, and the library form any embedding service can use directly.
//
// State is kept per worker because the cross-worker combination is a
// Snapshot.Merge (disjoint sub-streams of one logical key), which must
// happen at read time from each worker's CURRENT window — folding deltas
// into an already-merged state would double-count. Reads merge the workers
// of a key in ascending worker-ID order, so a fixed set of worker states
// answers bit-reproducible estimates regardless of push arrival order;
// each worker's folded state is bit-for-bit the capture a full
// Engine.Export would have shipped at the same instant.
//
// Storage lives behind the internal aggstore.Store interface
// (AggregatorConfig selects the backend): by default a lock-striped store
// whose stripes are keyed by hash(worker, base key), so pushes from
// different workers and concurrent reads genuinely run in parallel. Every
// read merges the key's resident states afresh. Every backend answers
// bit-identically; the conformance suite pins that.
//
// Apply calls for DIFFERENT workers may run concurrently with each other
// and with reads; Apply calls for one worker must be serialized by the
// caller (they are on any real transport: one worker pushes its own
// deltas in order). Reads are per-worker-frame coherent: a Query
// overlapping a multi-frame Apply may see that blob partially folded —
// quiesced states are bit-identical across all backends, which is what
// the distributed plane's verifications compare.
type Aggregator struct {
	store aggstore.Store
	// shapes interns the configurations pushed frames carry, so every state
	// of one configuration shares one core.Shape and a delta fold finds
	// its resident state's shape by pointer. A disk store's is the table it
	// recovered with, so recovered states and later pushes share it too.
	shapes *wire.Shapes

	// Push-deadline GC (SetPushDeadline): a worker whose last push is older
	// than deadline is invisible to reads immediately and physically
	// dropped by the next sweep (piggybacked on Apply, or explicit).
	deadline time.Duration
	now      func() time.Time
}

// AggregatorConfig selects the aggregator's state backend.
type AggregatorConfig struct {
	// Store names the backend: "striped" (the default — in memory,
	// lock-striped shards, parallel pushes and reads) or "disk" (durable:
	// every mutation appended to a crash-safe segment log in Dir and
	// replayed on the next open — see the aggstore disk backend).
	Store string
	// Instrument wraps the store with the per-op metrics recorder; see
	// Metrics and the service's /metrics endpoint.
	Instrument bool

	// Dir is the disk backend's state directory (required for "disk",
	// rejected for the in-memory backends). Reopening the same directory
	// recovers the previous aggregator's entire state — worker cursors
	// included, so workers resume delta pushes without re-bootstrapping.
	Dir string
	// Fsync is the disk backend's sync discipline: "always" (default —
	// every mutation is durable before it is applied), "interval"
	// (batched syncs on a short ticker), or "none" (OS page cache only).
	Fsync string
	// CompactBytes is the WAL size that triggers snapshot compaction
	// (0 = default, < 0 disables auto-compaction). Disk backend only.
	CompactBytes int64
}

// NewAggregator returns an empty aggregator on the default backend
// (striped store).
func NewAggregator() *Aggregator {
	a, err := NewAggregatorConfig(AggregatorConfig{})
	if err != nil { // unreachable: the zero config is valid
		panic(err)
	}
	return a
}

// NewAggregatorConfig returns an empty aggregator on the configured
// backend.
func NewAggregatorConfig(cfg AggregatorConfig) (*Aggregator, error) {
	var store aggstore.Store
	shapes := new(wire.Shapes)
	switch cfg.Store {
	case "", "striped":
		store = aggstore.NewStriped(0)
	case "disk":
		if cfg.Dir == "" {
			return nil, fmt.Errorf("qlove: the disk aggregator store needs a state directory (AggregatorConfig.Dir)")
		}
		d, err := aggstore.OpenDisk(aggstore.DiskConfig{
			Dir:          cfg.Dir,
			Fsync:        cfg.Fsync,
			CompactBytes: cfg.CompactBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("qlove: open disk aggregator store: %w", err)
		}
		store, shapes = d, d.Shapes()
	default:
		return nil, fmt.Errorf("qlove: unknown aggregator store %q (striped | disk)", cfg.Store)
	}
	if cfg.Store != "disk" && (cfg.Dir != "" || cfg.Fsync != "" || cfg.CompactBytes != 0) {
		return nil, fmt.Errorf("qlove: Dir/Fsync/CompactBytes only apply to the disk store, not %q", cfg.Store)
	}
	if cfg.Instrument {
		store = aggstore.NewInstrumented(store)
	}
	return &Aggregator{store: store, shapes: shapes, now: time.Now}, nil
}

// Close releases the store backend: for the disk backend it flushes and
// syncs the log tail and stops the background flusher; in-memory backends
// close to a no-op. The aggregator must not be used after Close.
func (a *Aggregator) Close() error {
	store := a.store
	if in, ok := store.(*aggstore.Instrumented); ok {
		store = in.Inner()
	}
	if c, ok := store.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// DurabilityErr reports the store's sticky durability error: non-nil once
// the disk backend has failed to persist a mutation (the in-memory state
// stays ahead of the log from that point on). Always nil for in-memory
// backends. Services surface it in /healthz.
func (a *Aggregator) DurabilityErr() error {
	store := a.store
	if in, ok := store.(*aggstore.Instrumented); ok {
		store = in.Inner()
	}
	if d, ok := store.(interface{ Err() error }); ok {
		return d.Err()
	}
	return nil
}

// SetPushDeadline arms the aggregator's worker GC — the service-plane
// analogue of the engine's wall-clock key TTL. A worker that has not
// pushed for longer than d stops contributing to reads (Query, Snapshot,
// Workers, Keys) IMMEDIATELY once the deadline passes, and its resident
// state is physically dropped by the next sweep — piggybacked on every
// Apply, or driven explicitly via Sweep (e.g. from a service ticker). A
// departed worker therefore cannot pin its folded state forever, bounding
// the service under worker churn; a worker that resumes pushing after
// being swept simply re-bootstraps (ExportDelta re-ships in full when the
// destination rejects its cursor, exactly as after any lost blob).
//
// clock overrides the time source (tests use a fake clock); nil means
// time.Now. d <= 0 disables the GC. Arming (or re-arming) dates every
// resident worker at that moment, so each gets one full deadline from
// the arming before it can go stale. Not safe to call concurrently with
// Apply or reads; arm it before the aggregator starts serving.
func (a *Aggregator) SetPushDeadline(d time.Duration, clock func() time.Time) {
	a.deadline = d
	a.now = time.Now
	if clock != nil {
		a.now = clock
	}
	if d > 0 {
		// Date EVERY resident worker at arming time: workers folded before
		// the GC was armed carry the default clock's stamps, and workers
		// stamped under a previous arming may carry a different clock's
		// times — either way, "armed now" means every current worker gets
		// one full deadline from now, and a worker that kept pushing
		// through a disarm/re-arm cycle is never retired by its stale
		// stamp.
		now := a.now()
		for _, id := range a.store.Workers(nil) {
			a.store.Touch(id, now)
		}
	}
}

// SetPushDeadlineFromStored arms the worker GC like SetPushDeadline but
// WITHOUT re-dating resident workers: the stamps already in the store —
// recovered from a disk backend's log — stay authoritative. This is the
// restart form: a worker that had gone silent before the crash is still
// the one the recovered aggregator retires, rather than every worker
// getting a fresh deadline just because the process bounced. (With an
// in-memory store there is nothing recovered and this is equivalent to
// SetPushDeadline on an empty aggregator.) A recovered worker pushing
// again re-stamps itself on its first Apply, exactly as before the crash.
func (a *Aggregator) SetPushDeadlineFromStored(d time.Duration, clock func() time.Time) {
	a.deadline = d
	a.now = time.Now
	if clock != nil {
		a.now = clock
	}
}

// staleAt returns the staleness predicate for reads/sweeps at the given
// instant, or nil when no deadline is armed.
func (a *Aggregator) staleAt(now time.Time) func(time.Time) bool {
	if a.deadline <= 0 {
		return nil
	}
	d := a.deadline
	return func(last time.Time) bool { return now.Sub(last) > d }
}

// liveWorkers lists the workers visible to reads right now, sorted.
func (a *Aggregator) liveWorkers() []string {
	if a.deadline <= 0 {
		return a.store.Workers(nil)
	}
	return a.store.Workers(a.staleAt(a.now()))
}

// Sweep physically drops every worker past the push deadline, returning
// how many were removed. Reads already exclude stale workers, so Sweep
// only reclaims memory; long-running services call it from a ticker (or
// rely on the sweep piggybacked on every Apply). A no-op when no deadline
// is armed.
func (a *Aggregator) Sweep() int {
	if a.deadline <= 0 {
		return 0
	}
	return a.store.SweepWorkers(a.staleAt(a.now()))
}

// Apply folds one push blob from the named worker: any mix of full, delta
// and tombstone frames (the output of Engine.Export, Engine.ExportDelta or
// EngineSnapshot.WriteTo — v1 blobs fold too, as full frames). It returns
// the number of frames applied. On error the frames already folded remain
// applied and the count says how many; the worker should discard its
// cursor and re-bootstrap (ExportDelta does this automatically when its
// own encode fails, and a from-generation-0 delta or full frame always
// replaces whatever state is resident).
func (a *Aggregator) Apply(worker string, r io.Reader) (int, error) {
	// Stamp the pusher BEFORE the piggybacked sweep, so a worker revived
	// at the deadline's edge is never dropped by its own push. Stamps are
	// real times even while the GC is unarmed: a disk store logs them, and
	// a restart that arms the GC from the stored stamps must not read a
	// zero time as a worker silent for centuries.
	now := a.now()
	a.store.Touch(worker, now)
	if a.deadline > 0 {
		a.store.SweepWorkers(a.staleAt(now))
	}
	dec := a.shapes.NewDecoder(r)
	frames := 0
	for {
		f, err := dec.DecodeFrame()
		if err == io.EOF {
			return frames, nil
		}
		if err != nil {
			return frames, fmt.Errorf("qlove: aggregator apply worker %q: %w", worker, err)
		}
		if !wire.ValidName(f.Key) {
			// Checked before the store sees (and a disk store logs) the name:
			// the stores index by wire.SplitName and trust what they are given.
			return frames, fmt.Errorf("qlove: aggregator apply worker %q key %q: %w: misplaced NUL separator", worker, f.Key, wire.ErrCorrupt)
		}
		// The store folds the frame (aggstore owns the fold); a disk store
		// logs the bytes the decoder lends as they arrived.
		if err := a.store.ApplyFrame(worker, f, dec.Raw()); err != nil {
			return frames, fmt.Errorf("qlove: aggregator apply worker %q key %q: %w", worker, f.Key, err)
		}
		frames++
	}
}

// mergeKey folds one logical key across the given workers: within each
// worker the key's resident streams fold in [base, sub-stream 0, 1, …]
// order (the engine's own salted fold), then the per-worker captures
// merge in ascending worker-ID order. ok is false when no worker holds
// the key.
func (a *Aggregator) mergeKey(base string, live []string) (Snapshot, bool, error) {
	var merged Snapshot
	found := false
	for _, id := range live {
		group := a.store.Group(id, base)
		if len(group) == 0 {
			continue
		}
		var err error
		if merged, err = mergeWorker(merged, base, group); err != nil {
			return Snapshot{}, false, err
		}
		found = true
	}
	return merged, found, nil
}

// mergeWorker folds one worker's resident streams of one logical key, given
// in fold order [base, sub-stream 0, 1, …], and merges the result into
// merged: the step both mergeKey and Snapshot take per (key, worker).
func mergeWorker(merged Snapshot, base string, group []aggstore.NamedState) (Snapshot, error) {
	var folded Snapshot
	for _, ns := range group {
		// Each stored capture was checked when the frame that brought it
		// decoded.
		var err error
		if folded, err = folded.Merge(ns.Snap); err != nil {
			return Snapshot{}, fmt.Errorf("qlove: aggregator merge key %q: %w", base, err)
		}
	}
	merged, err := merged.Merge(folded)
	if err != nil {
		return Snapshot{}, fmt.Errorf("qlove: aggregator merge key %q: %w", base, err)
	}
	return merged, nil
}

// allKeys is the NamesMatching predicate that lists a worker's every key.
func allKeys(string) bool { return true }

// byLogicalKey orders a worker's states by logical key alone.
func byLogicalKey(x, y aggstore.NamedState) int {
	return strings.Compare(wire.LogicalKey(x.Name), wire.LogicalKey(y.Name))
}

// Query answers one LOGICAL key from the merged cross-worker view: within
// each worker the key's resident streams (base plus any salted
// sub-streams) fold first, in [base, sub-stream 0, 1, …] order — the same
// fold the engine's own salted reads perform — then the per-worker
// captures merge in ascending worker-ID order. ok is false when no worker
// currently holds the key.
func (a *Aggregator) Query(key string) (Snapshot, bool, error) {
	return a.mergeKey(key, a.liveWorkers())
}

// Snapshot materializes the whole merged view — every key, each merged
// across its workers in ascending worker-ID order — as an EngineSnapshot,
// interchangeable with the batch-mode fold of the workers' full exports.
func (a *Aggregator) Snapshot() (EngineSnapshot, error) {
	out := EngineSnapshot{keys: make(map[string]Snapshot)}
	// One listing per live worker, workers ascending: each key merges its
	// workers in the order Query does.
	for _, id := range a.liveWorkers() {
		// Sorted by internal name, so a key's streams are contiguous and in
		// fold order — unless a name wire.ValidName refuses (only a WAL
		// written before that check holds one) sorts inside another key's
		// run; a stable sort by logical key regroups it.
		states := a.store.NamesMatching(id, allKeys)
		if !slices.IsSortedFunc(states, byLogicalKey) {
			slices.SortStableFunc(states, byLogicalKey)
		}
		for len(states) > 0 {
			base := wire.LogicalKey(states[0].Name)
			n := 1
			for n < len(states) && wire.LogicalKey(states[n].Name) == base {
				n++
			}
			sn, err := mergeWorker(out.keys[base], base, states[:n])
			if err != nil {
				return EngineSnapshot{}, err
			}
			out.keys[base] = sn
			states = states[n:]
		}
	}
	return out, nil
}

// Workers returns how many live workers have pushed state (workers past
// the push deadline are excluded, swept or not).
func (a *Aggregator) Workers() int {
	if a.deadline <= 0 {
		return a.store.WorkerCount()
	}
	return len(a.liveWorkers())
}

// Keys returns the number of distinct LOGICAL keys across all live
// workers (a salted key's sub-streams count once).
func (a *Aggregator) Keys() int {
	if a.deadline <= 0 {
		return a.store.KeyCount()
	}
	live := a.liveWorkers()
	if len(live) == a.store.WorkerCount() {
		// Nothing is stale-but-unswept: the O(1) occupancy counter is exact.
		return a.store.KeyCount()
	}
	seen := make(map[string]struct{})
	for _, id := range live {
		for _, ns := range a.store.NamesMatching(id, allKeys) {
			seen[wire.LogicalKey(ns.Name)] = struct{}{}
		}
	}
	return len(seen)
}

// DropWorker forgets one worker's state entirely (e.g. a
// decommissioned pod), returning whether it was known.
func (a *Aggregator) DropWorker(worker string) bool {
	return a.store.DropWorker(worker)
}

// --- slot export / migration ---

// WorkerBlob is one worker's share of a slot export: a wire blob of
// self-contained bootstrap frames — full frames for base keys,
// from-generation-0 delta frames for salted sub-streams — that any
// aggregator Apply reproduces bit-for-bit, seal-generation cursors
// included, so a migrated slot keeps accepting the workers' subsequent
// delta frames with no re-bootstrap. Blob marshals as base64 in JSON.
type WorkerBlob struct {
	Worker string `json:"worker"`
	Blob   []byte `json:"blob"`
}

// ExportSlots serializes every resident state whose logical key hashes
// into one of the given slots, one blob per worker (swept-but-resident
// stale workers included: migration must move the slot's state, not the
// read-time view of it). Importers replaying a blob into a replica that
// may already hold stale state for these slots must DropSlots there
// first: a sub-stream bootstrap frame retires the base but leaves other
// resident sub-streams of its group in place.
func (a *Aggregator) ExportSlots(slots []int) ([]WorkerBlob, error) {
	want := make(map[int]bool, len(slots))
	for _, s := range slots {
		if s < 0 || s >= Slots {
			return nil, fmt.Errorf("qlove: export slot %d outside [0, %d)", s, Slots)
		}
		want[s] = true
	}
	match := func(base string) bool { return want[SlotOf(base)] }
	var out []WorkerBlob
	for _, id := range a.store.Workers(nil) {
		states := a.store.NamesMatching(id, match)
		if len(states) == 0 {
			continue
		}
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf)
		for _, ns := range states {
			if _, _, salted := wire.SplitName(ns.Name); salted {
				// A full frame would ReplaceGroup away the sibling
				// sub-streams already replayed; a from-generation-0 delta
				// bootstraps exactly this sub-stream, cursor intact.
				d, err := ns.Snap.Delta(0)
				if err == nil {
					_, err = enc.EncodeDelta(ns.Name, d)
				}
				if err != nil {
					return nil, fmt.Errorf("qlove: export slots worker %q key %q: %w", id, ns.Name, err)
				}
				continue
			}
			if _, err := enc.Encode(ns.Name, ns.Snap); err != nil {
				return nil, fmt.Errorf("qlove: export slots worker %q key %q: %w", id, ns.Name, err)
			}
		}
		out = append(out, WorkerBlob{Worker: id, Blob: buf.Bytes()})
	}
	return out, nil
}

// DropSlots removes every resident state whose logical key hashes into
// one of the given slots, across all workers, returning how many internal
// names were dropped. The old owner calls it after a slot migration
// flips; importers call it before replaying an export over possibly-stale
// state.
func (a *Aggregator) DropSlots(slots []int) int {
	want := make(map[int]bool, len(slots))
	for _, s := range slots {
		want[s] = true
	}
	match := func(base string) bool { return want[SlotOf(base)] }
	dropped := 0
	for _, id := range a.store.Workers(nil) {
		for _, ns := range a.store.NamesMatching(id, match) {
			if a.store.Drop(id, ns.Name) {
				dropped++
			}
		}
	}
	return dropped
}

// --- metrics ---

// StoreOpMetric is one store operation's cumulative count and latency
// (instrumented backends only).
type StoreOpMetric struct {
	Op    string `json:"op"`
	Count int64  `json:"count"`
	Nanos int64  `json:"total_nanos"`
}

// StoreMetrics describes the aggregator's state backend.
type StoreMetrics struct {
	Backend            string          `json:"backend"`
	LockWaitReadNanos  int64           `json:"lock_wait_read_nanos"`
	LockWaitWriteNanos int64           `json:"lock_wait_write_nanos"`
	Ops                []StoreOpMetric `json:"ops,omitempty"`
}

// FoldCacheStats counted a read-path fold cache's hits and misses.
//
// Deprecated: the aggregator has no fold cache — every read merges — so
// nothing reports these; AggregatorMetrics.FoldCache is always nil.
type FoldCacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// AggregatorMetrics is the aggregator's self-description, served by the
// aggregation service's /metrics endpoint.
type AggregatorMetrics struct {
	Workers int          `json:"workers"`
	Keys    int          `json:"keys"`
	Store   StoreMetrics `json:"store"`
	// Deprecated: always nil (see FoldCacheStats); omitted from the JSON.
	FoldCache *FoldCacheStats `json:"fold_cache,omitempty"`
}

// Metrics snapshots the aggregator's occupancy and backend counters. Op
// counts and latencies are present only when the store was built with
// AggregatorConfig.Instrument.
func (a *Aggregator) Metrics() AggregatorMetrics {
	m := AggregatorMetrics{
		Workers: a.Workers(),
		Keys:    a.Keys(),
		Store:   StoreMetrics{Backend: a.store.Kind()},
	}
	if in, ok := a.store.(*aggstore.Instrumented); ok {
		im := in.Metrics()
		m.Store.Ops = make([]StoreOpMetric, len(im.Ops))
		for i, op := range im.Ops {
			m.Store.Ops[i] = StoreOpMetric{Op: op.Op, Count: op.Count, Nanos: op.Nanos}
		}
	}
	if lw, ok := a.store.(aggstore.LockWaiter); ok {
		m.Store.LockWaitReadNanos, m.Store.LockWaitWriteNanos = lw.LockWaitNanos()
	}
	return m
}
