// Package aggstore is the aggregator's state plane: resident
// per-(worker, internal key name) folded captures behind a small Store
// interface, so qlove.Aggregator is independent of how the state is laid
// out, locked and persisted. Three backends and a wrapper ship:
//
//   - Striped: the in-memory backend — lock-striped shards keyed by
//     hash(worker, base key), so pushes from different workers and
//     concurrent reads proceed in parallel. Worker/key counts are kept in
//     atomics and never take a stripe lock.
//   - Map: every worker's state in one map behind a single RWMutex. It is
//     the disk store's in-memory map and the parity reference the other
//     backends are verified against.
//   - Disk: a Map whose every mutation is first appended to an on-disk
//     write-ahead log with snapshot compaction, so a restarted aggregator
//     resumes its workers' delta chains (see disk.go).
//   - Instrumented: a wrapper over any of them recording per-op counts and
//     cumulative latency, surfaced by the service's /metrics endpoint.
//
// A frame is the only way state enters a store: Store.ApplyFrame folds a
// full, delta or tombstone frame — how it changes a worker's state lives
// here once (fold.go), which plans the mutation against the resident state
// and then applies it. The disk store logs the received frame between the
// two and replays it through the same planner.
//
// A State is a value, held inline by every backend, and its slices are
// IMMUTABLE once stored: folds are copy-on-write (a delta builds a fresh
// State over a new window slice rather than appending into the resident
// one), which is what lets read paths share resident parts with zero
// copying.
//
// Internal key names follow the salt convention internal/wire defines
// (wire.SplitName): a logical key K is resident either under its base name
// "K" or under salted sub-stream names "K\x00<j>". The aggregator admits
// only names wire.ValidName accepts; a store groups any other name — a WAL
// written before that check may hold one — as an unsalted key. All the
// names of one logical key form its GROUP; fold order is the sorted name
// order [base, sub 0, sub 1, …] because NUL sorts below every user-key
// byte. Both in-memory layouts maintain a per-group index, so group reads
// and wholesale group replacement never scan the worker's full key set.
package aggstore

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// State is one worker's folded capture of one internal key name — exactly
// the SnapshotParts a full export of that name would carry. Stores keep it
// by value; the slices it carries are shared and read-only once stored:
// folds replace the State, never mutate what its slices point at.
type State struct {
	Parts core.SnapshotParts
}

// NamedState pairs a resident internal name with its state, as returned
// by Group in fold order.
type NamedState struct {
	Name  string
	State State
}

// Store is the aggregator's state plane. Implementations serialize each
// operation internally; callers get per-operation atomicity (a group
// replacement is never observed half-applied) but no cross-operation
// transactions — the aggregator's contract already requires pushes of ONE
// worker to be serialized by the caller, and reads tolerate seeing a
// multi-frame blob partially folded (the bit-equality suites verify
// quiesced states).
type Store interface {
	// Drop removes the exact internal name, reporting whether it was
	// resident.
	Drop(worker, name string) bool
	// ApplyFrame folds one decoded wire frame into the worker's state, the
	// way one push frame folds: a full frame replaces its key's salt group,
	// a delta advances one internal name's window (from generation 0 it
	// bootstraps the name: a base name replaces its salt group, a salted
	// one retires the group's base state), a tombstone drops one name. A delta that does not fit the resident state is an
	// error and changes nothing. raw is the frame's verbatim bytes, header
	// included, valid only during the call; the disk store logs them as the
	// fold's record.
	ApplyFrame(worker string, f wire.Frame, raw []byte) error
	// Group returns the worker's resident states for one logical key in
	// fold order [base, sub 0, sub 1, …]; empty when the worker holds
	// nothing for it. The returned slice is the caller's; the States'
	// slices are shared and read-only.
	Group(worker, base string) []NamedState
	// NamesMatching returns the worker's resident states for every
	// logical group whose BASE key satisfies match (salted sub-streams
	// ride with their group — the predicate never sees internal salted
	// names), sorted by internal name, which keeps each group of valid
	// names (wire.ValidName) contiguous in fold order [base, sub 0, sub 1,
	// …]. The slot-migration export path uses it to lift one hash slot's
	// worth of state atomically per group, and the aggregator's whole-view
	// reads to list a worker (match accepting every key). The returned
	// slice is the caller's; the States' slices are shared and read-only.
	NamesMatching(worker string, match func(base string) bool) []NamedState

	// Touch creates the worker if needed and stamps its last-push time.
	Touch(worker string, t time.Time)
	// Workers returns the known worker IDs, sorted, excluding those the
	// stale predicate rejects (nil keeps all).
	Workers(stale func(lastPush time.Time) bool) []string
	// DropWorker removes one worker and all its state, reporting whether
	// it was known.
	DropWorker(worker string) bool
	// SweepWorkers drops every worker the predicate marks stale,
	// returning how many were removed.
	SweepWorkers(stale func(lastPush time.Time) bool) int

	// WorkerCount and KeyCount are O(1) occupancy counters — workers
	// resident, and distinct logical keys across all of them — safe for
	// /healthz even while pushes are in flight. They count RESIDENT
	// state; staleness filtering under a push deadline is the
	// aggregator's concern.
	WorkerCount() int
	KeyCount() int

	// Kind names the backend ("striped", "disk", …) for metrics and bench
	// labels.
	Kind() string
}

// LockWaiter is implemented by backends that track time spent WAITING on
// their internal locks (mutex acquisition beyond an uncontended TryLock).
type LockWaiter interface {
	LockWaitNanos() (read, write int64)
}

// OpMetrics is one operation's cumulative count and latency.
type OpMetrics struct {
	Op    string `json:"op"`
	Count int64  `json:"count"`
	Nanos int64  `json:"total_nanos"`
}

// Metrics is the Instrumented wrapper's report.
type Metrics struct {
	Backend            string      `json:"backend"`
	Ops                []OpMetrics `json:"ops"`
	LockWaitReadNanos  int64       `json:"lock_wait_read_nanos"`
	LockWaitWriteNanos int64       `json:"lock_wait_write_nanos"`
}

// fnv1a hashes the concatenation of the given strings (FNV-1a, 32-bit).
func fnv1a(ss ...string) uint32 {
	h := uint32(2166136261)
	for _, s := range ss {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint32(s[i])) * 16777619
		}
	}
	return h
}

// --- cross-worker logical-key refcounts ---

const refStripes = 64

// refTable counts, per logical key, how many workers hold any state for
// it, maintaining the distinct-key total in an atomic so KeyCount never
// takes a state lock.
type refTable struct {
	distinct atomic.Int64
	stripes  [refStripes]struct {
		mu sync.Mutex
		m  map[string]int32
	}
}

func (t *refTable) stripe(base string) *struct {
	mu sync.Mutex
	m  map[string]int32
} {
	return &t.stripes[fnv1a(base)&(refStripes-1)]
}

// incr records one more worker holding base.
func (t *refTable) incr(base string) {
	s := t.stripe(base)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[string]int32)
	}
	s.m[base]++
	if s.m[base] == 1 {
		t.distinct.Add(1)
	}
	s.mu.Unlock()
}

// decr records one fewer worker holding base.
func (t *refTable) decr(base string) {
	s := t.stripe(base)
	s.mu.Lock()
	if n := s.m[base]; n > 0 {
		if n == 1 {
			delete(s.m, base)
			t.distinct.Add(-1)
		} else {
			s.m[base] = n - 1
		}
	}
	s.mu.Unlock()
}

// --- lock-wait tracking ---

// lockTimed acquires mu, charging any wait beyond an uncontended TryLock
// to the counter.
func lockTimed(mu *sync.RWMutex, wait *atomic.Int64) {
	if mu.TryLock() {
		return
	}
	t0 := time.Now()
	mu.Lock()
	wait.Add(int64(time.Since(t0)))
}

// rlockTimed is lockTimed for read locks.
func rlockTimed(mu *sync.RWMutex, wait *atomic.Int64) {
	if mu.TryRLock() {
		return
	}
	t0 := time.Now()
	mu.RLock()
	wait.Add(int64(time.Since(t0)))
}
