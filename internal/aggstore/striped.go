package aggstore

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// defaultStripes is the stripe count of the aggregator's striped store.
const defaultStripes = 64

// Striped is the lock-striped store: state shards across stripes keyed by
// hash(worker, base key), each behind its own RWMutex, so pushes from
// different workers and concurrent reads proceed in parallel instead of
// serializing on one aggregator-wide lock. A (worker, logical key)'s
// whole salt group hashes to ONE stripe, so group reads and wholesale
// replacement stay atomic under a single stripe lock.
//
// The worker table is separate: membership changes, and the purge of a
// retired worker's state, take its write lock, but the hot path — stamping
// a worker's last push — runs under the read lock with an atomic store, so
// concurrent pushers never serialize on it.
// Worker and distinct-logical-key counts are atomics; WorkerCount /
// KeyCount never take a stripe lock.
type Striped struct {
	stripes []stripe
	mask    uint32

	wmu                 sync.RWMutex
	wm                  map[string]*workerMeta
	refs                refTable
	wcount              atomic.Int64
	readWait, writeWait atomic.Int64
}

type stripe struct {
	mu     sync.RWMutex
	groups map[groupKey]*group
	_      [24]byte // soften false sharing between neighbouring stripes
}

type groupKey struct {
	worker string
	base   string
}

// workerMeta carries a worker's last-push stamp as atomic wall nanos, so
// Touch under the table's READ lock is race-free against Workers/sweeps.
type workerMeta struct {
	lastPush atomic.Int64
}

func metaTime(nanos int64) time.Time { return time.Unix(0, nanos) }

// NewStriped returns an empty striped store with n stripes (n <= 0 picks
// defaultStripes; n is rounded up to a power of two).
func NewStriped(n int) *Striped {
	if n <= 0 {
		n = defaultStripes
	}
	size := 1
	for size < n {
		size <<= 1
	}
	s := &Striped{
		stripes: make([]stripe, size),
		mask:    uint32(size - 1),
		wm:      make(map[string]*workerMeta),
	}
	for i := range s.stripes {
		s.stripes[i].groups = make(map[groupKey]*group)
	}
	return s
}

func (s *Striped) Kind() string { return "striped" }

// LockWaitNanos reports cumulative read-/write-lock wait across every
// stripe and the worker table.
func (s *Striped) LockWaitNanos() (read, write int64) {
	return s.readWait.Load(), s.writeWait.Load()
}

func (s *Striped) stripe(worker, base string) *stripe {
	return &s.stripes[fnv1a(worker, base)&s.mask]
}

func (s *Striped) get(worker, name string) (State, bool) {
	base, j, salted := wire.SplitName(name)
	sp := s.stripe(worker, base)
	rlockTimed(&sp.mu, &s.readWait)
	defer sp.mu.RUnlock()
	g := sp.groups[groupKey{worker, base}]
	if g == nil {
		return State{}, false
	}
	return g.get(salted, j)
}

// set performs a state-record mutation (recPut, recReplaceGroup or
// recBootstrapSub) on the exact internal name.
func (s *Striped) set(worker string, m mutation) {
	base, j, salted := wire.SplitName(m.name)
	sp := s.stripe(worker, base)
	lockTimed(&sp.mu, &s.writeWait)
	g := sp.groups[groupKey{worker, base}]
	if g == nil {
		g = &group{}
		sp.groups[groupKey{worker, base}] = g
		s.refs.incr(base)
	}
	g.apply(m.op, salted, j, m.st)
	sp.mu.Unlock()
}

func (s *Striped) Drop(worker, name string) bool {
	base, j, salted := wire.SplitName(name)
	sp := s.stripe(worker, base)
	lockTimed(&sp.mu, &s.writeWait)
	dropped := false
	if g := sp.groups[groupKey{worker, base}]; g != nil {
		dropped = g.drop(salted, j)
		if dropped && g.empty() {
			delete(sp.groups, groupKey{worker, base})
			s.refs.decr(base)
		}
	}
	sp.mu.Unlock()
	return dropped
}

func (s *Striped) ApplyFrame(worker string, f wire.Frame, _ []byte) error {
	return applyFrame(s, worker, f)
}

func (s *Striped) Group(worker, base string) []NamedState {
	sp := s.stripe(worker, base)
	rlockTimed(&sp.mu, &s.readWait)
	defer sp.mu.RUnlock()
	g := sp.groups[groupKey{worker, base}]
	if g == nil {
		return nil
	}
	return g.fold(base, nil)
}

func (s *Striped) NamesMatching(worker string, match func(base string) bool) []NamedState {
	var out []NamedState
	for i := range s.stripes {
		sp := &s.stripes[i]
		rlockTimed(&sp.mu, &s.readWait)
		for gk, g := range sp.groups {
			if gk.worker == worker && match(gk.base) {
				out = g.fold(gk.base, out)
			}
		}
		sp.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (s *Striped) Touch(worker string, t time.Time) {
	// The stamp lands under the read lock, so a sweep (which decides under
	// the write lock) either sees it and spares the worker, or has already
	// retired the worker and this Touch creates it afresh.
	s.wmu.RLock()
	if m := s.wm[worker]; m != nil {
		m.lastPush.Store(t.UnixNano())
		s.wmu.RUnlock()
		return
	}
	s.wmu.RUnlock()
	lockTimed(&s.wmu, &s.writeWait)
	m := s.wm[worker]
	if m == nil {
		m = &workerMeta{}
		s.wm[worker] = m
		s.wcount.Add(1)
	}
	m.lastPush.Store(t.UnixNano())
	s.wmu.Unlock()
}

func (s *Striped) Workers(stale func(time.Time) bool) []string {
	rlockTimed(&s.wmu, &s.readWait)
	ids := make([]string, 0, len(s.wm))
	for id, m := range s.wm {
		if stale == nil || !stale(metaTime(m.lastPush.Load())) {
			ids = append(ids, id)
		}
	}
	s.wmu.RUnlock()
	sort.Strings(ids)
	return ids
}

// purgeWorkers removes every stripe-resident group of the given workers,
// fixing refcounts. The caller holds the worker table's write lock from
// retiring the workers until the purge ends: a worker revived meanwhile
// re-enters the table (Touch) only after its old state is gone, so nothing
// it folds can be purged.
func (s *Striped) purgeWorkers(ids []string) {
	for i := range s.stripes {
		sp := &s.stripes[i]
		lockTimed(&sp.mu, &s.writeWait)
		for gk := range sp.groups {
			for _, id := range ids {
				if gk.worker == id {
					delete(sp.groups, gk)
					s.refs.decr(gk.base)
					break
				}
			}
		}
		sp.mu.Unlock()
	}
}

func (s *Striped) DropWorker(worker string) bool {
	lockTimed(&s.wmu, &s.writeWait)
	defer s.wmu.Unlock()
	if _, ok := s.wm[worker]; !ok {
		return false
	}
	delete(s.wm, worker)
	s.wcount.Add(-1)
	s.purgeWorkers([]string{worker})
	return true
}

func (s *Striped) SweepWorkers(stale func(time.Time) bool) int {
	if stale == nil {
		return 0
	}
	lockTimed(&s.wmu, &s.writeWait)
	defer s.wmu.Unlock()
	var dead []string
	for id, m := range s.wm {
		if stale(metaTime(m.lastPush.Load())) {
			dead = append(dead, id)
			delete(s.wm, id)
			s.wcount.Add(-1)
		}
	}
	if len(dead) > 0 {
		s.purgeWorkers(dead)
	}
	return len(dead)
}

func (s *Striped) WorkerCount() int { return int(s.wcount.Load()) }

func (s *Striped) KeyCount() int { return int(s.refs.distinct.Load()) }
