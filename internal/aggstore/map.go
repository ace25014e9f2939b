package aggstore

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// Map is the single-lock store: every worker's state in one map behind one
// RWMutex, every operation fully serialized against every other. It is the
// disk store's in-memory map and, being the simplest correct layout, the
// reference the other backends are verified against. It keeps the per-base
// group index, so salted reads and group replacement are O(group), not
// O(resident keys).
type Map struct {
	mu      sync.RWMutex
	workers map[string]*mapWorker

	refs                refTable
	workerCount         atomic.Int64
	readWait, writeWait atomic.Int64
}

type mapWorker struct {
	groups   map[string]*group // logical key -> resident group
	lastPush time.Time
}

// NewMap returns an empty single-map store.
func NewMap() *Map {
	return &Map{workers: make(map[string]*mapWorker)}
}

func (m *Map) Kind() string { return "map" }

func (m *Map) lock()    { lockTimed(&m.mu, &m.writeWait) }
func (m *Map) rlock()   { rlockTimed(&m.mu, &m.readWait) }
func (m *Map) unlock()  { m.mu.Unlock() }
func (m *Map) runlock() { m.mu.RUnlock() }

// LockWaitNanos reports cumulative read-/write-lock wait time.
func (m *Map) LockWaitNanos() (read, write int64) {
	return m.readWait.Load(), m.writeWait.Load()
}

func (m *Map) get(worker, name string) (core.Snapshot, bool) {
	base, j, salted := wire.SplitName(name)
	m.rlock()
	defer m.runlock()
	w := m.workers[worker]
	if w == nil {
		return core.Snapshot{}, false
	}
	g := w.groups[base]
	if g == nil {
		return core.Snapshot{}, false
	}
	return g.get(salted, j)
}

// set performs a state-record mutation (recPut, recReplaceGroup or
// recBootstrapSub) on the exact internal name.
func (m *Map) set(worker string, mu mutation) {
	base, j, salted := wire.SplitName(mu.name)
	m.lock()
	w := m.worker(worker)
	g := w.groups[base]
	if g == nil {
		g = &group{}
		w.groups[base] = g
		m.refs.incr(base)
	}
	g.apply(mu.op, salted, j, mu.st)
	m.unlock()
}

func (m *Map) Drop(worker, name string) bool {
	base, j, salted := wire.SplitName(name)
	m.lock()
	dropped := false
	if w := m.workers[worker]; w != nil {
		if g := w.groups[base]; g != nil {
			dropped = g.drop(salted, j)
			if dropped && g.empty() {
				delete(w.groups, base)
				m.refs.decr(base)
			}
		}
	}
	m.unlock()
	return dropped
}

func (m *Map) ApplyFrame(worker string, f wire.Frame, _ []byte) error {
	return applyFrame(m, worker, f)
}

func (m *Map) Group(worker, base string) []NamedState {
	m.rlock()
	defer m.runlock()
	w := m.workers[worker]
	if w == nil {
		return nil
	}
	g := w.groups[base]
	if g == nil {
		return nil
	}
	return g.fold(base, nil)
}

func (m *Map) NamesMatching(worker string, match func(base string) bool) []NamedState {
	m.rlock()
	w := m.workers[worker]
	var out []NamedState
	if w != nil {
		for base, g := range w.groups {
			if match(base) {
				out = g.fold(base, out)
			}
		}
	}
	m.runlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// worker returns (creating if needed) the worker record; caller holds the
// write lock.
func (m *Map) worker(id string) *mapWorker {
	w := m.workers[id]
	if w == nil {
		w = &mapWorker{groups: make(map[string]*group)}
		m.workers[id] = w
		m.workerCount.Add(1)
	}
	return w
}

func (m *Map) Touch(worker string, t time.Time) {
	m.lock()
	m.worker(worker).lastPush = t
	m.unlock()
}

func (m *Map) Workers(stale func(time.Time) bool) []string {
	m.rlock()
	ids := make([]string, 0, len(m.workers))
	for id, w := range m.workers {
		if stale == nil || !stale(w.lastPush) {
			ids = append(ids, id)
		}
	}
	m.runlock()
	sort.Strings(ids)
	return ids
}

// dropWorkerLocked forgets w's state, fixing refcounts; caller holds the
// write lock.
func (m *Map) dropWorkerLocked(id string, w *mapWorker) {
	for base := range w.groups {
		m.refs.decr(base)
	}
	delete(m.workers, id)
	m.workerCount.Add(-1)
}

func (m *Map) DropWorker(worker string) bool {
	m.lock()
	defer m.unlock()
	w := m.workers[worker]
	if w == nil {
		return false
	}
	m.dropWorkerLocked(worker, w)
	return true
}

func (m *Map) SweepWorkers(stale func(time.Time) bool) int {
	if stale == nil {
		return 0
	}
	m.lock()
	defer m.unlock()
	dropped := 0
	for id, w := range m.workers {
		if stale(w.lastPush) {
			m.dropWorkerLocked(id, w)
			dropped++
		}
	}
	return dropped
}

func (m *Map) WorkerCount() int { return int(m.workerCount.Load()) }

func (m *Map) KeyCount() int { return int(m.refs.distinct.Load()) }
