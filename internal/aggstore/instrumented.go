package aggstore

import (
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Store ops, in the order Metrics reports them.
const (
	opDrop = iota
	opApplyFrame
	opGroup
	opWorkerNames
	opNamesMatching
	opTouch
	opWorkers
	opDropWorker
	opSweepWorkers
	opCount
)

var opNames = [opCount]string{
	"drop", "apply_frame", "group", "worker_names", "names_matching", "touch", "workers",
	"drop_worker", "sweep_workers",
}

// Instrumented wraps any Store, recording per-op call counts and
// cumulative latency in atomics; the inner backend's lock-wait counters
// (when it exposes them) ride along in Metrics. The pure-atomic counter
// reads (WorkerCount/KeyCount) pass through unrecorded — timing them
// would cost more than the ops themselves.
type Instrumented struct {
	inner Store
	ops   [opCount]opRec
}

type opRec struct {
	count atomic.Int64
	nanos atomic.Int64
}

// NewInstrumented wraps inner with op recording.
func NewInstrumented(inner Store) *Instrumented {
	return &Instrumented{inner: inner}
}

// Inner returns the wrapped backend.
func (in *Instrumented) Inner() Store { return in.inner }

func (in *Instrumented) Kind() string { return in.inner.Kind() + "+instrumented" }

func (in *Instrumented) record(op int, t0 time.Time) {
	in.ops[op].count.Add(1)
	in.ops[op].nanos.Add(int64(time.Since(t0)))
}

// Metrics snapshots the recorded counters.
func (in *Instrumented) Metrics() Metrics {
	m := Metrics{Backend: in.Kind(), Ops: make([]OpMetrics, 0, opCount)}
	for op := 0; op < opCount; op++ {
		c := in.ops[op].count.Load()
		if c == 0 {
			continue
		}
		m.Ops = append(m.Ops, OpMetrics{Op: opNames[op], Count: c, Nanos: in.ops[op].nanos.Load()})
	}
	m.LockWaitReadNanos, m.LockWaitWriteNanos = in.LockWaitNanos()
	return m
}

// LockWaitNanos forwards the inner backend's lock-wait counters (zeros
// when it does not track them).
func (in *Instrumented) LockWaitNanos() (read, write int64) {
	if lw, ok := in.inner.(LockWaiter); ok {
		return lw.LockWaitNanos()
	}
	return 0, 0
}

func (in *Instrumented) Drop(worker, name string) bool {
	defer in.record(opDrop, time.Now())
	return in.inner.Drop(worker, name)
}

// ApplyFrame forwards to the inner store and records one op, whatever
// mutations the fold makes inside it.
func (in *Instrumented) ApplyFrame(worker string, f wire.Frame, raw []byte) error {
	defer in.record(opApplyFrame, time.Now())
	return in.inner.ApplyFrame(worker, f, raw)
}

func (in *Instrumented) Group(worker, base string) []NamedState {
	defer in.record(opGroup, time.Now())
	return in.inner.Group(worker, base)
}

func (in *Instrumented) WorkerNames(worker string) []string {
	defer in.record(opWorkerNames, time.Now())
	return in.inner.WorkerNames(worker)
}

func (in *Instrumented) NamesMatching(worker string, match func(base string) bool) []NamedState {
	defer in.record(opNamesMatching, time.Now())
	return in.inner.NamesMatching(worker, match)
}

func (in *Instrumented) Touch(worker string, t time.Time) {
	defer in.record(opTouch, time.Now())
	in.inner.Touch(worker, t)
}

func (in *Instrumented) Workers(stale func(time.Time) bool) []string {
	defer in.record(opWorkers, time.Now())
	return in.inner.Workers(stale)
}

func (in *Instrumented) DropWorker(worker string) bool {
	defer in.record(opDropWorker, time.Now())
	return in.inner.DropWorker(worker)
}

func (in *Instrumented) SweepWorkers(stale func(time.Time) bool) int {
	defer in.record(opSweepWorkers, time.Now())
	return in.inner.SweepWorkers(stale)
}

func (in *Instrumented) WorkerCount() int { return in.inner.WorkerCount() }

func (in *Instrumented) KeyCount() int { return in.inner.KeyCount() }
