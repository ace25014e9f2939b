package stream

import (
	"fmt"
	"time"
)

// TimedPolicy is the slice of the Policy contract a TIME-driven front end
// needs beyond count-based ingestion: force-sealing the in-flight
// sub-window at wall-clock period boundaries (regardless of how many
// elements it holds), plus the two state clocks the timed window ring and
// delta exports key off. Only the QLOVE operator implements it —
// count-based baselines have no notion of a partially filled sub-window
// being "done".
type TimedPolicy interface {
	Policy
	// EndPeriod force-seals the in-flight sub-window; an empty one is
	// skipped (no summary, no SealGen advance).
	EndPeriod()
	// SubWindowCount returns the number of resident sub-window summaries.
	SubWindowCount() int
	// SealGen returns the monotonic seal-generation clock: how many
	// summaries have been sealed since construction (or the last reset).
	SealGen() uint64
}

// TimedPusher drives a TimedPolicy through the time-defined window
// protocol — the paper's §2 example query shape "evaluate every one minute
// (window period) for the elements seen last one hour (window size)".
// Sub-windows are period-aligned wall-clock intervals whose populations
// vary with traffic; QLOVE's Level-2 estimator handles the variable
// sub-window sizes unchanged (the Appendix A argument does not require
// equal m).
//
// It is the timed analogue of Pusher: the one per-stream state machine of
// timed windows. The public qlove.TimedMonitor is this type (one anonymous
// stream), and an Engine shard runs one for every timed key. Callers feed
// timestamped elements (or batches) and wall-clock ticks; every boundary
// crossing seals the in-flight sub-window, expires the sub-windows that
// left the window, and — once a full window has elapsed — produces a
// Result.
//
// Timestamps must be non-decreasing across Push/PushBatch/Flush calls.
//
// The seal ring counts SUMMARIES per timed period, not a produced flag: a
// timed period whose traffic exceeds the policy's count Spec.Period seals
// more than one summary (the operator's count-based auto-seal fires
// mid-period), and expiry must later drop exactly that many, or the
// overflow summaries would stay resident forever and the window would
// silently grow.
type TimedPusher struct {
	policy TimedPolicy
	size   time.Duration
	period time.Duration

	started bool
	// boundary is the end of the current in-flight timed sub-window.
	boundary time.Time
	// sealed counts closed timed periods; the window spans size/period of
	// them.
	sealed int
	// counts is a ring over the last size/period timed periods recording
	// how many summaries each sealed (0 for an empty period, >1 when the
	// count-based auto-seal fired mid-period), so time-based expiry drops
	// exactly the summaries that left the window.
	counts []int
	// lastGen is the policy's SealGen at the most recent boundary; the
	// difference at the next boundary is that period's summary count.
	lastGen uint64
	evals   int
}

// NewTimedPusher wraps a policy for time-driven use. size must be a
// positive multiple of period, and the policy must support time-driven
// sealing (implement TimedPolicy — QLOVE does; count-based baselines do
// not).
func NewTimedPusher(p Policy, size, period time.Duration) (*TimedPusher, error) {
	if p == nil {
		return nil, fmt.Errorf("stream: nil policy")
	}
	tp, ok := p.(TimedPolicy)
	if !ok {
		return nil, fmt.Errorf("stream: policy %q does not support time-driven sealing", p.Name())
	}
	if period <= 0 || size < period || size%period != 0 {
		return nil, fmt.Errorf("stream: timed window %v must be a positive multiple of period %v", size, period)
	}
	return &TimedPusher{
		policy:  tp,
		size:    size,
		period:  period,
		counts:  make([]int, int(size/period)),
		lastGen: tp.SealGen(),
	}, nil
}

// start aligns the first boundary to the period grid at the first event.
func (k *TimedPusher) start(t time.Time) {
	if !k.started {
		k.started = true
		k.boundary = t.Truncate(k.period).Add(k.period)
	}
}

// Push feeds one timestamped element. When t crosses one or more period
// boundaries, the in-flight sub-window is sealed, expired sub-windows are
// dropped, and — once a full window has elapsed — the evaluation of the
// most recent crossing is returned. Only that one is returned: when t
// crosses several boundaries, a caller that wants every evaluation calls
// Flush(t, emit) first.
func (k *TimedPusher) Push(v float64, t time.Time) (Result, bool) {
	k.start(t)
	ev, ready := k.advanceTo(t, nil)
	k.policy.Observe(v)
	return ev, ready
}

// PushBatch feeds a run of elements sharing one arrival timestamp — the
// natural shape of real telemetry, where a source reports a chunk of
// measurements at once. It is observationally identical to calling
// Push(v, t) for each element with the same t (boundary crossings are
// processed once, before any element, exactly as repeated Pushes would),
// but delivers the run through the policy's amortized ObserveBatch path.
// Every evaluation produced by the crossings is handed to emit (nil emit
// discards all but the returned last one); an empty batch degenerates to
// Flush(t, emit).
func (k *TimedPusher) PushBatch(t time.Time, vs []float64, emit func(Result)) (Result, bool) {
	if len(vs) == 0 {
		return k.Flush(t, emit)
	}
	k.start(t)
	ev, ready := k.advanceTo(t, emit)
	k.policy.ObserveBatch(vs)
	return ev, ready
}

// Flush advances wall-clock time without an element (e.g. from a ticker),
// sealing, expiring and evaluating as needed. Every evaluation produced is
// handed to emit; the most recent one is also returned. Before the first
// element, Flush is a no-op (there is no period grid to align to yet).
func (k *TimedPusher) Flush(t time.Time, emit func(Result)) (Result, bool) {
	if !k.started {
		return Result{}, false
	}
	return k.advanceTo(t, emit)
}

// advanceTo processes every period boundary at or before t: expire the
// summaries of the period sliding out of the window, seal the in-flight
// one, and evaluate once a full window has been seen.
func (k *TimedPusher) advanceTo(t time.Time, emit func(Result)) (Result, bool) {
	var last Result
	ready := false
	sw := len(k.counts)
	for !t.Before(k.boundary) {
		// The ring slot for this period currently holds the seal count of
		// the period that just slid out of the window; expire its summaries
		// before sealing the new one.
		slot := k.sealed % sw
		if k.sealed >= sw {
			for i := 0; i < k.counts[slot]; i++ {
				k.policy.Expire(nil)
			}
		}
		k.policy.EndPeriod() // no-op for an empty period
		g := k.policy.SealGen()
		k.counts[slot] = int(g - k.lastGen)
		k.lastGen = g
		k.sealed++
		if k.sealed >= sw && k.policy.SubWindowCount() > 0 {
			ev := Result{Evaluation: k.evals, Estimates: k.policy.Result()}
			k.evals++
			last, ready = ev, true
			if emit != nil {
				emit(ev)
			}
		}
		k.boundary = k.boundary.Add(k.period)
	}
	return last, ready
}

// SubWindows returns how many timed sub-windows one window spans.
func (k *TimedPusher) SubWindows() int { return len(k.counts) }

// Evaluations returns the number of results produced so far.
func (k *TimedPusher) Evaluations() int { return k.evals }

// Policy returns the wrapped policy (e.g. to snapshot it or recycle it
// through a pool).
func (k *TimedPusher) Policy() Policy { return k.policy }

// Size returns the timed window span.
func (k *TimedPusher) Size() time.Duration { return k.size }

// Period returns the timed evaluation period.
func (k *TimedPusher) Period() time.Duration { return k.period }
