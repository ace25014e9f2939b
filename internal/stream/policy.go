// Package stream is the streaming substrate under every operator: the
// Policy contract all evaluated algorithms implement, the runners that drive
// a policy over a recorded count window (Run, Feed), the push-based state
// machines live monitors wrap (Pusher for count windows, TimedPusher for
// wall-clock ones).
package stream

import (
	"time"

	"repro/internal/window"
)

// Policy is a sliding-window multi-quantile operator: the contract all six
// evaluated algorithms (QLOVE, Exact, CMQS, AM, Random, Moment) implement.
//
// The runner feeds elements in arrival order via Observe. At every period
// boundary once a full window has been seen, it calls Result, then — before
// the next period begins — Expire with the batch of elements that just left
// the window (one full period, oldest first). Operators that expire state
// at sub-window granularity (QLOVE, CMQS) may ignore the slice contents and
// simply drop their oldest summary; element-wise operators (Exact, AM,
// Random) deaccumulate each value.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Observe feeds one arriving element.
	Observe(v float64)
	// ObserveBatch feeds a run of arriving elements in order. It must be
	// observationally identical to calling Observe per element; it exists
	// so operators can amortize per-element costs (interface dispatch,
	// quantization setup, tree descents for repeated values) across the
	// batch. Implementations without a native batch path loop over
	// Observe.
	ObserveBatch(vs []float64)
	// Expire notifies that a full period of old elements left the window.
	Expire(old []float64)
	// Result returns the current quantile estimates, in the same order as
	// the ϕ values the policy was configured with.
	Result() []float64
	// SpaceUsage reports the number of resident state variables, the
	// paper's §5.1 space metric.
	SpaceUsage() int
}

// SummaryExpirer is an optional Policy extension for operators that expire
// state at sub-window (or coarser) granularity and never read the slice
// passed to Expire — QLOVE, CMQS, AM, Random and Moment all drop a whole
// summary per period. A Pusher detects the marker and skips the O(window)
// replay ring it would otherwise keep per stream, which is what makes
// monitoring hundreds of thousands of concurrent keys affordable: each key
// then costs only its operator state.
type SummaryExpirer interface {
	// ExpiresWholeSummaries reports that Expire ignores its argument.
	ExpiresWholeSummaries() bool
}

// expireNeedsValues reports whether p must be handed the actual expired
// elements (element-wise deaccumulators like Exact).
func expireNeedsValues(p Policy) bool {
	se, ok := p.(SummaryExpirer)
	return !ok || !se.ExpiresWholeSummaries()
}

// Evaluation is one query result produced by Run.
type Evaluation struct {
	Index     int       // 0-based evaluation number
	Estimates []float64 // one per configured ϕ
}

// RunStats aggregates runner-side measurements.
type RunStats struct {
	Elements    int           // elements fed
	Evaluations int           // results produced
	Elapsed     time.Duration // wall time spent inside the policy
	MaxSpace    int           // peak SpaceUsage observed at evaluation time
}

// ThroughputMevS returns the single-thread throughput in million elements
// per second, the paper's §5.1 throughput metric.
func (s RunStats) ThroughputMevS() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Elements) / s.Elapsed.Seconds() / 1e6
}

// Run drives a policy over data under the window spec, returning every
// evaluation and the runner stats. The runner owns the replay buffer for
// expiry (as the streaming engine does in Trill), so policies are charged
// only for their operator state. Elements are delivered through
// ObserveBatch one period at a time, so a policy's native batch path is on
// the measured ingestion path.
func Run(p Policy, spec window.Spec, data []float64) ([]Evaluation, RunStats, error) {
	if err := spec.Validate(); err != nil {
		return nil, RunStats{}, err
	}
	nEvals := spec.Evaluations(len(data))
	evals := make([]Evaluation, 0, nEvals)
	stats := RunStats{}
	start := time.Now()
	pos := 0
	for i := 0; i < nEvals; i++ {
		lo, hi := spec.EvalBounds(i)
		if i > 0 {
			p.Expire(data[lo-spec.Period : lo])
		}
		// Sample space mid-period as well: sub-window operators have an
		// empty in-flight state exactly at period boundaries, so sampling
		// only after Result would miss their real footprint.
		if mid := hi - spec.Period/2; mid < hi {
			p.ObserveBatch(data[pos : mid+1])
			pos = mid + 1
			if sp := p.SpaceUsage(); sp > stats.MaxSpace {
				stats.MaxSpace = sp
			}
		}
		p.ObserveBatch(data[pos:hi])
		pos = hi
		est := p.Result()
		evals = append(evals, Evaluation{Index: i, Estimates: est})
		if sp := p.SpaceUsage(); sp > stats.MaxSpace {
			stats.MaxSpace = sp
		}
	}
	stats.Elapsed = time.Since(start)
	stats.Elements = pos
	stats.Evaluations = len(evals)
	return evals, stats, nil
}

// Feed pushes all data through the policy under spec without recording
// evaluations; it is the measurement loop used by throughput benchmarks
// (results are still computed every period, as a real monitoring query
// would). Like Run, it delivers one period per ObserveBatch call.
func Feed(p Policy, spec window.Spec, data []float64) (RunStats, error) {
	if err := spec.Validate(); err != nil {
		return RunStats{}, err
	}
	nEvals := spec.Evaluations(len(data))
	start := time.Now()
	pos := 0
	for i := 0; i < nEvals; i++ {
		lo, hi := spec.EvalBounds(i)
		if i > 0 {
			p.Expire(data[lo-spec.Period : lo])
		}
		p.ObserveBatch(data[pos:hi])
		pos = hi
		_ = p.Result()
	}
	return RunStats{
		Elements:    pos,
		Evaluations: nEvals,
		Elapsed:     time.Since(start),
	}, nil
}
