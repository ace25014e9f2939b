// Package loadgen is an OPEN-LOOP load-generation harness: operations
// arrive on a schedule drawn from a Poisson arrival process, not when the
// previous operation completes. Closed-loop drivers — every bench scenario
// before this package — self-throttle under overload: a slow system slows
// its own load, so "max throughput" measurements only say how fast the
// harness could spin. Open-loop generation keeps offering load at the
// configured rate regardless of completions, so overload shows up the way
// production sees it: queue growth, latency blow-up, and a widening gap
// between offered and completed rates.
//
// The harness measures operation latency from the operation's SCHEDULED
// arrival time, not its dispatch time, so any lag anywhere — in the
// generator, in a full work queue, in the system under test — lands in the
// latency distribution instead of silently shifting the schedule (the
// standard defense against coordinated omission).
//
// Ramp performs stepped client ramps in the style of SLA-driven cloud
// benchmarks: run each rate for a fixed step, gate the step on a p99
// latency SLA plus an offered-vs-completed divergence bound, and report
// the highest sustainable rate.
package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Exp is a Poisson arrival process: exponentially distributed interarrival
// gaps with the given mean rate. Deterministic for a seed.
type Exp struct {
	rng  *rand.Rand
	mean float64 // seconds between arrivals
}

// NewExp returns a Poisson process offering rate operations per second.
func NewExp(seed int64, rate float64) *Exp {
	return &Exp{rng: rand.New(rand.NewSource(seed)), mean: 1 / rate}
}

// Next draws one exponential gap (floored at 1µs so a pathological draw
// cannot produce a zero-length busy loop).
func (e *Exp) Next() time.Duration {
	d := time.Duration(e.rng.ExpFloat64() * e.mean * float64(time.Second))
	if d < time.Microsecond {
		d = time.Microsecond
	}
	return d
}

// Op is one operation kind in a percentage-mix workload.
type Op int

const (
	OpPush Op = iota
	OpQuery
	OpExport
	OpEvict
	numOps
)

// String names the op.
func (op Op) String() string {
	switch op {
	case OpPush:
		return "push"
	case OpQuery:
		return "query"
	case OpExport:
		return "export"
	case OpEvict:
		return "evict"
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// Mix is a percentage operation mix; the fields must sum to 100.
type Mix struct {
	Push, Query, Export, Evict int
}

// Validate checks the percentages.
func (m Mix) Validate() error {
	for _, p := range [...]int{m.Push, m.Query, m.Export, m.Evict} {
		if p < 0 {
			return fmt.Errorf("loadgen: negative mix percentage %d", p)
		}
	}
	if sum := m.Push + m.Query + m.Export + m.Evict; sum != 100 {
		return fmt.Errorf("loadgen: mix percentages sum to %d, want 100", sum)
	}
	return nil
}

// String formats the mix ("push:90 query:6 export:2 evict:2").
func (m Mix) String() string {
	return fmt.Sprintf("push:%d query:%d export:%d evict:%d", m.Push, m.Query, m.Export, m.Evict)
}

// deck deals the mix into a shuffled 100-operation deck; cycling the deck
// reproduces the percentages exactly over every 100 consecutive ops while
// a seeded shuffle decorrelates op kind from arrival order.
func (m Mix) deck(seed int64) ([]Op, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	ops := make([]Op, 0, 100)
	for op, n := range map[Op]int{OpPush: m.Push, OpQuery: m.Query, OpExport: m.Export, OpEvict: m.Evict} {
		for i := 0; i < n; i++ {
			ops = append(ops, op)
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] }) // map order is random; fix before shuffling
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops, nil
}

// Target executes one operation of the system under test. Do is called
// from many goroutines concurrently; blocking inside Do is how a system
// exerts backpressure on the harness, and that wait is charged to the
// operation's latency.
type Target interface {
	Do(op Op) error
}

// TargetFunc adapts a function to Target.
type TargetFunc func(op Op) error

// Do implements Target.
func (f TargetFunc) Do(op Op) error { return f(op) }

// Config parameterizes one fixed-rate open-loop run.
type Config struct {
	// Rate is the offered load in operations per second.
	Rate float64
	// Duration is how long arrivals are generated for.
	Duration time.Duration
	// Mix is the operation mix. The zero Mix means 100% OpPush.
	Mix Mix
	// Seed feeds the Poisson arrival process and the mix deck shuffle.
	Seed int64
	// MaxInFlight caps concurrently executing operations. Arrivals beyond
	// the cap still fire on schedule and WAIT for a slot — the wait is
	// charged to their latency, keeping the loop open. Default 512.
	MaxInFlight int
	// Grace bounds how long after the last arrival the run waits for
	// in-flight operations before declaring them abandoned. Default 1s.
	Grace time.Duration
}

// Result reports one open-loop run.
type Result struct {
	// Rate is the configured offered rate (ops/s).
	Rate float64 `json:"offered_rps"`
	// Offered counts operations the arrival process dispatched.
	Offered int `json:"offered"`
	// Completed counts operations that finished without error.
	Completed int `json:"completed"`
	// Errors counts operations whose Do returned an error.
	Errors int `json:"errors"`
	// Abandoned counts operations still running when the grace deadline
	// expired — work the system under test never absorbed in time.
	Abandoned int `json:"abandoned"`
	// Elapsed is the wall time from first scheduled arrival to the end of
	// the completion wait.
	Elapsed time.Duration `json:"elapsed_ns"`
	// CompletedRate is Completed over the arrival span (ops/s) — the
	// accepted rate an overload detector compares against Rate.
	CompletedRate float64 `json:"accepted_rps"`
	// P50, P90, P99 and Max describe completed-operation latency measured
	// from the SCHEDULED arrival (queueing anywhere is included).
	P50 time.Duration `json:"p50_ns"`
	P90 time.Duration `json:"p90_ns"`
	P99 time.Duration `json:"p99_ns"`
	Max time.Duration `json:"max_ns"`
	// SchedLagMax is the worst lateness of a dispatch against its
	// schedule; a large value means the GENERATOR could not keep the
	// offered rate (the measurement, not the target, saturated).
	SchedLagMax time.Duration `json:"sched_lag_max_ns"`
}

// Overloaded reports whether the run diverged: successful completions fell
// more than divergence (a fraction, e.g. 0.05) below the offered count, or
// operations were abandoned outright. Errored operations count as NOT
// absorbed — a target that sheds load by failing requests (a PushContext
// deadline, a refused connection) is diverging, not keeping up.
func (r Result) Overloaded(divergence float64) bool {
	if r.Abandoned > 0 {
		return true
	}
	if r.Offered == 0 {
		return false
	}
	return float64(r.Completed) < (1-divergence)*float64(r.Offered)
}

// Run drives one open-loop run against t. It returns when every dispatched
// operation has completed or the grace period has expired; ctx cancels the
// arrival schedule early (already-dispatched operations still drain).
func Run(ctx context.Context, cfg Config, t Target) (Result, error) {
	if cfg.Rate <= 0 {
		return Result{}, fmt.Errorf("loadgen: rate %v must be positive", cfg.Rate)
	}
	if cfg.Duration <= 0 {
		return Result{}, fmt.Errorf("loadgen: duration %v must be positive", cfg.Duration)
	}
	mix := cfg.Mix
	if mix == (Mix{}) {
		mix = Mix{Push: 100}
	}
	deck, err := mix.deck(cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	arr := NewExp(cfg.Seed, cfg.Rate)
	inflight := cfg.MaxInFlight
	if inflight <= 0 {
		inflight = 512
	}
	grace := cfg.Grace
	if grace <= 0 {
		grace = time.Second
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		errs      int
		wg        sync.WaitGroup
		sem       = make(chan struct{}, inflight)
	)
	res := Result{Rate: cfg.Rate}
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	next := start
	for i := 0; ; i++ {
		next = next.Add(arr.Next())
		if next.After(deadline) {
			break
		}
		if err := sleepUntil(ctx, next); err != nil {
			break // ctx cancelled: stop offering, drain what's out
		}
		if lag := time.Since(next); lag > res.SchedLagMax {
			res.SchedLagMax = lag
		}
		res.Offered++
		op := deck[i%len(deck)]
		sched := next
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The slot wait is inside the goroutine, after the scheduled
			// arrival: dispatch never self-throttles, and time queued for a
			// slot is part of the operation's latency.
			sem <- struct{}{}
			err := t.Do(op)
			<-sem
			lat := time.Since(sched)
			mu.Lock()
			if err != nil {
				errs++
			} else {
				latencies = append(latencies, lat)
			}
			mu.Unlock()
		}()
	}
	arrivalSpan := time.Since(start)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(grace):
	}
	res.Elapsed = time.Since(start)

	mu.Lock()
	defer mu.Unlock()
	res.Completed = len(latencies)
	res.Errors = errs
	res.Abandoned = res.Offered - res.Completed - res.Errors
	if arrivalSpan > 0 {
		res.CompletedRate = float64(res.Completed) / arrivalSpan.Seconds()
	}
	res.P50, res.P90, res.P99, res.Max = percentiles(latencies)
	return res, nil
}

// sleepUntil sleeps to the scheduled instant (no-op if already past),
// aborting on ctx cancellation.
func sleepUntil(ctx context.Context, at time.Time) error {
	d := time.Until(at)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// percentiles sorts lats in place and reads p50/p90/p99/max (zeros for an
// empty sample).
func percentiles(lats []time.Duration) (p50, p90, p99, max time.Duration) {
	if len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	at := func(phi float64) time.Duration {
		i := int(phi*float64(len(lats))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return lats[i]
	}
	return at(0.50), at(0.90), at(0.99), lats[len(lats)-1]
}
