package loadgen

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestMixValidate(t *testing.T) {
	good := Mix{Push: 90, Query: 6, Export: 2, Evict: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Mix{
		{Push: 50},
		{Push: 101},
		{Push: 110, Query: -10},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("mix %+v validated", bad)
		}
	}
}

// TestMixDeck: the shuffled deck reproduces the percentages exactly and is
// deterministic for a seed.
func TestMixDeck(t *testing.T) {
	m := Mix{Push: 90, Query: 6, Export: 2, Evict: 2}
	deck, err := m.deck(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(deck) != 100 {
		t.Fatalf("deck of %d ops", len(deck))
	}
	counts := map[Op]int{}
	for _, op := range deck {
		counts[op]++
	}
	if counts[OpPush] != 90 || counts[OpQuery] != 6 || counts[OpExport] != 2 || counts[OpEvict] != 2 {
		t.Fatalf("deck proportions %v", counts)
	}
	again, _ := m.deck(7)
	for i := range deck {
		if deck[i] != again[i] {
			t.Fatal("deck not deterministic for a seed")
		}
	}
}

// TestExpMean: the Poisson process realizes the configured rate (sample
// mean within 10% over 50k draws; deterministic seed, so never flaky).
func TestExpMean(t *testing.T) {
	const rate = 1000.0
	arr := NewExp(42, rate)
	var sum time.Duration
	const n = 50_000
	for i := 0; i < n; i++ {
		sum += arr.Next()
	}
	mean := sum.Seconds() / n
	if want := 1 / rate; math.Abs(mean-want)/want > 0.10 {
		t.Fatalf("exp mean gap %.6fs, want ~%.6fs", mean, want)
	}
}

// TestRunFastTarget: a target that completes instantly absorbs the whole
// offered load — no divergence, no abandonment, full accounting.
func TestRunFastTarget(t *testing.T) {
	var ops atomic.Int64
	res, err := Run(context.Background(), Config{
		Rate:     2000,
		Duration: 150 * time.Millisecond,
		Mix:      Mix{Push: 90, Query: 10},
		Seed:     1,
	}, TargetFunc(func(Op) error { ops.Add(1); return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered == 0 {
		t.Fatal("no arrivals generated")
	}
	if res.Completed != res.Offered || res.Errors != 0 || res.Abandoned != 0 {
		t.Fatalf("completed %d errors %d abandoned %d of %d offered",
			res.Completed, res.Errors, res.Abandoned, res.Offered)
	}
	if int(ops.Load()) != res.Offered {
		t.Fatalf("target saw %d ops, %d offered", ops.Load(), res.Offered)
	}
	if res.Overloaded(0.05) {
		t.Fatalf("fast target flagged overloaded: %+v", res)
	}
	if res.P99 == 0 || res.Max < res.P99 || res.P50 > res.P99 {
		t.Fatalf("latency ordering broken: p50=%v p99=%v max=%v", res.P50, res.P99, res.Max)
	}
}

// slowTarget models a system with a hard capacity: one server, fixed
// service time — offered load far past 1/serviceTime must diverge.
type slowTarget struct {
	gate    chan struct{}
	service time.Duration
}

func newSlowTarget(service time.Duration) *slowTarget {
	return &slowTarget{gate: make(chan struct{}, 1), service: service}
}

func (s *slowTarget) Do(Op) error {
	s.gate <- struct{}{}
	time.Sleep(s.service)
	<-s.gate
	return nil
}

// TestRunOverloadDetection: offering ~20× a single-server target's
// capacity must register as overload (divergence or abandonment), and the
// open-loop latencies must show the queueing (p99 far above service time).
func TestRunOverloadDetection(t *testing.T) {
	tgt := newSlowTarget(2 * time.Millisecond) // capacity ~500/s
	res, err := Run(context.Background(), Config{
		Rate:        10_000,
		Duration:    200 * time.Millisecond,
		Seed:        2,
		MaxInFlight: 64,
		Grace:       100 * time.Millisecond,
	}, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Overloaded(0.05) {
		t.Fatalf("20x overload not detected: %+v", res)
	}
	if res.Completed >= res.Offered {
		t.Fatalf("completed %d of %d offered under 20x overload", res.Completed, res.Offered)
	}
}

// TestRampFindsCapacity: the stepped ramp brackets a known capacity — the
// low step sustains, the top step (far past capacity) does not, and the
// reported max sustainable rate sits strictly below the top.
func TestRampFindsCapacity(t *testing.T) {
	tgt := newSlowTarget(time.Millisecond) // capacity ~1000/s
	res, err := Ramp(context.Background(), RampConfig{
		Start:        100,
		Factor:       4,
		Max:          25_600,
		StepDuration: 150 * time.Millisecond,
		SLA:          80 * time.Millisecond,
		Divergence:   0.10,
		Seed:         3,
		MaxInFlight:  64,
		Grace:        100 * time.Millisecond,
	}, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("no steps measured")
	}
	if !res.Steps[0].Sustainable {
		t.Fatalf("10%% of capacity unsustainable: %+v", res.Steps[0])
	}
	last := res.Steps[len(res.Steps)-1]
	if last.Sustainable {
		t.Fatalf("ramp never found the capacity wall (last step %.0f/s sustainable)", last.Rate)
	}
	if res.MaxSustainable <= 0 || res.MaxSustainable >= last.Rate {
		t.Fatalf("max sustainable %.0f/s vs failing step %.0f/s", res.MaxSustainable, last.Rate)
	}
	if last.Reason == "" {
		t.Fatal("unsustainable step carries no reason")
	}
}

// TestRunContextCancel: cancelling mid-run stops offering promptly and
// still drains accounting consistently.
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Run(ctx, Config{Rate: 500, Duration: 10 * time.Second, Seed: 4},
		TargetFunc(func(Op) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancelled run kept offering")
	}
	if res.Completed+res.Errors+res.Abandoned != res.Offered {
		t.Fatalf("accounting leak: %+v", res)
	}
}

func TestRunValidation(t *testing.T) {
	tgt := TargetFunc(func(Op) error { return nil })
	if _, err := Run(context.Background(), Config{Rate: 0, Duration: time.Second}, tgt); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := Run(context.Background(), Config{Rate: 100}, tgt); err == nil {
		t.Fatal("zero duration accepted")
	}
	if _, err := Run(context.Background(), Config{Rate: 100, Duration: time.Second, Mix: Mix{Push: 50}}, tgt); err == nil {
		t.Fatal("short mix accepted")
	}
	if _, err := Ramp(context.Background(), RampConfig{Start: 0}, tgt); err == nil {
		t.Fatal("zero ramp start accepted")
	}
	if _, err := Ramp(context.Background(), RampConfig{Start: 10, Max: 5, Factor: 2, StepDuration: time.Second, SLA: time.Second}, tgt); err == nil {
		t.Fatal("max below start accepted")
	}
	if _, err := Ramp(context.Background(), RampConfig{Start: 10, Max: 20, Factor: 1, StepDuration: time.Second, SLA: time.Second}, tgt); err == nil {
		t.Fatal("non-growing ramp factor accepted")
	}
}
