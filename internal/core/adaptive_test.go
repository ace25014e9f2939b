package core

import (
	"testing"

	"repro/internal/stream"
	"repro/internal/window"
	"repro/internal/workload"
)

func TestAdaptiveGrowsUnderBurst(t *testing.T) {
	spec := window.Spec{Size: 16000, Period: 2000}
	base := workload.Generate(workload.NewNetMon(3), 64000)
	data := workload.InjectBursts(base, spec.Size, spec.Period, 0.999, 10)
	p := mustNew(t, Config{
		Spec: spec, Phis: []float64{0.999},
		FewK: true, Fraction: 0.1, Adaptive: true,
	})
	if len(p.adapt) != 1 || p.adapt[0].fraction != 0.1 {
		t.Fatalf("initial controllers = %+v", p.adapt)
	}
	// Drive manually to observe the controller between evaluations: the
	// fraction grows under distress and may decay once the budget becomes
	// sufficient, so the peak is the signal.
	maxFr := 0.0
	pos := 0
	n := spec.Evaluations(len(data))
	for i := 0; i < n; i++ {
		lo, hi := spec.EvalBounds(i)
		if i > 0 {
			p.Expire(data[lo-spec.Period : lo])
		}
		for ; pos < hi; pos++ {
			p.Observe(data[pos])
		}
		p.Result()
		if fr := p.adapt[0].fraction; fr > maxFr {
			maxFr = fr
		}
	}
	if maxFr <= 0.1 {
		t.Fatalf("fraction never grew under bursty traffic: %v", maxFr)
	}
}

func TestAdaptiveDecaysWhenCalm(t *testing.T) {
	spec := window.Spec{Size: 16000, Period: 2000}
	data := workload.Generate(workload.NewUniform(4, 90, 110), 64000)
	p := mustNew(t, Config{
		Spec: spec, Phis: []float64{0.999},
		FewK: true, Fraction: 0.3, Adaptive: true,
	})
	// Force the controller above its floor, then feed calm traffic.
	p.adapt[0].fraction = 1.0
	if _, _, err := stream.Run(p, spec, data); err != nil {
		t.Fatal(err)
	}
	fr := p.adapt[0].fraction
	if fr >= 1.0 {
		t.Fatalf("fraction did not decay on calm traffic: %v", fr)
	}
	if fr < 0.3 {
		t.Fatalf("fraction decayed below its floor: %v", fr)
	}
}

func TestAdaptiveOffByDefault(t *testing.T) {
	p := mustNew(t, Config{
		Spec: window.Spec{Size: 100, Period: 10},
		Phis: []float64{0.999}, FewK: true,
	})
	if p.adapt != nil {
		t.Fatal("controller active without Adaptive")
	}
}

func TestAdaptiveBudgetsReplanned(t *testing.T) {
	spec := window.Spec{Size: 16000, Period: 2000}
	p := mustNew(t, Config{
		Spec: spec, Phis: []float64{0.999},
		FewK: true, Fraction: 0.1, Adaptive: true,
	})
	k0 := p.budgets[0].K
	p.observeDistress(0, true)
	if p.budgets[0].K <= k0 {
		t.Fatalf("budget K did not grow: %d -> %d", k0, p.budgets[0].K)
	}
	// Decay back to the floor restores the original plan.
	for i := 0; i < 100; i++ {
		p.observeDistress(0, false)
	}
	if p.budgets[0].K != k0 {
		t.Fatalf("budget K did not return to floor plan: %d vs %d", p.budgets[0].K, k0)
	}
}

func TestEndPeriodPartialSubWindow(t *testing.T) {
	// Time-driven sealing: a partial sub-window still yields a summary
	// and contributes to Level 2.
	spec := window.Spec{Size: 40, Period: 10}
	p := mustNew(t, Config{Spec: spec, Phis: []float64{0.5}, Digits: -1})
	for i := 0; i < 5; i++ {
		p.Observe(float64(i + 1)) // 1..5, median 3
	}
	p.EndPeriod()
	if p.SubWindowCount() != 1 {
		t.Fatalf("summaries = %d, want 1", p.SubWindowCount())
	}
	if got := p.Result()[0]; got != 3 {
		t.Fatalf("partial sub-window median = %v, want 3", got)
	}
	// Empty EndPeriod is a no-op.
	p.EndPeriod()
	if p.SubWindowCount() != 1 {
		t.Fatal("empty EndPeriod produced a summary")
	}
}
