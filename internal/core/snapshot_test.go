package core

import (
	"math"
	"testing"

	"repro/internal/race"
	"repro/internal/window"
	"repro/internal/workload"
)

// TestSnapshotEstimatesMatchResult: a single-stream capture answers
// bit-for-bit what the live operator answers at the same instant, in every
// few-k mode.
func TestSnapshotEstimatesMatchResult(t *testing.T) {
	spec := window.Spec{Size: 4000, Period: 500}
	phis := []float64{0.5, 0.9, 0.99, 0.999}
	cases := map[string]Config{
		"plain":     {Spec: spec, Phis: phis},
		"fewk":      {Spec: spec, Phis: phis, FewK: true},
		"topk-only": {Spec: spec, Phis: phis, FewK: true, TopKOnly: true},
		"samplek":   {Spec: spec, Phis: phis, FewK: true, SampleKOnly: true},
		"no-quant":  {Spec: spec, Phis: phis, FewK: true, Digits: -1},
		"full-fewk": {Spec: spec, Phis: phis, FewK: true, Fraction: 1},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			p := mustNew(t, cfg)
			gen := workload.NewNetMon(21)
			data := workload.Generate(gen, 3*spec.Size+spec.Period/2)
			pos := 0
			for i := 0; i < spec.Evaluations(len(data)); i++ {
				_, hi := spec.EvalBounds(i)
				if i > 0 {
					p.Expire(nil)
				}
				p.ObserveBatch(data[pos:hi])
				pos = hi
			}
			// Mid-period in-flight state on top, so the capture covers a
			// non-boundary instant too (in-flight elements are NOT part of
			// a capture, matching Result which also reads sealed state).
			p.ObserveBatch(data[pos:])

			snap := p.Snapshot()
			if snap.Streams() != 1 || snap.IsZero() {
				t.Fatalf("capture shape: streams=%d zero=%v", snap.Streams(), snap.IsZero())
			}
			want := p.Result()
			got := snap.Estimates()
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("ϕ=%v: snapshot %v != result %v", cfg.Phis[j], got[j], want[j])
				}
			}
			if snap.SubWindows() != p.SubWindowCount() {
				t.Fatalf("sub-windows %d != %d", snap.SubWindows(), p.SubWindowCount())
			}
		})
	}
}

// TestSnapshotImmuneToLaterIngest: a capture must not change when the
// operator keeps ingesting, sealing and expiring afterwards.
func TestSnapshotImmuneToLaterIngest(t *testing.T) {
	spec := window.Spec{Size: 2000, Period: 500}
	cfg := Config{Spec: spec, Phis: []float64{0.5, 0.999}, FewK: true}
	p := mustNew(t, cfg)
	gen := workload.NewNetMon(4)
	p.ObserveBatch(workload.Generate(gen, spec.Size))
	snap := p.Snapshot()
	before := snap.Estimates()
	elems := snap.Elements()
	// Churn the operator well past a full window so every captured summary
	// has been expired and its slot reused.
	for i := 0; i < 3*spec.SubWindows(); i++ {
		p.Expire(nil)
		p.ObserveBatch(workload.Generate(gen, spec.Period))
	}
	after := snap.Estimates()
	for j := range before {
		if math.Float64bits(after[j]) != math.Float64bits(before[j]) {
			t.Fatalf("capture mutated: %v -> %v", before, after)
		}
	}
	if snap.Elements() != elems {
		t.Fatalf("elements mutated: %d -> %d", elems, snap.Elements())
	}
}

func TestSnapshotMergeIdentityAndMismatch(t *testing.T) {
	spec := window.Spec{Size: 100, Period: 10}
	a := mustNew(t, Config{Spec: spec, Phis: []float64{0.5}})
	a.ObserveBatch(workload.Generate(workload.NewUniform(1, 0, 1), spec.Size))
	sa := a.Snapshot()

	// Zero snapshot is the identity on both sides.
	m, err := (Snapshot{}).Merge(sa)
	if err != nil || m.Streams() != 1 {
		t.Fatalf("left identity: %v %d", err, m.Streams())
	}
	m, err = sa.Merge(Snapshot{})
	if err != nil || m.Streams() != 1 {
		t.Fatalf("right identity: %v %d", err, m.Streams())
	}
	if got := m.Estimates(); math.Float64bits(got[0]) != math.Float64bits(sa.Estimates()[0]) {
		t.Fatal("identity merge changed estimates")
	}

	b := mustNew(t, Config{Spec: spec, Phis: []float64{0.9}})
	if _, err := sa.Merge(b.Snapshot()); err == nil {
		t.Fatal("mismatched configs merged")
	}
	if _, err := MergeSnapshots([]Snapshot{sa, b.Snapshot()}); err == nil {
		t.Fatal("MergeSnapshots accepted mismatch")
	}

	// Merge demands FULL config equality: fields outside the merge shape
	// (quantization digits, sample-only mode) change what Estimates
	// computes, so mixing them must fail rather than answer fold-order-
	// dependent numbers.
	c := mustNew(t, Config{Spec: spec, Phis: []float64{0.5}, Digits: -1})
	if _, err := sa.Merge(c.Snapshot()); err == nil {
		t.Fatal("different Digits merged")
	}
	d := mustNew(t, Config{Spec: spec, Phis: []float64{0.5}, SampleKOnly: true, FewK: true})
	e := mustNew(t, Config{Spec: spec, Phis: []float64{0.5}, FewK: true})
	if _, err := d.Snapshot().Merge(e.Snapshot()); err == nil {
		t.Fatal("SampleKOnly mixed with default mode merged")
	}
}

// TestSnapshotEstimatesAllocs: reading a capture allocates the slice it
// returns and nothing else — the merge scratch comes from scratchPool, the
// merge inputs are views of the captured blocks.
func TestSnapshotEstimatesAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	spec := window.Spec{Size: 512, Period: 128}
	p := mustNew(t, Config{Spec: spec, Phis: []float64{0.5, 0.9, 0.99, 0.999}, FewK: true})
	p.ObserveBatch(workload.Generate(workload.NewNetMon(3), 2*spec.Size))
	other := mustNew(t, p.Config())
	other.ObserveBatch(workload.Generate(workload.NewNetMon(4), 2*spec.Size))
	merged, err := p.Snapshot().Merge(other.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for name, sn := range map[string]Snapshot{"single": p.Snapshot(), "merged": merged} {
		if allocs := testing.AllocsPerRun(100, func() { _ = sn.Estimates() }); allocs > 1 {
			t.Errorf("%s capture: Estimates allocates %v times, want <= 1", name, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { _, _ = sn.Estimate(0.999) }); allocs > 0 {
			t.Errorf("%s capture: Estimate allocates %v times, want 0", name, allocs)
		}
	}
}
