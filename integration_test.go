package qlove

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

// Cross-module integration tests: the public API driven end-to-end over
// the paper's workloads, checking the invariants a monitoring deployment
// relies on.

func TestIntegrationAllPoliciesMonotoneEstimates(t *testing.T) {
	// Quantile estimates must be non-decreasing in ϕ for every policy on
	// every workload.
	spec := Window{Size: 8000, Period: 1000}
	phis := []float64{0.5, 0.9, 0.99, 0.999}
	gens := map[string]workload.Generator{
		"netmon":  workload.NewNetMon(1),
		"search":  workload.NewSearch(1),
		"uniform": workload.NewUniform(1, 90, 110),
		"pareto":  workload.NewPaperPareto(1),
	}
	for gname, gen := range gens {
		data := workload.Generate(gen, 24000)
		for _, pname := range []string{"qlove", "qlove-fewk", "exact", "cmqs", "am", "random", "moment", "gk"} {
			p, err := NewPolicy(pname, spec, phis)
			if err != nil {
				t.Fatal(err)
			}
			evals, _, err := Run(p, spec, data)
			if err != nil {
				t.Fatalf("%s/%s: %v", pname, gname, err)
			}
			for _, e := range evals {
				for j := 1; j < len(phis); j++ {
					if e.Estimates[j] < e.Estimates[j-1]-1e-9 {
						t.Fatalf("%s/%s eval %d: non-monotone %v", pname, gname, e.Evaluation, e.Estimates)
					}
				}
			}
		}
	}
}

func TestIntegrationEstimatesWithinDataRange(t *testing.T) {
	// No policy may produce estimates outside [min, max] of its window's
	// data (Moment clamps; merges select retained values).
	spec := Window{Size: 4000, Period: 1000}
	phis := []float64{0.5, 0.999}
	data := workload.Generate(workload.NewNetMon(2), 16000)
	var lo, hi float64 = math.Inf(1), math.Inf(-1)
	for _, v := range data {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	for _, pname := range []string{"qlove", "qlove-fewk", "exact", "cmqs", "am", "random", "moment", "gk"} {
		p, err := NewPolicy(pname, spec, phis)
		if err != nil {
			t.Fatal(err)
		}
		evals, _, err := Run(p, spec, data)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evals {
			for j, est := range e.Estimates {
				// Allow 1% slack for QLOVE's quantization rounding.
				if est < lo*0.99 || est > hi*1.01 {
					t.Fatalf("%s eval %d phi %v: estimate %v outside [%v, %v]",
						pname, e.Evaluation, phis[j], est, lo, hi)
				}
			}
		}
	}
}

func TestIntegrationNaNValuesIgnored(t *testing.T) {
	spec := Window{Size: 100, Period: 10}
	for _, pname := range []string{"qlove", "exact"} {
		p, err := NewPolicy(pname, spec, []float64{0.5})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if i%5 == 0 {
				p.Observe(math.NaN())
			}
			p.Observe(100)
		}
		if got := p.Result()[0]; got != 100 {
			t.Fatalf("%s: median with NaN noise = %v, want 100", pname, got)
		}
	}
}

func TestIntegrationQLOVEBeatsRankSketchesOnTail(t *testing.T) {
	// The paper's headline comparison, end-to-end: on heavy-tailed data,
	// QLOVE's Q0.999 value error must be far below CMQS's and AM's.
	spec := Window{Size: 32000, Period: 4000}
	phis := []float64{0.999}
	data := workload.Generate(workload.NewNetMon(3), 128000)
	errOf := func(name string) float64 {
		p, err := NewPolicy(name, spec, phis)
		if err != nil {
			t.Fatal(err)
		}
		evals, _, err := Run(p, spec, data)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		var n int
		_ = spec.Iter(data, func(idx int, w []float64) {
			want := ExactQuantiles(w, phis)[0]
			sum += math.Abs(evals[idx].Estimates[0]-want) / want
			n++
		})
		return sum / float64(n)
	}
	qlove := errOf("qlove-fewk")
	cmqs := errOf("cmqs")
	am := errOf("am")
	if qlove*2 >= cmqs || qlove*2 >= am {
		t.Fatalf("QLOVE %.3f not clearly below CMQS %.3f / AM %.3f", qlove, cmqs, am)
	}
}

// Property: for any data, QLOVE's tumbling-window result equals the exact
// quantile of the window up to quantization error.
func TestQuickTumblingMatchesExact(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 16 {
			return true
		}
		n := len(raw) - len(raw)%16
		data := make([]float64, n)
		for i := 0; i < n; i++ {
			data[i] = float64(raw[i]) + 1
		}
		spec := Window{Size: n, Period: n}
		q, err := New(Config{Spec: spec, Phis: []float64{0.5, 0.99}})
		if err != nil {
			return false
		}
		evals, _, err := Run(q, spec, data)
		if err != nil || len(evals) != 1 {
			return false
		}
		exact := ExactQuantiles(data, []float64{0.5, 0.99})
		for j := range exact {
			if math.Abs(evals[0].Estimates[j]-exact[j]) > exact[j]*0.006 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: QLOVE space usage never exceeds the window size (the whole
// point of the summary design), on redundant integer data.
func TestQuickSpaceBelowWindow(t *testing.T) {
	f := func(seed int64) bool {
		spec := Window{Size: 2000, Period: 500}
		q, err := New(Config{Spec: spec, Phis: []float64{0.5, 0.99}, FewK: true})
		if err != nil {
			return false
		}
		data := workload.Generate(workload.NewNetMon(seed), 6000)
		_, st, err := Run(q, spec, data)
		if err != nil {
			return false
		}
		return st.MaxSpace < spec.Size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
