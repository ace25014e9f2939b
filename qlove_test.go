package qlove

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/workload"
)

func TestPublicQuickstart(t *testing.T) {
	// The README quickstart path: construct, push, read estimates.
	cfg := Config{
		Spec: Window{Size: 4000, Period: 1000},
		Phis: []float64{0.5, 0.9, 0.99, 0.999},
		FewK: true,
	}
	q, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(q, cfg.Spec)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewNetMon(1)
	var last Result
	results := 0
	for i := 0; i < 20000; i++ {
		if res, ready := mon.Push(gen.Next()); ready {
			last = res
			results++
		}
	}
	if results != 17 { // (20000-4000)/1000 + 1
		t.Fatalf("results = %d, want 17", results)
	}
	if len(last.Estimates) != 4 {
		t.Fatalf("estimates = %v", last.Estimates)
	}
	// Median of NetMon ≈ 798; sanity band.
	if last.Estimates[0] < 700 || last.Estimates[0] > 900 {
		t.Fatalf("median = %v, want ≈ 798", last.Estimates[0])
	}
	// Monotone quantiles.
	for i := 1; i < 4; i++ {
		if last.Estimates[i] < last.Estimates[i-1] {
			t.Fatalf("non-monotone estimates %v", last.Estimates)
		}
	}
	if mon.Seen() != 20000 || mon.Evaluations() != 17 {
		t.Fatalf("seen=%d evals=%d", mon.Seen(), mon.Evaluations())
	}
}

func TestMonitorMatchesRun(t *testing.T) {
	// Push-based Monitor must produce byte-identical results to the batch
	// runner for the same policy type.
	spec := Window{Size: 300, Period: 100}
	phis := []float64{0.5, 0.99}
	rng := rand.New(rand.NewSource(2))
	data := make([]float64, 1200)
	for i := range data {
		data[i] = math.Floor(rng.Float64() * 1000)
	}
	p1, _ := NewExact(spec, phis)
	batch, _, err := Run(p1, spec, data)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := NewExact(spec, phis)
	mon, _ := NewMonitor(p2, spec)
	var pushed []Result
	for _, v := range data {
		if res, ok := mon.Push(v); ok {
			pushed = append(pushed, res)
		}
	}
	if len(pushed) != len(batch) {
		t.Fatalf("pushed %d results, batch %d", len(pushed), len(batch))
	}
	for i := range batch {
		for j := range phis {
			if pushed[i].Estimates[j] != batch[i].Estimates[j] {
				t.Fatalf("eval %d phi %d: pushed %v, batch %v",
					i, j, pushed[i].Estimates[j], batch[i].Estimates[j])
			}
		}
	}
}

func TestMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(nil, Window{Size: 10, Period: 5}); err == nil {
		t.Fatal("nil policy accepted")
	}
	p, _ := NewExact(Window{Size: 10, Period: 5}, []float64{0.5})
	if _, err := NewMonitor(p, Window{Size: 3, Period: 5}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestBaselineConstructors(t *testing.T) {
	spec := Window{Size: 100, Period: 10}
	phis := []float64{0.5, 0.99}
	for name, mk := range map[string]func() (Policy, error){
		"exact":  func() (Policy, error) { return NewExact(spec, phis) },
		"cmqs":   func() (Policy, error) { return NewCMQS(spec, phis, DefaultEpsilon) },
		"am":     func() (Policy, error) { return NewAM(spec, phis, DefaultEpsilon) },
		"random": func() (Policy, error) { return NewRandom(spec, phis, DefaultEpsilon, 1) },
		"moment": func() (Policy, error) { return NewMoment(spec, phis, DefaultMomentK) },
	} {
		p, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 100; i++ {
			p.Observe(float64(i))
		}
		res := p.Result()
		if len(res) != 2 {
			t.Fatalf("%s: result %v", name, res)
		}
		if res[0] <= 0 || res[1] < res[0] {
			t.Fatalf("%s: implausible estimates %v", name, res)
		}
	}
}

func TestRegistryHasAllPolicies(t *testing.T) {
	spec := Window{Size: 100, Period: 10}
	phis := []float64{0.5}
	names := []string{"qlove", "qlove-fewk", "exact", "cmqs", "am", "random", "moment", "gk"}
	if got := PolicyNames(); !slices.Equal(got, names) {
		t.Fatalf("PolicyNames = %v, want %v", got, names)
	}
	for _, name := range names {
		p, err := NewPolicy(name, spec, phis)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p == nil {
			t.Fatalf("%s: nil policy", name)
		}
	}
	if _, err := NewPolicy("nope", spec, phis); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestExactQuantiles(t *testing.T) {
	got := ExactQuantiles([]float64{4, 1, 3, 2}, []float64{0.5, 1})
	if got[0] != 2 || got[1] != 4 {
		t.Fatalf("ExactQuantiles = %v", got)
	}
}

func TestFeedThroughputPositive(t *testing.T) {
	spec := Window{Size: 1000, Period: 100}
	p, _ := New(Config{Spec: spec, Phis: []float64{0.5}})
	data := workload.Generate(workload.NewUniform(3, 0, 1), 10000)
	st, err := Feed(p, spec, data)
	if err != nil {
		t.Fatal(err)
	}
	if st.ThroughputMevS() <= 0 {
		t.Fatal("throughput not measured")
	}
	if st.Elements != 10000 {
		t.Fatalf("elements = %d", st.Elements)
	}
}
