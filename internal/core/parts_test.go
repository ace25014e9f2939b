package core

import (
	"math"
	"testing"

	"repro/internal/window"
	"repro/internal/workload"
)

// capture builds a policy, runs data through it and returns both.
func capture(t *testing.T, cfg Config, seed int64, n int) (*Policy, Snapshot) {
	t.Helper()
	p := mustNew(t, cfg)
	p.ObserveBatch(workload.Generate(workload.NewNetMon(seed), n))
	return p, p.Snapshot()
}

// TestPartsRoundTrip: exploding a capture and rebuilding it yields a
// Snapshot whose Estimates, Estimate, Merge and accessors are bit-for-bit
// those of the original, in every few-k mode.
func TestPartsRoundTrip(t *testing.T) {
	spec := window.Spec{Size: 4000, Period: 500}
	phis := []float64{0.5, 0.9, 0.99, 0.999}
	cases := map[string]Config{
		"plain":    {Spec: spec, Phis: phis},
		"fewk":     {Spec: spec, Phis: phis, FewK: true},
		"topk":     {Spec: spec, Phis: phis, FewK: true, TopKOnly: true},
		"samplek":  {Spec: spec, Phis: phis, FewK: true, SampleKOnly: true},
		"no-quant": {Spec: spec, Phis: phis, FewK: true, Digits: -1},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			_, snap := capture(t, cfg, 7, 2*spec.Size+spec.Period/3)
			rebuilt, err := NewSnapshot(snap.Parts())
			if err != nil {
				t.Fatal(err)
			}
			want, got := snap.Estimates(), rebuilt.Estimates()
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("ϕ=%v: rebuilt %v != original %v", cfg.Phis[j], got[j], want[j])
				}
			}
			if rebuilt.Streams() != snap.Streams() || rebuilt.SubWindows() != snap.SubWindows() ||
				rebuilt.Elements() != snap.Elements() {
				t.Fatal("rebuilt capture shape differs")
			}

			// A rebuilt capture must merge with a live one exactly like the
			// original would (the distributed aggregation path: one side of
			// every central merge has crossed a process boundary).
			_, other := capture(t, cfg, 8, 2*spec.Size)
			viaLive, err := snap.Merge(other)
			if err != nil {
				t.Fatal(err)
			}
			viaRebuilt, err := rebuilt.Merge(other)
			if err != nil {
				t.Fatal(err)
			}
			lw, rw := viaLive.Estimates(), viaRebuilt.Estimates()
			for j := range lw {
				if math.Float64bits(lw[j]) != math.Float64bits(rw[j]) {
					t.Fatalf("merged estimates diverge at ϕ=%v: %v != %v", cfg.Phis[j], lw[j], rw[j])
				}
			}
		})
	}
}

// TestNewSnapshotRejects: every structural invariant is enforced.
func TestNewSnapshotRejects(t *testing.T) {
	spec := window.Spec{Size: 400, Period: 100}
	cfg := Config{Spec: spec, Phis: []float64{0.5, 0.99}, FewK: true}
	_, snap := capture(t, cfg, 3, spec.Size)
	ok := snap.Parts()
	if len(ok.Summaries) == 0 {
		t.Fatal("want resident summaries")
	}
	mutate := func(fn func(p *SnapshotParts)) SnapshotParts {
		p := ok
		p.Sums = append([]float64(nil), ok.Sums...)
		p.Summaries = append([]Summary(nil), ok.Summaries...)
		fn(&p)
		return p
	}
	// rebuild swaps the first summary for one built from its own parts, edited.
	rebuild := func(fn func(sp *summaryParts)) SnapshotParts {
		return mutate(func(p *SnapshotParts) {
			sp := partsOf(p.Summaries[0])
			fn(&sp)
			p.Summaries[0] = sp.build()
		})
	}
	cases := map[string]SnapshotParts{
		"no shape":       mutate(func(p *SnapshotParts) { p.Shape = nil }),
		"zero streams":   mutate(func(p *SnapshotParts) { p.Streams = 0 }),
		"sums mismatch":  mutate(func(p *SnapshotParts) { p.Sums = p.Sums[:1] }),
		"zero count":     mutate(func(p *SnapshotParts) { s := p.Summaries[0]; s.count = 0; p.Summaries[0] = s }),
		"quantile shape": rebuild(func(sp *summaryParts) { sp.quantiles, sp.densities = sp.quantiles[:1], sp.densities[:1] }),
		"unmanaged":      rebuild(func(sp *summaryParts) { sp.tails, sp.values, sp.weights, sp.bursty = nil, nil, nil, nil }),
		"extra managed": rebuild(func(sp *summaryParts) {
			sp.tails, sp.values, sp.weights = append(sp.tails, nil), append(sp.values, nil), append(sp.weights, nil)
			sp.bursty = append(sp.bursty, false)
		}),
		"oversized tail":    rebuild(func(sp *summaryParts) { sp.count = len(sp.tails[0]) - 1 }),
		"zero weight":       rebuild(func(sp *summaryParts) { sp.values, sp.weights = [][]float64{{1}}, [][]float64{{0}} }),
		"fractional weight": rebuild(func(sp *summaryParts) { sp.values, sp.weights = [][]float64{{1}}, [][]float64{{1.5}} }),
		"oversized weight":  rebuild(func(sp *summaryParts) { sp.values, sp.weights = [][]float64{{1}}, [][]float64{{float64(sp.count + 1)}} }),
	}
	for name, parts := range cases {
		if _, err := NewSnapshot(parts); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The unmodified parts still round-trip (the mutate harness itself is
	// not what fails the cases above).
	if _, err := NewSnapshot(mutate(func(*SnapshotParts) {})); err != nil {
		t.Fatalf("pristine parts rejected: %v", err)
	}

	// A configuration is validated once, when its Shape is made.
	shapeOf := func(fn func(c *Config)) Config {
		c := ok.Shape.Config()
		fn(&c)
		return c
	}
	for name, c := range map[string]Config{
		"bad spec":        shapeOf(func(c *Config) { c.Spec.Period = 3 }),
		"no phis":         shapeOf(func(c *Config) { c.Phis = nil }),
		"unsorted phis":   shapeOf(func(c *Config) { c.Phis = []float64{0.9, 0.5} }),
		"unresolved frac": shapeOf(func(c *Config) { c.Fraction = 0 }),
		"negative digits": shapeOf(func(c *Config) { c.Digits = -1 }),
		"digits 18":       shapeOf(func(c *Config) { c.Digits = 18 }),
		"both modes":      shapeOf(func(c *Config) { c.TopKOnly, c.SampleKOnly = true, true }),
	} {
		if _, err := NewShape(c); err == nil {
			t.Errorf("%s: shape accepted", name)
		}
	}
	if _, err := NewShape(shapeOf(func(*Config) {})); err != nil {
		t.Fatalf("pristine configuration rejected: %v", err)
	}
}

// TestNewSummaryRejects: parts that do not fit together never become a
// block (the shapes NewSnapshot used to find on a summary's separate slices).
func TestNewSummaryRejects(t *testing.T) {
	q, one := []float64{1, 2}, [][]float64{{9, 8}}
	cases := map[string]func() (Summary, error){
		"density shape": func() (Summary, error) { return NewSummary(10, q, q[:1], nil, nil, nil, nil) },
		"sample shape":  func() (Summary, error) { return NewSummary(10, q, q, one, nil, nil, nil) },
		"weight shape":  func() (Summary, error) { return NewSummary(10, q, q, one, one, [][]float64{{1}}, nil) },
		"burst shape":   func() (Summary, error) { return NewSummary(10, q, q, one, one, one, []bool{true, false}) },
	}
	for name, build := range cases {
		if _, err := build(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	s, err := NewSummary(10, q, q, one, one, [][]float64{{1, 2}}, []bool{true})
	if err != nil {
		t.Fatal(err)
	}
	if _, weights := s.Samples(0); !s.Bursty(0) || s.Tail(0)[1] != 8 || weights[1] != 2 || s.Quantile(1) != 2 {
		t.Fatalf("summary does not read back what it was built from: %+v", s)
	}
}

// TestSnapshotEstimate: the single-ϕ convenience against its guards.
func TestSnapshotEstimate(t *testing.T) {
	if _, ok := (Snapshot{}).Estimate(0.5); ok {
		t.Fatal("zero snapshot answered")
	}
	spec := window.Spec{Size: 1000, Period: 250}
	cfg := Config{Spec: spec, Phis: []float64{0.5, 0.99}, FewK: true}
	_, snap := capture(t, cfg, 11, spec.Size)
	all := snap.Estimates()
	for i, phi := range cfg.Phis {
		got, ok := snap.Estimate(phi)
		if !ok || math.Float64bits(got) != math.Float64bits(all[i]) {
			t.Fatalf("ϕ=%v: got %v ok=%v, want %v", phi, got, ok, all[i])
		}
	}
	// Unknown ϕ — including ones BETWEEN configured ϕs — must refuse, not
	// interpolate.
	for _, phi := range []float64{0.25, 0.75, 0.995, 1} {
		if _, ok := snap.Estimate(phi); ok {
			t.Fatalf("unconfigured ϕ=%v answered", phi)
		}
	}
	// An empty (but non-zero) capture answers configured ϕs with zeros.
	p := mustNew(t, cfg)
	if v, ok := p.Snapshot().Estimate(0.5); !ok || v != 0 {
		t.Fatalf("empty capture: got %v ok=%v", v, ok)
	}
}
