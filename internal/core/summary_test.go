package core

import (
	"slices"
	"testing"

	"repro/internal/window"
)

// TestSummaryLayoutLimits: the 32-byte header holds the largest count, ϕ
// count and managed count it admits, with burst flags on and off, and
// every accessor returns what NewSummary was given; one past any limit is
// an error, not a truncation. A configuration with one ϕ more than a
// summary answers is refused when it is validated (the wire decoder's
// refusal of such a frame is TestDecodeRefusesTooManyPhis).
func TestSummaryLayoutLimits(t *testing.T) {
	const l, m = MaxSummaryQuantiles, MaxSummaryQuantiles
	quantiles, densities := make([]float64, l), make([]float64, l)
	for i := range quantiles {
		quantiles[i], densities[i] = float64(i), 1/float64(i+1)
	}
	tails, values, weights := make([][]float64, m), make([][]float64, m), make([][]float64, m)
	for mi := range tails {
		// Lists of 0, 1 and 2 values, so every offset the index holds differs.
		n := mi % 3
		tails[mi], values[mi], weights[mi] = make([]float64, n), make([]float64, n), make([]float64, n)
		for j := 0; j < n; j++ {
			tails[mi][j] = float64(3*mi + 2 - j)
			values[mi][j], weights[mi][j] = float64(mi)-float64(j), float64(j+1)
		}
	}
	bursty := make([]bool, m)
	for mi := range bursty {
		bursty[mi] = mi%7 == 0 || mi == m-1
	}
	for _, flags := range [][]bool{nil, bursty} {
		s, err := NewSummary(MaxSummaryCount, quantiles, densities, tails, values, weights, flags)
		if err != nil {
			t.Fatalf("flags %v: %v", flags != nil, err)
		}
		if s.Count() != MaxSummaryCount || s.NumQuantiles() != l || s.Managed() != m || s.Flagged() != (flags != nil) {
			t.Fatalf("flags %v: count %d, %d quantiles, %d managed, flagged %v", flags != nil, s.Count(), s.NumQuantiles(), s.Managed(), s.Flagged())
		}
		for i := range quantiles {
			if s.Quantile(i) != quantiles[i] || s.Density(i) != densities[i] {
				t.Fatalf("flags %v: ϕ %d reads %v, %v", flags != nil, i, s.Quantile(i), s.Density(i))
			}
		}
		for mi := range tails {
			if !slices.Equal(s.Tail(mi), tails[mi]) || !slices.Equal(s.SampleValues(mi), values[mi]) || !slices.Equal(s.SampleWeights(mi), weights[mi]) {
				t.Fatalf("flags %v: managed %d reads %v %v %v", flags != nil, mi, s.Tail(mi), s.SampleValues(mi), s.SampleWeights(mi))
			}
			if want := flags != nil && flags[mi]; s.Bursty(mi) != want {
				t.Fatalf("flags %v: managed %d bursty %v, want %v", flags != nil, mi, s.Bursty(mi), want)
			}
		}
	}

	over := make([][]float64, m+1)
	for name, build := range map[string]func() error{
		"count":    func() error { _, err := NewSummary(MaxSummaryCount+1, nil, nil, nil, nil, nil, nil); return err },
		"negative": func() error { _, err := NewSummary(-1, nil, nil, nil, nil, nil, nil); return err },
		"quantiles": func() error {
			_, err := NewSummary(1, make([]float64, l+1), make([]float64, l+1), nil, nil, nil, nil)
			return err
		},
		"managed": func() error { _, err := NewSummary(1, nil, nil, over, over, over, nil); return err },
		"flagged": func() error { _, err := NewSummary(1, nil, nil, over, over, over, make([]bool, m+1)); return err },
	} {
		if build() == nil {
			t.Errorf("%s: one past the limit built a summary", name)
		}
	}

	phis := make([]float64, MaxSummaryQuantiles+1)
	for i := range phis {
		phis[i] = float64(i+1) / float64(len(phis))
	}
	cfg := Config{Spec: window.Spec{Size: 64, Period: 16}, Phis: phis}.withDefaults()
	if _, err := NewShape(cfg); err == nil {
		t.Error("NewShape took one ϕ more than a summary answers")
	}
	if _, err := New(cfg); err == nil {
		t.Error("New took one ϕ more than a summary answers")
	}
	cfg.Phis = phis[1:]
	if _, err := NewShape(cfg); err != nil {
		t.Errorf("NewShape refused as many ϕ as a summary answers: %v", err)
	}
	// A period past MaxSummaryCount, where an int holds one.
	if period := int64(MaxSummaryCount) + 1; int64(int(period)) == period {
		big := Config{Spec: window.Spec{Size: int(period), Period: int(period)}, Phis: []float64{0.5}}.withDefaults()
		if _, err := NewShape(big); err == nil {
			t.Error("NewShape took a period longer than a summary counts")
		}
	}
}
