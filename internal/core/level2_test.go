package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core/fewk"
	"repro/internal/rbtree"
)

func mkSummary(qs ...float64) Summary {
	return Summary{Quantiles: qs, Count: 10}
}

func TestLevel2AccumulateDeaccumulate(t *testing.T) {
	l := newLevel2(2)
	l.accumulate(mkSummary(10, 100))
	l.accumulate(mkSummary(20, 200))
	l.accumulate(mkSummary(30, 300))
	if l.count() != 3 {
		t.Fatalf("count = %d", l.count())
	}
	if got := l.estimate(0); got != 20 {
		t.Fatalf("estimate[0] = %v, want 20", got)
	}
	if got := l.estimate(1); got != 200 {
		t.Fatalf("estimate[1] = %v, want 200", got)
	}
	l.deaccumulate()
	if l.count() != 2 {
		t.Fatalf("count after deacc = %d", l.count())
	}
	if got := l.estimate(0); got != 25 {
		t.Fatalf("estimate[0] after deacc = %v, want 25", got)
	}
}

func TestLevel2DeaccumulateEmpty(t *testing.T) {
	l := newLevel2(1)
	l.deaccumulate() // must not panic
	if l.estimate(0) != 0 {
		t.Fatal("empty estimate != 0")
	}
}

func TestLevel2CachedSkipsSummariesWithoutTails(t *testing.T) {
	l := newLevel2(1)
	l.accumulate(mkSummary(1)) // no Tails
	s := mkSummary(2)
	s.Tails = [][]float64{{9, 8}}
	s.Samples = [][]fewk.Sample{{{Value: 5, Weight: 2}}}
	l.accumulate(s)
	got := l.cached(0)
	if len(got) != 1 {
		t.Fatalf("cached lists = %d, want 1", len(got))
	}
	// Union: tails {9,8} plus sample 5 (below the tail cutoff 8).
	if len(got[0]) != 3 || got[0][0] != 9 || got[0][2] != 5 {
		t.Fatalf("cached union = %v", got[0])
	}
}

func TestLevel2CachedDedupsSamplesInTopK(t *testing.T) {
	l := newLevel2(1)
	s := mkSummary(2)
	s.Tails = [][]float64{{9, 8}}
	// Sample at 8 duplicates the tail cache; sample at 3 does not.
	s.Samples = [][]fewk.Sample{{{Value: 8, Weight: 1}, {Value: 3, Weight: 2}}}
	l.accumulate(s)
	got := l.cached(0)[0]
	if len(got) != 3 {
		t.Fatalf("cached union = %v, want 3 values (8 deduped)", got)
	}
}

func TestLevel2AnyBursty(t *testing.T) {
	l := newLevel2(1)
	a := mkSummary(1)
	a.BurstyVsPrev = []bool{false}
	b := mkSummary(2)
	b.BurstyVsPrev = []bool{true}
	l.accumulate(a)
	if l.anyBursty(0) {
		t.Fatal("burst flagged without any bursty summary")
	}
	l.accumulate(b)
	if !l.anyBursty(0) {
		t.Fatal("burst not flagged")
	}
	// After the bursty summary expires the flag clears.
	l.deaccumulate()
	l.deaccumulate()
	if l.anyBursty(0) {
		t.Fatal("burst flag survived expiry")
	}
}

func TestLevel2MeanDensity(t *testing.T) {
	l := newLevel2(1)
	a := mkSummary(1)
	a.Densities = []float64{2}
	b := mkSummary(2)
	b.Densities = []float64{4}
	c := mkSummary(3)
	c.Densities = []float64{math.Inf(1)} // point mass excluded
	l.accumulate(a)
	l.accumulate(b)
	l.accumulate(c)
	if got := l.meanDensity(0); got != 3 {
		t.Fatalf("meanDensity = %v, want 3", got)
	}
	empty := newLevel2(1)
	if empty.meanDensity(0) != 0 {
		t.Fatal("empty meanDensity != 0")
	}
}

func TestLevel2SpaceUsage(t *testing.T) {
	l := newLevel2(2)
	s := mkSummary(1, 2)
	s.Tails = [][]float64{{9, 8, 7}}
	s.Samples = [][]fewk.Sample{{{Value: 5, Weight: 1}}}
	l.accumulate(s)
	// 2 quantile slots + 3 tail values + 1 sample.
	if got := l.spaceUsage(); got != 6 {
		t.Fatalf("spaceUsage = %d, want 6", got)
	}
	if got := l.fewkSpace(); got != 4 {
		t.Fatalf("fewkSpace = %d, want 4", got)
	}
}

// Property: estimate always equals the arithmetic mean of the resident
// summaries' quantiles, under any accumulate/deaccumulate sequence.
func TestQuickLevel2MeanInvariant(t *testing.T) {
	f := func(vals []uint16, ops []bool) bool {
		l := newLevel2(1)
		var resident []float64
		vi := 0
		for _, op := range ops {
			if op && vi < len(vals) {
				v := float64(vals[vi])
				vi++
				l.accumulate(mkSummary(v))
				resident = append(resident, v)
			} else if len(resident) > 0 {
				l.deaccumulate()
				resident = resident[1:]
			} else {
				l.deaccumulate() // no-op
			}
			if len(resident) == 0 {
				if l.estimate(0) != 0 {
					return false
				}
				continue
			}
			var mean float64
			for _, v := range resident {
				mean += v
			}
			mean /= float64(len(resident))
			if math.Abs(l.estimate(0)-mean) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderSealProducesSortedTails(t *testing.T) {
	b := newBuilder(rbtree.New(), 0)
	for _, v := range []float64{5, 100, 3, 99, 42, 7, 88, 1, 64, 2} {
		b.add(v)
	}
	budgets := []fewk.Budget{{K: 5, Kt: 3, Ks: 2}}
	s := b.seal([]float64{0.9}, []int{0}, budgets, 100)
	if s.Count != 10 {
		t.Fatalf("Count = %d", s.Count)
	}
	// Tail cache: 3 largest, descending.
	want := []float64{100, 99, 88}
	for i := range want {
		if s.Tails[0][i] != want[i] {
			t.Fatalf("Tails = %v, want %v", s.Tails[0], want)
		}
	}
	if len(s.Samples[0]) == 0 {
		t.Fatal("no samples captured")
	}
	// The operator empties the builder after a seal.
	if b.reset(s.Count); b.len() != 0 {
		t.Fatal("builder not reset")
	}
}

func TestBuilderDensityAtSmallN(t *testing.T) {
	b := newBuilder(rbtree.New(), 0)
	b.add(1)
	b.add(2)
	s := b.seal([]float64{0.5}, nil, nil, 100)
	if got := s.Densities[0]; got != 0 {
		t.Fatalf("density with n<4 = %v, want 0", got)
	}
}
