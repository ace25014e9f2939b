package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core/fewk"
	"repro/internal/window"
)

// newLevel2 returns an empty Level 2 for nPhis quantiles, as an operator
// starts with one.
func newLevel2(nPhis int) *level2 {
	return &level2{sums: make([]float64, nPhis)}
}

// summaryParts is a hand-built summary's contents; count defaults to 10,
// densities to zeros, everything else to absent.
type summaryParts struct {
	count                  int
	quantiles, densities   []float64
	tails, values, weights [][]float64
	bursty                 []bool
}

func (p summaryParts) build() Summary {
	if p.count == 0 {
		p.count = 10
	}
	if p.densities == nil {
		p.densities = make([]float64, len(p.quantiles))
	}
	s, err := NewSummary(p.count, p.quantiles, p.densities, p.tails, p.values, p.weights, p.bursty)
	if err != nil {
		panic(err)
	}
	return s
}

// partsOf explodes a summary back into (copies of) what NewSummary takes.
func partsOf(s Summary) summaryParts {
	p := summaryParts{count: s.Count()}
	for i := 0; i < s.NumQuantiles(); i++ {
		p.quantiles, p.densities = append(p.quantiles, s.Quantile(i)), append(p.densities, s.Density(i))
	}
	for mi := 0; mi < s.Managed(); mi++ {
		p.tails = append(p.tails, append([]float64(nil), s.Tail(mi)...))
		values, weights := s.Samples(mi)
		p.values = append(p.values, append([]float64(nil), values...))
		p.weights = append(p.weights, append([]float64(nil), weights...))
		if s.Flagged() {
			p.bursty = append(p.bursty, s.Bursty(mi))
		}
	}
	return p
}

// level2Estimate is the Level-2 mean answerAt reads for an unmanaged ϕ
// index i, 0 when nothing is resident.
func level2Estimate(l *level2, i int) float64 {
	if l.count() == 0 {
		return 0
	}
	est, _ := answerAt(nil, l.sums, l.summaries, 1, nil, i, -1)
	return est
}

func mkSummary(qs ...float64) Summary { return summaryParts{quantiles: qs}.build() }

// union concatenates the runs gather collected for one summary.
func union(runs [][]float64) []float64 {
	var out []float64
	for _, r := range runs {
		out = append(out, r...)
	}
	return out
}

func TestLevel2AccumulateDeaccumulate(t *testing.T) {
	l := newLevel2(2)
	l.accumulate(mkSummary(10, 100))
	l.accumulate(mkSummary(20, 200))
	l.accumulate(mkSummary(30, 300))
	if l.count() != 3 {
		t.Fatalf("count = %d", l.count())
	}
	if got := level2Estimate(l, 0); got != 20 {
		t.Fatalf("estimate[0] = %v, want 20", got)
	}
	if got := level2Estimate(l, 1); got != 200 {
		t.Fatalf("estimate[1] = %v, want 200", got)
	}
	l.deaccumulate()
	if l.count() != 2 {
		t.Fatalf("count after deacc = %d", l.count())
	}
	if got := level2Estimate(l, 0); got != 25 {
		t.Fatalf("estimate[0] after deacc = %v, want 25", got)
	}
}

func TestLevel2DeaccumulateEmpty(t *testing.T) {
	l := newLevel2(1)
	l.deaccumulate() // must not panic
	if level2Estimate(l, 0) != 0 {
		t.Fatal("empty estimate != 0")
	}
}

func TestLevel2CachedSkipsSummariesWithoutTails(t *testing.T) {
	l := newLevel2(1)
	l.accumulate(mkSummary(1)) // no tails
	l.accumulate(summaryParts{
		quantiles: []float64{2},
		tails:     [][]float64{{9, 8}},
		values:    [][]float64{{5}}, weights: [][]float64{{2}},
	}.build())
	var sc mergeScratch
	sc.gather(l.summaries, 0)
	// The sample lists come only from the summary that manages ϕ 0.
	if values, weights := sc.samplesOf(l.summaries, 0); len(values) != 1 || len(weights) != 1 || values[0][0] != 5 || weights[0][0] != 2 {
		t.Fatalf("sample lists = %v / %v", values, weights)
	}
	got := sc.cachedOf()
	if n := len(union(got[:2])); n != 0 {
		t.Fatalf("summary without tails contributed %d values", n)
	}
	// Union: tails {9,8} plus sample 5 (below the tail cutoff 8).
	if u := union(got); len(u) != 3 || u[0] != 9 || u[2] != 5 {
		t.Fatalf("cached union = %v", u)
	}
}

func TestLevel2CachedDedupsSamplesInTopK(t *testing.T) {
	l := newLevel2(1)
	// Sample at 8 duplicates the tail cache; sample at 3 does not.
	l.accumulate(summaryParts{
		quantiles: []float64{2},
		tails:     [][]float64{{9, 8}},
		values:    [][]float64{{8, 3}}, weights: [][]float64{{1, 2}},
	}.build())
	var sc mergeScratch
	sc.gather(l.summaries, 0)
	got := union(sc.cachedOf())
	if len(got) != 3 {
		t.Fatalf("cached union = %v, want 3 values (8 deduped)", got)
	}
}

func TestLevel2AnyBursty(t *testing.T) {
	l := newLevel2(1)
	managed := func(q float64, bursty bool) Summary {
		return summaryParts{
			quantiles: []float64{q},
			tails:     [][]float64{nil}, values: [][]float64{nil}, weights: [][]float64{nil},
			bursty: []bool{bursty},
		}.build()
	}
	var sc mergeScratch
	l.accumulate(managed(1, false))
	if sc.gather(l.summaries, 0) {
		t.Fatal("burst flagged without any bursty summary")
	}
	l.accumulate(managed(2, true))
	if !sc.gather(l.summaries, 0) {
		t.Fatal("burst not flagged")
	}
	// After the bursty summary expires the flag clears.
	l.deaccumulate()
	l.deaccumulate()
	if sc.gather(l.summaries, 0) {
		t.Fatal("burst flag survived expiry")
	}
}

func TestLevel2MeanDensity(t *testing.T) {
	l := newLevel2(1)
	l.accumulate(summaryParts{quantiles: []float64{1}, densities: []float64{2}}.build())
	l.accumulate(summaryParts{quantiles: []float64{2}, densities: []float64{4}}.build())
	l.accumulate(summaryParts{quantiles: []float64{3}, densities: []float64{math.Inf(1)}}.build()) // point mass excluded
	if got := meanDensity(l.summaries, 0); got != 3 {
		t.Fatalf("meanDensity = %v, want 3", got)
	}
	empty := newLevel2(1)
	if meanDensity(empty.summaries, 0) != 0 {
		t.Fatal("empty meanDensity != 0")
	}
}

func TestLevel2SpaceUsage(t *testing.T) {
	l := newLevel2(2)
	l.accumulate(summaryParts{
		quantiles: []float64{1, 2},
		tails:     [][]float64{{9, 8, 7}},
		values:    [][]float64{{5}}, weights: [][]float64{{1}},
	}.build())
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
				if level2Estimate(l, 0) != 0 {
					return false
				}
				continue
			}
			var mean float64
			for _, v := range resident {
				mean += v
			}
			mean /= float64(len(resident))
			if math.Abs(level2Estimate(l, 0)-mean) > 1e-9 {
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
	b := newBuilder(mustNew(t, Config{Spec: window.Spec{Size: 100, Period: 100}, Phis: []float64{0.9}, FewK: true, HighPhiMin: 0.9, Digits: -1}).sh)
	for _, v := range []float64{5, 100, 3, 99, 42, 7, 88, 1, 64, 2} {
		b.add(v)
	}
	budgets := []fewk.Budget{{K: 5, Kt: 3, Ks: 2}}
	s := b.seal(budgets, new(mergeScratch))
	if s.Count() != 10 {
		t.Fatalf("Count = %d", s.Count())
	}
	// Tail cache: 3 largest, descending.
	want := []float64{100, 99, 88}
	for i := range want {
		if s.Tail(0)[i] != want[i] {
			t.Fatalf("Tail = %v, want %v", s.Tail(0), want)
		}
	}
	if values, _ := s.Samples(0); len(values) == 0 {
		t.Fatal("no samples captured")
	}
	// The operator empties the builder after a seal.
	if b.clear(); b.len() != 0 {
		t.Fatal("builder not reset")
	}
}

func TestBuilderDensityAtSmallN(t *testing.T) {
	b := newBuilder(mustNew(t, Config{Spec: window.Spec{Size: 100, Period: 100}, Phis: []float64{0.5}, Digits: -1}).sh)
	b.add(1)
	b.add(2)
	s := b.seal(nil, new(mergeScratch))
	if got := s.Density(0); got != 0 {
		t.Fatalf("density with n<4 = %v, want 0", got)
	}
}
