package core

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"repro/internal/window"
	"repro/internal/workload"
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
			sv, sw := s.Samples(mi)
			if !slices.Equal(s.Tail(mi), tails[mi]) || !slices.Equal(sv, values[mi]) || !slices.Equal(sw, weights[mi]) {
				t.Fatalf("flags %v: managed %d reads %v %v %v", flags != nil, mi, s.Tail(mi), sv, sw)
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

// layoutCase is one summary's parts as NewSummary takes them, with what
// its block must come to: stored list values (a tail shared with the tail
// stored last is not stored again) and index words.
type layoutCase struct {
	name                   string
	tails, values, weights [][]float64
	bursty                 []bool
	stored, index          int
}

// layoutCount is every layout case's element count: more than any of
// them caches, so a capture of them validates.
const layoutCount = 1 << 20

// layoutCases covers the block layout's branches: shared and unshared
// tails, empty tails and lists, no managed quantile, flags at every index
// of an index that spills into more words (where groups straddle words),
// and list areas where the field width steps.
func layoutCases() []layoutCase {
	negZero := math.Copysign(0, -1)
	cases := []layoutCase{
		{name: "shared nested", tails: [][]float64{{9, 8, 7}, {9, 8}, {9}},
			values: [][]float64{{6}, nil, {5, 4}}, weights: [][]float64{{3}, nil, {1, 2}},
			bursty: []bool{false, true, false}, stored: 9, index: 1},
		{name: "shared nested, unflagged", tails: [][]float64{{9, 8, 7}, {9, 8}, {9}},
			values: [][]float64{{6}, nil, {5, 4}}, weights: [][]float64{{3}, nil, {1, 2}}, stored: 9, index: 1},
		{name: "prefix of the tail stored last, not of the previous view", tails: [][]float64{{9, 8, 7}, {9}, {9, 8}},
			values: [][]float64{nil, nil, nil}, weights: [][]float64{nil, nil, nil}, bursty: []bool{true, true, true}, stored: 3, index: 1},
		{name: "equal lengths, different values", tails: [][]float64{{9, 8}, {9, 7}},
			values: [][]float64{{6}, {6}}, weights: [][]float64{{1}, {1}}, bursty: []bool{true, false}, stored: 8, index: 1},
		{name: "longer tail after a shorter one", tails: [][]float64{{9}, {9, 8}},
			values: [][]float64{nil, {7}}, weights: [][]float64{nil, {2}}, bursty: []bool{false, true}, stored: 5, index: 1},
		{name: "equal but for the sign of zero", tails: [][]float64{{0}, {negZero}},
			values: [][]float64{nil, nil}, weights: [][]float64{nil, nil}, stored: 2, index: 1},
		{name: "empty tails", tails: [][]float64{nil, {5}, {}},
			values: [][]float64{{4}, nil, {3}}, weights: [][]float64{{1}, nil, {2}}, bursty: []bool{true, false, true}, stored: 5, index: 1},
		{name: "empty lists", tails: [][]float64{nil, nil}, values: [][]float64{nil, nil}, weights: [][]float64{nil, nil},
			bursty: []bool{false, true}, stored: 0, index: 1},
		{name: "m = 0", stored: 0, index: 0},
		{name: "m = 0, flagged", bursty: []bool{}, stored: 0, index: 0},
	}
	// Fourteen distinct one-value tails: a 19-value list area, 5-bit
	// fields, 16-bit groups in five index words, the fourth group straddling
	// the first two words. One case per managed index with only its flag
	// raised, and one with every flag.
	const spill = 14
	for flag := -1; flag < spill; flag++ {
		c := layoutCase{name: fmt.Sprintf("spilled index, flag %d", flag), bursty: make([]bool, spill), stored: spill + 2*3, index: 5}
		for mi := 0; mi < spill; mi++ {
			c.tails = append(c.tails, []float64{float64(100 - mi)})
			c.values, c.weights = append(c.values, nil), append(c.weights, nil)
			c.bursty[mi] = mi == flag || flag < 0
		}
		c.values[3], c.weights[3] = []float64{1, 0.5, 0.25}, []float64{1, 2, 3}
		c.name = fmt.Sprintf("%s (%d-word index)", c.name, c.index)
		cases = append(cases, c)
	}
	// One managed ϕ storing 2^k−3 to 2^k−1 values: list areas about 2^k−1
	// and 2^k words, where the field width steps from k to k+1 bits, and
	// from 2^17 words on a group outgrows one index word. The index is the
	// fewest words its groups fit in at the width of the area they make.
	for k := 2; k <= 19; k++ {
		for n := 1<<k - 3; n < 1<<k; n++ {
			index := 1
			for 3*bits.Len(uint(n+index))+1 > indexWordBits*index {
				index++
			}
			tail := make([]float64, n)
			for i := range tail {
				tail[i] = float64(n - i)
			}
			cases = append(cases, layoutCase{name: fmt.Sprintf("%d-word list area", n+index), tails: [][]float64{tail},
				values: [][]float64{nil}, weights: [][]float64{nil}, bursty: []bool{n%2 == 0}, stored: n, index: index})
		}
	}
	return cases
}

// build makes the case's summary, with one configured ϕ more than it
// manages.
func (c *layoutCase) build() (Summary, []float64, []float64, error) {
	l := len(c.tails) + 1
	quantiles, densities := make([]float64, l), make([]float64, l)
	for i := range quantiles {
		quantiles[i], densities[i] = float64(i), 1/float64(i+1)
	}
	s, err := NewSummary(layoutCount, quantiles, densities, c.tails, c.values, c.weights, c.bursty)
	return s, quantiles, densities, err
}

// LayoutSummaries builds every layout case's summary, for the wire round
// trip in summary_wire_test.go (package core_test, since it imports wire).
func LayoutSummaries(t testing.TB) (names []string, summaries []Summary) {
	for _, c := range layoutCases() {
		s, _, _, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		names, summaries = append(names, c.name), append(summaries, s)
	}
	return names, summaries
}

// sameBits reports whether a and b hold the same values, bit for bit.
func sameBits(a, b []float64) bool {
	return len(a) == len(b) && isPrefix(a, b)
}

// TestSummaryLayout: NewSummary stores each list once — a tail that is a
// prefix of the tail stored last is read in place — behind an index of as
// few words as its field widths need, and every accessor returns what it
// was given, bit for bit, the burst flag lists reads included.
func TestSummaryLayout(t *testing.T) {
	for _, c := range layoutCases() {
		s, quantiles, densities, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		l, m := len(quantiles), len(c.tails)
		if want := 2*l + c.index + c.stored; len(s.block) != want {
			t.Errorf("%s: block of %d words, want 2·%d + %d index + %d stored = %d", c.name, len(s.block), l, c.index, c.stored, want)
		}
		if s.Count() != layoutCount || s.NumQuantiles() != l || s.Managed() != m || s.Flagged() != (c.bursty != nil) {
			t.Fatalf("%s: count %d, %d quantiles, %d managed, flagged %v", c.name, s.Count(), s.NumQuantiles(), s.Managed(), s.Flagged())
		}
		for i := range quantiles {
			if s.Quantile(i) != quantiles[i] || s.Density(i) != densities[i] {
				t.Fatalf("%s: ϕ %d reads %v, %v", c.name, i, s.Quantile(i), s.Density(i))
			}
		}
		for mi := range c.tails {
			sv, sw := s.Samples(mi)
			if !sameBits(s.Tail(mi), c.tails[mi]) || !sameBits(sv, c.values[mi]) || !sameBits(sw, c.weights[mi]) {
				t.Fatalf("%s: managed %d reads %v %v %v", c.name, mi, s.Tail(mi), sv, sw)
			}
			if want := c.bursty != nil && c.bursty[mi]; s.Bursty(mi) != want {
				t.Fatalf("%s: managed %d bursty %v, want %v", c.name, mi, s.Bursty(mi), want)
			}
			// The evaluation's one read of the group reads the same flag.
			if _, _, bursty := s.lists(mi); bursty != s.Bursty(mi) {
				t.Fatalf("%s: managed %d lists reads burst flag %v", c.name, mi, bursty)
			}
		}
	}
}

// TestSummaryBlockSizes: sealed NetMon summaries at the repo benchmark's
// shapes (64/16 and 512/128) and the paper's (128 000/1 000), ϕ = {0.5, 0.9,
// 0.99, 0.999}. Each shape's managed tails are prefixes of one run, stored
// once, and at the benchmark's shapes one index word holds both managed
// ϕs (the paper's 1 027-word list area takes two), so a 64/16 block is at
// most 10 words (the 80-byte class; 15 words in the 128-byte class with
// the index at two words per managed ϕ, a flag word and both tails
// stored) and a 512/128 block at most 13 (the 112-byte class; 18 words in
// the 144-byte class). The log carries words and size class per shape.
func TestSummaryBlockSizes(t *testing.T) {
	for _, shape := range []struct {
		spec      window.Spec
		maxWords  int // 0: not held to a size
		index     int // index words
		subWindow int // sub-windows sealed
	}{
		{window.Spec{Size: 64, Period: 16}, 10, 1, 8},
		{window.Spec{Size: 512, Period: 128}, 13, 1, 8},
		{window.Spec{Size: 128_000, Period: 1_000}, 0, 2, 3},
	} {
		cfg := Config{Spec: shape.spec, Phis: []float64{0.5, 0.9, 0.99, 0.999}, FewK: true}
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.ObserveBatch(workload.Generate(workload.NewNetMon(7), shape.subWindow*shape.spec.Period))
		most := 0
		for i := range p.agg.summaries {
			s := &p.agg.summaries[i]
			if s.Managed() != 2 {
				t.Fatalf("%v: %d managed quantiles, want 2", shape.spec, s.Managed())
			}
			wide, narrow := s.Tail(0), s.Tail(1)
			if len(narrow) == 0 || len(narrow) > len(wide) || &narrow[0] != &wide[0] {
				t.Errorf("%v: summary %d stores ϕ = 0.999's tail (%d values) apart from ϕ = 0.99's (%d)", shape.spec, i, len(narrow), len(wide))
			}
			v0, _ := s.Samples(0)
			v1, _ := s.Samples(1)
			stored := len(wide) + 2*len(v0) + 2*len(v1)
			if index := len(s.block) - 2*s.NumQuantiles() - stored; index != shape.index {
				t.Errorf("%v: summary %d has %d index words, want %d", shape.spec, i, index, shape.index)
			}
			most = max(most, len(s.block))
		}
		t.Logf("%d/%d: blocks of at most %d words, %d B in the %d-byte size class; tails of %d and %d values",
			shape.spec.Size, shape.spec.Period, most, 8*most, sizeClass(most), len(p.agg.summaries[0].Tail(0)), len(p.agg.summaries[0].Tail(1)))
		if shape.maxWords > 0 && most > shape.maxWords {
			t.Errorf("%v: a block is %d words, budget %d", shape.spec, most, shape.maxWords)
		}
	}
}

// sizeClass returns the bytes the allocator hands out for a block of n
// words, measured as the allocation total of many such blocks.
func sizeClass(n int) uint64 {
	const reps = 1024
	keep := make([][]float64, reps)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = make([]float64, n)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	return (after.TotalAlloc - before.TotalAlloc) / reps
}

// BenchmarkSummaryRead times the read path of resident summaries: lists
// reads every managed ϕ's tail and samples, cached and Bursty as the few-k
// merges and burst test do, over 16 384 sealed NetMon summaries; answer
// runs answerAt for every ϕ over each window of resident summaries.
func BenchmarkSummaryRead(b *testing.B) {
	for _, spec := range []window.Spec{{Size: 64, Period: 16}, {Size: 512, Period: 128}} {
		p, err := New(Config{Spec: spec, Phis: []float64{0.5, 0.9, 0.99, 0.999}, FewK: true})
		if err != nil {
			b.Fatal(err)
		}
		gen := workload.NewNetMon(7)
		var sums []Summary
		for len(sums) < 1<<14 {
			p.ObserveBatch(workload.Generate(gen, spec.Period))
			sums = append(sums, p.agg.summaries[len(p.agg.summaries)-1])
		}
		m := sums[0].Managed()
		b.Run(spec.String()+"/lists", func(b *testing.B) {
			n := 0
			for range b.N {
				for i := range sums {
					s := &sums[i]
					for mi := range m {
						tail, samples, _ := s.lists(mi)
						top, below := s.cached(mi)
						n += len(tail) + len(samples) + len(top) + len(below) + b2i(s.Bursty(mi))
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sums)*m), "ns/read")
			runtime.KeepAlive(n)
		})
		b.Run(spec.String()+"/answer", func(b *testing.B) {
			var sc mergeScratch
			win := spec.SubWindows()
			est := 0.0
			for range b.N {
				for at := win; at <= len(sums); at += win {
					for i := range p.sh.cfg.Phis {
						v, _ := answerAt(p.sh, p.agg.sums, sums[at-win:at], 1, &sc, i, slices.Index(p.sh.managed, i))
						est += v
					}
				}
			}
			runtime.KeepAlive(est)
		})
	}
}
