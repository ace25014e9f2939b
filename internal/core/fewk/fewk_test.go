package fewk

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestExactTailSize(t *testing.T) {
	cases := []struct {
		n    int
		phi  float64
		want int
	}{
		{128000, 0.999, 129}, // N − ⌈ϕN⌉ + 1 = 128000 − 127872 + 1
		{128000, 0.99, 1281},
		{100000, 0.999, 101},
		{1000, 0.9999, 1},
		{100, 0.5, 51},
	}
	for _, c := range cases {
		if got := ExactTailSize(c.n, c.phi); got != c.want {
			t.Errorf("ExactTailSize(%d, %v) = %d, want %d", c.n, c.phi, got, c.want)
		}
	}
}

func TestNeedsTopK(t *testing.T) {
	// P(1-phi) < 10: with P=16K, phi=0.999 -> 16 >= 10 -> no top-k needed.
	if NeedsTopK(16000, 0.999, 10) {
		t.Error("16K period Q0.999 flagged, want not")
	}
	// P=8K, phi=0.999 -> 8 < 10 -> top-k needed (paper: periods < 16K).
	if !NeedsTopK(8000, 0.999, 10) {
		t.Error("8K period Q0.999 not flagged")
	}
	// Q0.5 never needs top-k at realistic periods.
	if NeedsTopK(1000, 0.5, 10) {
		t.Error("Q0.5 flagged at 1K period")
	}
}

func TestPlanBudget(t *testing.T) {
	// Paper's Table 3 setting: window 128K, phi 0.999 -> exact cache 128;
	// fraction 0.1 -> k = 13.
	b, err := PlanBudget(128000, 1000, 0.999, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if b.K != 13 {
		t.Fatalf("K = %d, want 13", b.K)
	}
	if b.Kt != 7 { // half-budget floor dominates 2·P(1-phi) = 2
		t.Fatalf("Kt = %d, want 7", b.Kt)
	}
	if b.Ks != 6 {
		t.Fatalf("Ks = %d, want 6", b.Ks)
	}
	// Fraction 1 -> exact budget, all of it in the contiguous cache.
	b, _ = PlanBudget(128000, 1000, 0.999, 1)
	if b.K != 129 || b.Kt != 129 || b.Ks != 0 {
		t.Fatalf("full-fraction budget = %+v", b)
	}
}

func TestPlanBudgetKtDominatesAtLowPhi(t *testing.T) {
	// Large P(1-phi) relative to budget: kt is clamped to k.
	b, err := PlanBudget(1000, 500, 0.9, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// exact = 100, k = 10, P(1-phi) = 50 -> kt clamped to 10, ks = 0.
	if b.K != 10 || b.Kt != 10 || b.Ks != 0 {
		t.Fatalf("budget = %+v", b)
	}
}

func TestPlanBudgetValidation(t *testing.T) {
	if _, err := PlanBudget(100, 10, 0.99, 0); err == nil {
		t.Fatal("fraction 0 accepted")
	}
	if _, err := PlanBudget(100, 10, 0.99, 1.5); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
	if _, err := PlanBudget(5, 10, 0.99, 0.5); err == nil {
		t.Fatal("window < period accepted")
	}
}

// sampleTail runs SampleTail into fresh destinations of the size it asks for.
func sampleTail(tail []float64, ks int) (values, weights []float64) {
	n := SampleCount(len(tail), ks)
	values, weights = make([]float64, n), make([]float64, n)
	SampleTail(values, weights, tail)
	return values, weights
}

func TestSampleTail(t *testing.T) {
	tail := []float64{100, 90, 80, 70, 60, 50, 40, 30, 20, 10} // descending
	vs, ws := sampleTail(tail, 5)
	if len(vs) != 5 {
		t.Fatalf("sampled %d values, want 5", len(vs))
	}
	// Evenly spaced 1-based ranks anchored at both ends:
	// 1, 1+round(9/4)=3, 1+round(18/4)=6, 1+round(27/4)=8, 10.
	wantV := []float64{100, 80, 50, 30, 10}
	wantW := []float64{1, 2, 3, 2, 2}
	var wsum float64
	for i := range wantV {
		if vs[i] != wantV[i] || ws[i] != wantW[i] {
			t.Fatalf("sample = %v / %v, want values %v weights %v", vs, ws, wantV, wantW)
		}
		wsum += ws[i]
	}
	// Weights tile the sampled rank range exactly.
	if wsum != 10 {
		t.Fatalf("weights sum to %v, want 10", wsum)
	}
	// Both anchors always present.
	if vs[0] != tail[0] || vs[len(vs)-1] != tail[len(tail)-1] {
		t.Fatal("samples not anchored at both ends")
	}
}

func TestSampleTailEdge(t *testing.T) {
	if got, _ := sampleTail(nil, 5); len(got) != 0 {
		t.Fatalf("nil tail sample = %v", got)
	}
	if got, _ := sampleTail([]float64{5}, 0); len(got) != 0 {
		t.Fatalf("ks=0 sample = %v", got)
	}
	// ks >= len: full copy with unit weights.
	vs, ws := sampleTail([]float64{3, 2, 1}, 10)
	if len(vs) != 3 || vs[0] != 3 || ws[0] != 1 {
		t.Fatalf("oversized ks sample = %v / %v", vs, ws)
	}
	// ks == 1: single deepest value carrying the whole tail weight.
	vs, ws = sampleTail([]float64{9, 8, 7, 6}, 1)
	if len(vs) != 1 || vs[0] != 6 || ws[0] != 4 {
		t.Fatalf("ks=1 sample = %v / %v", vs, ws)
	}
}

func TestSampleTailAlwaysIncludesDeepValues(t *testing.T) {
	// Interval sampling must span the whole tail, not just its head.
	tail := make([]float64, 100)
	for i := range tail {
		tail[i] = float64(100 - i)
	}
	vs, _ := sampleTail(tail, 4)
	if vs[len(vs)-1] != 1 {
		t.Fatalf("deepest sample = %v, want the tail end value 1", vs[len(vs)-1])
	}
}

func TestTopKMergeExactWhenBudgetFull(t *testing.T) {
	// With each sub-window caching all its N(1-phi) largest, top-k merge
	// reproduces the exact quantile regardless of distribution pattern
	// (E1..E4 in Figure 3).
	rng := rand.New(rand.NewSource(1))
	const n = 10000
	const subs = 10
	const phi = 0.999
	data := make([]float64, n)
	for i := range data {
		data[i] = rng.Float64() * 1e6
	}
	// E1: all largest in sub-window 0 (sorted data).
	sorted := append([]float64(nil), data...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	for name, arrange := range map[string][]float64{
		"E1-burst": sorted,
		"E4-even":  data,
	} {
		lists := make([][]float64, subs)
		per := n / subs
		k := ExactTailSize(n, phi) // full budget
		for s := 0; s < subs; s++ {
			sub := append([]float64(nil), arrange[s*per:(s+1)*per]...)
			sort.Sort(sort.Reverse(sort.Float64Slice(sub)))
			if len(sub) > k {
				sub = sub[:k]
			}
			lists[s] = sub
		}
		got, ok := TopKMerge(lists, n, phi, new(Scratch))
		if !ok {
			t.Fatalf("%s: no result", name)
		}
		wantRank := ExactTailSize(n, phi)
		want := sorted[wantRank-1]
		if got != want {
			t.Errorf("%s: TopKMerge = %v, want exact %v", name, got, want)
		}
	}
}

func TestTopKMergeEmpty(t *testing.T) {
	if _, ok := TopKMerge(nil, 1000, 0.99, new(Scratch)); ok {
		t.Fatal("empty merge returned ok")
	}
	if _, ok := TopKMerge([][]float64{{}, {}}, 1000, 0.99, new(Scratch)); ok {
		t.Fatal("empty lists returned ok")
	}
}

func TestTopKMergeClampsRank(t *testing.T) {
	// Budget smaller than N(1-phi): falls back to the smallest cached.
	got, ok := TopKMerge([][]float64{{100, 90}, {80}}, 10000, 0.99, new(Scratch)) // wants rank 100
	if !ok || got != 80 {
		t.Fatalf("clamped merge = %v, %v", got, ok)
	}
}

func TestSampleKMergeUniformTail(t *testing.T) {
	// The window's top values (1000, 1001, ...) are spread evenly over 10
	// sub-windows; each sub-window interval-samples half of its share.
	// The merged sample-k read must land near the exact Q0.999, i.e. near
	// the deepest tail value 1000.
	const n = 100000
	const subs = 10
	const phi = 0.999
	exactTail := ExactTailSize(n, phi) // 101
	perSub := (exactTail + subs - 1) / subs
	var values, weights [][]float64
	v := 1000.0
	for s := 0; s < subs; s++ {
		var tail []float64
		for i := 0; i < perSub; i++ {
			tail = append(tail, v)
			v++
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(tail)))
		vs, ws := sampleTail(tail, perSub/2)
		values, weights = append(values, vs), append(weights, ws)
	}
	got, ok := SampleKMerge(values, weights, n, phi, new(Scratch))
	if !ok {
		t.Fatal("no result")
	}
	want := 1000.0 // the exact Q0.999 is the deepest tail value
	if math.Abs(got-want) > 2*float64(subs) {
		t.Fatalf("SampleKMerge = %v, want ≈ %v", got, want)
	}
}

func TestSampleKMergeEmpty(t *testing.T) {
	if _, ok := SampleKMerge(nil, nil, 1000, 0.99, new(Scratch)); ok {
		t.Fatal("empty sample merge returned ok")
	}
}

func TestSampleKMergePureBurstExact(t *testing.T) {
	// E1: one sub-window holds the entire window tail; with the deepest
	// rank anchored, the weighted read recovers the exact quantile.
	const n = 10000
	const phi = 0.999
	tailRank := ExactTailSize(n, phi) // 11
	tail := make([]float64, tailRank)
	for i := range tail {
		tail[i] = float64(100000 - i*1000) // descending
	}
	vs, ws := sampleTail(tail, 5)
	got, ok := SampleKMerge([][]float64{vs}, [][]float64{ws}, n, phi, new(Scratch))
	if !ok {
		t.Fatal("no result")
	}
	if got != tail[tailRank-1] {
		t.Fatalf("pure-burst SampleKMerge = %v, want exact %v", got, tail[tailRank-1])
	}
}

func TestDetectBurst(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	prev := make([]float64, 30)
	cur := make([]float64, 30)
	for i := range prev {
		prev[i] = 1000 + rng.NormFloat64()*50
		cur[i] = 10000 + rng.NormFloat64()*500 // 10x burst
	}
	// DetectBurst reads descending samples, as a sub-window retains them.
	sort.Sort(sort.Reverse(sort.Float64Slice(prev)))
	sort.Sort(sort.Reverse(sort.Float64Slice(cur)))
	if !DetectBurst(cur, prev, DefaultBurstAlpha) {
		t.Fatal("10x burst not detected")
	}
	if DetectBurst(prev, cur, DefaultBurstAlpha) {
		t.Fatal("reverse direction flagged")
	}
	if DetectBurst(nil, prev, DefaultBurstAlpha) {
		t.Fatal("empty current flagged")
	}
}

func TestOutcomeSelection(t *testing.T) {
	cases := []struct {
		burst, statIneff bool
		topOK, sampOK    bool
		want             float64
	}{
		{false, false, true, true, 1}, // calm: level2
		{false, true, true, true, 2},  // inefficiency: top-k
		{true, false, true, true, 3},  // burst: sample-k
		{true, true, true, true, 3},   // burst wins over inefficiency
		{true, false, true, false, 1}, // burst but no samples: level2
		{false, true, false, true, 1}, // inefficiency but no top-k: level2
	}
	for i, c := range cases {
		got := Outcome(1, 2, c.topOK, 3, c.sampOK, c.burst, c.statIneff)
		if got != c.want {
			t.Errorf("case %d: Outcome = %v, want %v", i, got, c.want)
		}
	}
}

// Property: SampleTail output is a subsequence of the tail and descending.
func TestQuickSampleTailSubsequence(t *testing.T) {
	f := func(raw []uint16, ksSeed uint8) bool {
		if len(raw) == 0 {
			return true
		}
		tail := make([]float64, len(raw))
		for i, r := range raw {
			tail[i] = float64(r)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(tail)))
		ks := int(ksSeed%16) + 1
		vs, ws := sampleTail(tail, ks)
		if len(vs) == 0 || len(vs) > ks {
			return false
		}
		// Values form a subsequence of the tail, and weights tile the
		// rank range up to the deepest sampled rank without overlap.
		j := 0
		wsum := 0.0
		for i, v := range vs {
			for j < len(tail) && tail[j] != v {
				j++
			}
			if j == len(tail) || ws[i] < 1 || ws[i] != math.Trunc(ws[i]) {
				return false
			}
			j++
			wsum += ws[i]
		}
		return wsum <= float64(len(tail))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: TopKMerge with full lists equals exact order statistic.
func TestQuickTopKMergeExact(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 20 {
			return true
		}
		n := len(raw) - len(raw)%4
		data := make([]float64, n)
		for i := 0; i < n; i++ {
			data[i] = float64(raw[i])
		}
		phi := 0.9
		k := ExactTailSize(n, phi)
		per := n / 4
		var lists [][]float64
		for s := 0; s < 4; s++ {
			sub := append([]float64(nil), data[s*per:(s+1)*per]...)
			sort.Sort(sort.Reverse(sort.Float64Slice(sub)))
			if len(sub) > k {
				sub = sub[:k]
			}
			lists = append(lists, sub)
		}
		got, ok := TopKMerge(lists, n, phi, new(Scratch))
		if !ok {
			return false
		}
		sorted := append([]float64(nil), data...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		return got == sorted[k-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
