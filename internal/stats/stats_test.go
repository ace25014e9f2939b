package stats

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestCeilRank(t *testing.T) {
	cases := []struct {
		phi  float64
		n    int
		want int
	}{
		{0.5, 100, 50},
		{0.5, 101, 51},
		{0.999, 1000, 999},
		{0.999, 100, 100},
		{1.0, 10, 10},
		{0.0001, 10, 1},
		{0.99, 100000, 99000},
	}
	for _, c := range cases {
		if got := CeilRank(c.phi, c.n); got != c.want {
			t.Errorf("CeilRank(%v, %d) = %d, want %d", c.phi, c.n, got, c.want)
		}
	}
}

func TestCeilRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CeilRank(0.5, 0) did not panic")
		}
	}()
	CeilRank(0.5, 0)
}

func TestQuantileBasics(t *testing.T) {
	data := []float64{9, 1, 5, 3, 7}
	if got := Quantile(data, 0.5); got != 5 {
		t.Fatalf("Quantile(0.5) = %v, want 5", got)
	}
	if got := Quantile(data, 1.0); got != 9 {
		t.Fatalf("Quantile(1.0) = %v, want 9", got)
	}
	if got := Quantile(data, 0.01); got != 1 {
		t.Fatalf("Quantile(0.01) = %v, want 1", got)
	}
	// input untouched
	if data[0] != 9 {
		t.Fatal("Quantile modified its input")
	}
}

func TestQuantilesMatchesQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]float64, 1000)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	phis := []float64{0.1, 0.5, 0.9, 0.99}
	got := Quantiles(data, phis)
	for i, phi := range phis {
		if want := Quantile(data, phi); got[i] != want {
			t.Errorf("Quantiles[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestQuantileSorted(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	if got := QuantileSorted(s, 0.6); got != 3 {
		t.Fatalf("QuantileSorted = %v, want 3", got)
	}
}

func TestMeanVarStd(t *testing.T) {
	data := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(data); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	// sample variance with n-1: sum sq dev = 32, /7
	if got, want := Variance(data), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
	if got := StdDev(data); math.Abs(got-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Fatalf("StdDev = %v", got)
	}
	if Variance([]float64{1}) != 0 {
		t.Fatal("Variance of singleton != 0")
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("RelativeError = %v, want 0.1", got)
	}
	if got := RelativeError(90, 100); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("RelativeError = %v, want 0.1", got)
	}
	if got := RelativeError(0, 0); got != 0 {
		t.Fatalf("RelativeError(0,0) = %v, want 0", got)
	}
	if got := RelativeError(1, 0); !math.IsInf(got, 1) {
		t.Fatalf("RelativeError(1,0) = %v, want +Inf", got)
	}
	if got := RelativeError(-90, -100); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("RelativeError(-90,-100) = %v, want 0.1", got)
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{1, 0.8413447460685429},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	for _, p := range []float64{1e-9, 1e-4, 0.01, 0.025, 0.3, 0.5, 0.7, 0.975, 0.99, 0.9999, 1 - 1e-9} {
		x := NormalQuantile(p)
		if got := NormalCDF(x); math.Abs(got-p) > 1e-12 {
			t.Errorf("NormalCDF(NormalQuantile(%v)) = %v", p, got)
		}
	}
	if got := NormalQuantile(0.975); math.Abs(got-1.959963984540054) > 1e-9 {
		t.Errorf("NormalQuantile(0.975) = %v", got)
	}
}

func TestNormalQuantilePanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalQuantile(%v) did not panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestDensityAtNormal(t *testing.T) {
	// For N(0,1), density at the median is 1/sqrt(2π) ≈ 0.3989.
	rng := rand.New(rand.NewSource(5))
	data := make([]float64, 200000)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	got := DensityAt(data, 0.5)
	want := 1 / math.Sqrt(2*math.Pi)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("DensityAt(0.5) = %v, want ≈ %v", got, want)
	}
}

func TestDensityAtPointMass(t *testing.T) {
	data := make([]float64, 100)
	for i := range data {
		data[i] = 7
	}
	if got := DensityAt(data, 0.5); !math.IsInf(got, 1) {
		t.Fatalf("DensityAt point mass = %v, want +Inf", got)
	}
}

func TestCLTErrorBound(t *testing.T) {
	// Bound shrinks like 1/sqrt(nm) and is 0 for point mass.
	b1 := CLTErrorBound(0.5, 10, 1000, 0.4, 0.05)
	b2 := CLTErrorBound(0.5, 40, 1000, 0.4, 0.05)
	if math.Abs(b1/b2-2) > 1e-9 {
		t.Fatalf("bound scaling: b1=%v b2=%v ratio=%v want 2", b1, b2, b1/b2)
	}
	if got := CLTErrorBound(0.5, 10, 1000, math.Inf(1), 0.05); got != 0 {
		t.Fatalf("bound with infinite density = %v, want 0", got)
	}
	// Hand computation: 2*1.96*sqrt(0.25)/(sqrt(10000)*0.4)
	want := 2 * NormalQuantile(0.975) * 0.5 / (100 * 0.4)
	if math.Abs(b1-want) > 1e-12 {
		t.Fatalf("bound = %v, want %v", b1, want)
	}
}

func TestCLTErrorBoundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CLTErrorBound with n=0 did not panic")
		}
	}()
	CLTErrorBound(0.5, 0, 10, 0.4, 0.05)
}

func TestCLTBoundCoversObservedError(t *testing.T) {
	// Empirically: with i.i.d. normal data, |mean of sub-window medians −
	// window median| should fall inside the 95% bound nearly always.
	rng := rand.New(rand.NewSource(11))
	const n, m = 20, 2000
	misses := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		window := make([]float64, 0, n*m)
		var subMedians []float64
		for i := 0; i < n; i++ {
			sub := make([]float64, m)
			for j := range sub {
				sub[j] = 1e6 + 5e4*rng.NormFloat64()
			}
			subMedians = append(subMedians, Quantile(sub, 0.5))
			window = append(window, sub...)
		}
		ya := Mean(subMedians)
		ye := Quantile(window, 0.5)
		f := DensityAt(window, 0.5)
		eb := CLTErrorBound(0.5, n, m, f, 0.05)
		if math.Abs(ya-ye) > eb {
			misses++
		}
	}
	if misses > trials/10 {
		t.Fatalf("CLT bound missed %d/%d trials", misses, trials)
	}
}

// descending returns a copy of x sorted descending, the order
// MannWhitneyDescending reads.
func descending(x []float64) []float64 {
	s := slices.Clone(x)
	slices.SortFunc(s, func(a, b float64) int { return cmp.Compare(b, a) })
	return s
}

func TestMannWhitneyDetectsShift(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, 50)
	y := make([]float64, 50)
	for i := range x {
		x[i] = 10 + rng.NormFloat64() // clearly larger
		y[i] = rng.NormFloat64()
	}
	x, y = descending(x), descending(y)
	res := MannWhitneyDescending(x, y)
	if res.PValue > 1e-6 {
		t.Fatalf("p-value for obvious shift = %v, want tiny", res.PValue)
	}
	if !(MannWhitneyDescending(x, y).PValue < 0.05) {
		t.Fatal("obvious shift not significant at 0.05")
	}
	// Reverse direction: y vs x should NOT be flagged.
	if MannWhitneyDescending(y, x).PValue < 0.05 {
		t.Fatal("the smaller sample flagged as larger")
	}
}

func TestMannWhitneyNullDistribution(t *testing.T) {
	// Same-distribution samples: rejection rate at alpha=0.05 should be
	// near 5%.
	rng := rand.New(rand.NewSource(10))
	rejections := 0
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		x := make([]float64, 40)
		y := make([]float64, 40)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		if MannWhitneyDescending(descending(x), descending(y)).PValue < 0.05 {
			rejections++
		}
	}
	rate := float64(rejections) / trials
	if rate > 0.10 {
		t.Fatalf("null rejection rate = %v, want ≈ 0.05", rate)
	}
}

func TestMannWhitneyTies(t *testing.T) {
	// All-equal samples must not be flagged and must not NaN.
	x := []float64{5, 5, 5, 5}
	y := []float64{5, 5, 5, 5}
	res := MannWhitneyDescending(x, y)
	if res.PValue != 1 {
		t.Fatalf("all-ties p-value = %v, want 1", res.PValue)
	}
	if math.IsNaN(res.Z) {
		t.Fatal("Z is NaN for all-ties input")
	}
}

// RankBuf is MannWhitney's pooled-observation buffer; the zero value is
// ready to use.
type RankBuf []rankObs

type rankObs struct {
	v     float64
	fromX bool
}

// MannWhitney is the textbook test MannWhitneyDescending must match bit for
// bit: pool both samples, in any order, sort the pool ascending, and give
// each run of tied values its midrank. The sort need not be stable: tied
// observations share one midrank, so their order never reaches U. buf may
// be nil.
func MannWhitney(x, y []float64, buf *RankBuf) MannWhitneyResult {
	nx, ny := len(x), len(y)
	if nx == 0 || ny == 0 {
		return MannWhitneyResult{PValue: 1}
	}
	if buf == nil {
		buf = new(RankBuf)
	}
	all := (*buf)[:0]
	for _, v := range x {
		all = append(all, rankObs{v, true})
	}
	for _, v := range y {
		all = append(all, rankObs{v, false})
	}
	*buf = all
	slices.SortFunc(all, func(a, b rankObs) int { return cmp.Compare(a.v, b.v) })

	// Midranks with tie correction term Σ(t³−t).
	n := nx + ny
	var rankSumX, tieTerm float64
	for i := 0; i < n; {
		j := i
		for j < n && all[j].v == all[i].v {
			j++
		}
		t := float64(j - i)
		mid := (float64(i+1) + float64(j)) / 2 // average 1-based rank
		for k := i; k < j; k++ {
			if all[k].fromX {
				rankSumX += mid
			}
		}
		if t > 1 {
			tieTerm += t*t*t - t
		}
		i = j
	}
	u := rankSumX - float64(nx)*float64(nx+1)/2
	mu := float64(nx) * float64(ny) / 2
	nn := float64(n)
	sigma2 := float64(nx) * float64(ny) / 12 * (nn + 1 - tieTerm/(nn*(nn-1)))
	if sigma2 <= 0 {
		return MannWhitneyResult{U: u, PValue: 1}
	}
	z := (u - mu - 0.5) / math.Sqrt(sigma2)
	return MannWhitneyResult{U: u, Z: z, PValue: 1 - NormalCDF(z)}
}

// TestMannWhitneyMatchesSortSlice holds the merge walk to the sorting
// reference, bit for bit in U, Z and the p-value, on tie-heavy descending
// pairs: values drawn from a handful of levels, as quantized telemetry
// tails are, shifted against each other so that either sample may lead,
// with ±0 mixed in. Most pairs are short; every 50th is as long as a
// paper-window tail (hundreds of values), where the sums are largest.
func TestMannWhitneyMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var buf RankBuf
	negZero := math.Copysign(0, -1)
	for trial := 0; trial < 20_000; trial++ {
		levels := 1 + rng.Intn(8)
		maxLen := 40
		if trial%50 == 0 {
			maxLen = 1500
		}
		draw := func(shift float64) []float64 {
			v := make([]float64, 1+rng.Intn(maxLen))
			for i := range v {
				switch x := float64(rng.Intn(levels)) + shift; {
				case x == 0 && rng.Intn(2) == 0:
					v[i] = negZero
				default:
					v[i] = x * 0.37
				}
			}
			return descending(v)
		}
		x, y := draw(float64(trial%3)), draw(float64(rng.Intn(3)-1))
		got, want := MannWhitneyDescending(x, y), MannWhitney(x, y, &buf)
		if math.Float64bits(got.U) != math.Float64bits(want.U) ||
			math.Float64bits(got.Z) != math.Float64bits(want.Z) ||
			math.Float64bits(got.PValue) != math.Float64bits(want.PValue) {
			t.Fatalf("trial %d: merge walk %+v, sorting reference %+v (x=%v y=%v)", trial, got, want, x, y)
		}
	}
}

func TestMannWhitneyEmpty(t *testing.T) {
	for _, c := range []struct{ x, y []float64 }{
		{nil, []float64{1}},
		{[]float64{1}, nil},
	} {
		if got := MannWhitneyDescending(c.x, c.y).PValue; got != 1 {
			t.Fatalf("x=%v y=%v: p-value = %v, want 1", c.x, c.y, got)
		}
		if got := MannWhitney(c.x, c.y, nil).PValue; got != 1 {
			t.Fatalf("x=%v y=%v: reference p-value = %v, want 1", c.x, c.y, got)
		}
	}
}

func TestErrorAccumulator(t *testing.T) {
	var acc ErrorAccumulator
	acc.Observe(110, 100, 52000, 50000, 100000, true)
	acc.Observe(100, 100, 50000, 50000, 100000, true)
	if got := acc.Evaluations(); got != 2 {
		t.Fatalf("Evaluations = %d, want 2", got)
	}
	if got := acc.AvgRelErrPct(); math.Abs(got-5) > 1e-9 {
		t.Fatalf("AvgRelErrPct = %v, want 5", got)
	}
	if got := acc.AvgRankErr(); math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("AvgRankErr = %v, want 0.01", got)
	}
	if got := acc.MaxRelErrPct(); math.Abs(got-10) > 1e-9 {
		t.Fatalf("MaxRelErrPct = %v, want 10", got)
	}
	if got := acc.MaxRankErr(); math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("MaxRankErr = %v, want 0.02", got)
	}
}

func TestErrorAccumulatorInfiniteExcluded(t *testing.T) {
	var acc ErrorAccumulator
	acc.Observe(1, 0, 0, 0, 0, false) // infinite relative error
	acc.Observe(105, 100, 0, 0, 0, false)
	if got := acc.AvgRelErrPct(); math.Abs(got-5) > 1e-9 {
		t.Fatalf("AvgRelErrPct = %v, want 5 (inf excluded)", got)
	}
}

func TestErrorAccumulatorEmpty(t *testing.T) {
	var acc ErrorAccumulator
	if acc.AvgRelErrPct() != 0 || acc.AvgRankErr() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
}

func TestRankOf(t *testing.T) {
	sorted := []float64{1, 3, 3, 5, 9}
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {1, 1}, {2, 1}, {3, 3}, {5, 4}, {9, 5}, {10, 5},
	}
	for _, c := range cases {
		if got := RankOf(sorted, c.v); got != c.want {
			t.Errorf("RankOf(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

// Property: Quantile matches direct index into sorted copy for random phi.
func TestQuickQuantileDefinition(t *testing.T) {
	f := func(raw []int16, phiSeed uint8) bool {
		if len(raw) == 0 {
			return true
		}
		phi := (float64(phiSeed) + 1) / 257 // in (0,1)
		data := make([]float64, len(raw))
		for i, r := range raw {
			data[i] = float64(r)
		}
		got := Quantile(data, phi)
		s := append([]float64(nil), data...)
		sort.Float64s(s)
		want := s[CeilRank(phi, len(s))-1]
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Mann–Whitney p-value is always in [0, 1].
func TestQuickMannWhitneyPValueRange(t *testing.T) {
	f := func(xr, yr []int8) bool {
		x := make([]float64, len(xr))
		y := make([]float64, len(yr))
		for i, v := range xr {
			x[i] = float64(v)
		}
		for i, v := range yr {
			y[i] = float64(v)
		}
		p := MannWhitneyDescending(descending(x), descending(y)).PValue
		return p >= 0 && p <= 1 && !math.IsNaN(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMannWhitneyFloorIsMinimum enumerates every pair of descending samples
// of up to MannWhitneyFloorSize values each — every sequence of tie groups,
// each group holding some x and some y values — and checks that none
// returns a smaller p-value than MannWhitneyFloor, which the fully
// separated, all-tied pair attains.
func TestMannWhitneyFloorIsMinimum(t *testing.T) {
	for nx := 0; nx <= MannWhitneyFloorSize; nx++ {
		for ny := 0; ny <= MannWhitneyFloorSize; ny++ {
			floor, ok := MannWhitneyFloor(nx, ny)
			if !ok {
				t.Fatalf("MannWhitneyFloor(%d, %d) not answered", nx, ny)
			}
			least, pairs := 2.0, 0
			var x, y []float64
			// groups appends tie groups of the rx x values and ry y values
			// still to place, each one value below the last.
			var groups func(rx, ry int, v float64)
			groups = func(rx, ry int, v float64) {
				if rx == 0 && ry == 0 {
					least = min(least, MannWhitneyDescending(x, y).PValue)
					pairs++
					return
				}
				for cx := 0; cx <= rx; cx++ {
					for cy := 0; cy <= ry; cy++ {
						if cx+cy == 0 {
							continue
						}
						lx, ly := len(x), len(y)
						for range cx {
							x = append(x, v)
						}
						for range cy {
							y = append(y, v)
						}
						groups(rx-cx, ry-cy, v-1)
						x, y = x[:lx], y[:ly]
					}
				}
			}
			groups(nx, ny, 0)
			if least != floor {
				t.Errorf("n = %d, %d: least p over %d pairs %v, floor %v", nx, ny, pairs, least, floor)
			}
		}
	}
	if _, ok := MannWhitneyFloor(MannWhitneyFloorSize+1, 1); ok {
		t.Error("MannWhitneyFloor answered beyond the enumerated sizes")
	}
}
