package stats

import (
	"cmp"
	"math"
	"slices"
)

// MannWhitneyResult holds the outcome of a one-sided Mann–Whitney U test of
// whether sample X is stochastically larger than sample Y.
type MannWhitneyResult struct {
	U      float64 // U statistic for X
	Z      float64 // normal-approximation z score (tie-corrected)
	PValue float64 // one-sided p-value for H1: X stochastically larger than Y
}

// RankBuf is MannWhitney's pooled-observation buffer. A caller that runs the
// test repeatedly (the burst detector does, once per seal) keeps one and
// passes it back in, and the test stops allocating once the buffer has grown
// to the largest pooled sample; the zero value is ready to use.
type RankBuf []rankObs

type rankObs struct {
	v     float64
	fromX bool
}

// MannWhitney performs the one-sided Mann–Whitney U test [Mann & Whitney
// 1947] with the normal approximation and tie correction. QLOVE's runtime
// traffic handler (§4.3) uses it to decide whether the sampled largest
// values of the current sub-window are stochastically larger than those of
// the previous sub-window, which signals bursty traffic.
//
// Both samples must be non-empty; otherwise it returns a zero-information
// result with PValue = 1. buf may be nil (the test then allocates its own).
// The pooled sort need not be stable: tied observations share one mid-rank,
// so their order never reaches U.
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
		// All values tied: no evidence either way.
		return MannWhitneyResult{U: u, PValue: 1}
	}
	// Continuity correction toward the null.
	z := (u - mu - 0.5) / math.Sqrt(sigma2)
	return MannWhitneyResult{U: u, Z: z, PValue: 1 - NormalCDF(z)}
}

// StochasticallyLarger reports whether sample x is stochastically larger
// than sample y at significance level alpha, per the one-sided
// Mann–Whitney U test; buf is MannWhitney's.
func StochasticallyLarger(x, y []float64, alpha float64, buf *RankBuf) bool {
	return MannWhitney(x, y, buf).PValue < alpha
}
