package stats

import "math"

// MannWhitneyResult holds the outcome of a one-sided Mann–Whitney U test of
// whether sample X is stochastically larger than sample Y.
type MannWhitneyResult struct {
	U      float64 // U statistic for X
	Z      float64 // normal-approximation z score (tie-corrected)
	PValue float64 // one-sided p-value for H1: X stochastically larger than Y
}

// MannWhitneyDescending performs the one-sided Mann–Whitney U test [Mann &
// Whitney 1947] with the normal approximation and tie correction. QLOVE's
// runtime traffic handler (§4.3) uses it to decide whether the retained
// largest values of the current sub-window are stochastically larger than
// those of the previous sub-window, which signals bursty traffic.
//
// x and y must each be sorted descending and hold no NaN — the order a
// sub-window's retained tail is already kept in — so the pooled ranking is
// one merge walk of the two runs, from the largest value down, with no
// sort and no buffer. Each run of tied values gets its midrank and adds
// t³−t to the tie term. Midranks are half-integers and tie terms integers,
// so both sums are kept exactly in integers and the result is the textbook
// sort-and-rank computation's, bit for bit, in any walk order (while
// (nx+ny)³ stays below 2^53, i.e. below ~200 000 values).
//
// Both samples must be non-empty; otherwise it returns a zero-information
// result with PValue = 1.
func MannWhitneyDescending(x, y []float64) MannWhitneyResult {
	nx, ny := len(x), len(y)
	if nx == 0 || ny == 0 {
		return MannWhitneyResult{PValue: 1}
	}
	n := nx + ny
	// rank2X is twice X's rank sum; tie is Σ(t³−t).
	var rank2X, tie int64
	i, j := 0, 0
	for i < nx || j < ny {
		var v float64
		switch {
		case j == ny || (i < nx && x[i] > y[j]):
			v = x[i]
		default:
			v = y[j]
		}
		above := i + j // values strictly larger than v
		cx := 0
		for i < nx && x[i] == v {
			i++
			cx++
		}
		cy := 0
		for j < ny && y[j] == v {
			j++
			cy++
		}
		// The run holds ascending 1-based ranks n−above−t+1 … n−above;
		// twice its midrank is their sum.
		t := int64(cx + cy)
		rank2X += int64(cx) * (2*int64(n-above) - t + 1)
		tie += t*t*t - t
	}
	rankSumX := float64(rank2X) / 2
	tieTerm := float64(tie)
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

// MannWhitneyFloorSize is the largest sample size MannWhitneyFloor answers
// for: the sizes up to which TestMannWhitneyFloorIsMinimum enumerates every
// pair of samples.
const MannWhitneyFloorSize = 5

// MannWhitneyFloor returns the smallest p-value MannWhitneyDescending can
// return for samples of nx and ny values: that of the most extreme pair,
// every x tied above every y tied. Ties within each sample shrink the
// variance and so push z further out than distinct values would. ok is
// false when nx or ny exceeds MannWhitneyFloorSize: beyond it, no test has
// checked that this pair is the extreme one.
func MannWhitneyFloor(nx, ny int) (p float64, ok bool) {
	if nx > MannWhitneyFloorSize || ny > MannWhitneyFloorSize {
		return 0, false
	}
	var x, y [MannWhitneyFloorSize]float64
	for i := range x {
		x[i] = 1
	}
	return MannWhitneyDescending(x[:nx], y[:ny]).PValue, true
}
