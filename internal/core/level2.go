package core

import (
	"sync"

	"repro/internal/core/fewk"
)

// level2 is QLOVE's window-level aggregator (§3.1 Level 2): a sliding
// window over sub-window summaries. Per the paper it is "almost identical
// to the incremental evaluation for the average" — one sum/count pair per
// configured quantile, accumulated when a summary arrives and
// deaccumulated when a summary expires, in O(l) per period regardless of
// sub-window size.
// Policy.Snapshot copies sums and summaries from any goroutine, so the owner
// holds mu around its three writes (Policy.EndPeriod, Expire, Reset); its own
// reads need no lock. With mu the struct stays in its 64-byte size class.
type level2 struct {
	mu        sync.Mutex
	nPhis     int
	sums      []float64
	summaries []Summary // resident summaries, oldest first (ring-free: N/P is small)
}

func newLevel2(nPhis int) *level2 {
	return &level2{nPhis: nPhis, sums: make([]float64, nPhis)}
}

// accumulate adds a freshly sealed summary.
func (l *level2) accumulate(s Summary) {
	for i, q := range s.Quantiles {
		l.sums[i] += q
	}
	l.summaries = append(l.summaries, s)
}

// deaccumulate removes the oldest summary (one whole sub-window at a
// time — QLOVE never deaccumulates individual elements).
func (l *level2) deaccumulate() {
	if len(l.summaries) == 0 {
		return
	}
	old := l.summaries[0]
	for i, q := range old.Quantiles {
		l.sums[i] -= q
	}
	// Shift rather than reslice so expired summaries (and their few-k
	// tails) are promptly collectible.
	copy(l.summaries, l.summaries[1:])
	l.summaries[len(l.summaries)-1] = Summary{}
	l.summaries = l.summaries[:len(l.summaries)-1]
}

// count returns the number of resident summaries.
func (l *level2) count() int { return len(l.summaries) }

// reset drops every resident summary and zeroes the running sums, keeping
// slice capacity so a recycled operator reaches steady state without
// reallocating. Expired summaries are zeroed first so their few-k caches
// are promptly collectible.
func (l *level2) reset() {
	for i := range l.sums {
		l.sums[i] = 0
	}
	for i := range l.summaries {
		l.summaries[i] = Summary{}
	}
	l.summaries = l.summaries[:0]
}

// estimate returns the aggregated ϕ-quantile for phi index i: the mean of
// the resident sub-window quantiles (guided by the CLT, Appendix A).
func (l *level2) estimate(i int) float64 {
	if len(l.summaries) == 0 {
		return 0
	}
	return l.sums[i] / float64(len(l.summaries))
}

// cached gathers, per resident summary, every value retained for managed
// quantile mi — the k_t top values plus the k_s samples. Section 4 opens
// with "each sub-window collects k data points among the largest values
// ... and uses the k values to compute the target high quantile": top-k
// merging reads the union, not only the k_t share.
func (l *level2) cached(mi int) [][]float64 { return cachedOf(l.summaries, mi) }

// samples gathers the weighted sample-k lists for managed quantile mi.
func (l *level2) samples(mi int) [][]fewk.Sample { return samplesOf(l.summaries, mi) }

// anyBursty reports whether any resident summary carries a seal-time
// burst flag for managed quantile mi: a bursty sub-window keeps
// influencing the window's high quantiles for as long as it stays
// resident.
func (l *level2) anyBursty(mi int) bool { return anyBurstyOf(l.summaries, mi) }

// cachedOf, samplesOf and anyBurstyOf are the slice-level forms of the
// accessors above, shared with Snapshot so a captured summary set is read
// exactly — bit for bit — the way a live operator reads its own.

func cachedOf(summaries []Summary, mi int) [][]float64 {
	out := make([][]float64, 0, len(summaries))
	for i := range summaries {
		if vs := summaries[i].cachedValues(mi); vs != nil {
			out = append(out, vs)
		}
	}
	return out
}

func samplesOf(summaries []Summary, mi int) [][]fewk.Sample {
	out := make([][]fewk.Sample, 0, len(summaries))
	for _, s := range summaries {
		if mi < len(s.Samples) {
			out = append(out, s.Samples[mi])
		}
	}
	return out
}

func anyBurstyOf(summaries []Summary, mi int) bool {
	for i := range summaries {
		b := summaries[i].BurstyVsPrev
		if mi < len(b) && b[mi] {
			return true
		}
	}
	return false
}

// meanDensity averages the finite sub-window density estimates for phi
// index i; returns 0 when no summary has a usable estimate.
func (l *level2) meanDensity(i int) float64 {
	var sum float64
	var n int
	for _, s := range l.summaries {
		if i < len(s.Densities) {
			d := s.Densities[i]
			if d > 0 && !isInf(d) {
				sum += d
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func isInf(f float64) bool { return f > 1e308 }

// fewkSpace counts only the few-k storage: cached tail values and samples
// across resident summaries (the space the paper reports in Tables 3–4).
func (l *level2) fewkSpace() int {
	n := 0
	for _, s := range l.summaries {
		for _, t := range s.Tails {
			n += len(t)
		}
		for _, sm := range s.Samples {
			n += len(sm)
		}
	}
	return n
}

// spaceUsage counts resident variables: l quantile slots per summary plus
// every cached tail value and sample.
func (l *level2) spaceUsage() int {
	n := 0
	for _, s := range l.summaries {
		n += len(s.Quantiles)
		for _, t := range s.Tails {
			n += len(t)
		}
		for _, sm := range s.Samples {
			n += len(sm)
		}
	}
	return n
}
