package core

import "sync"

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
	sums      []float64
	summaries []Summary // resident summaries, oldest first (ring-free: N/P is small)
	// merge is a stand-alone operator's own few-k merge scratch, made at its
	// first evaluation that needs one; a pooled operator uses its pool's.
	merge *mergeScratch
}

func newLevel2(nPhis int) *level2 {
	return &level2{sums: make([]float64, nPhis)}
}

// accumulate adds a freshly sealed summary.
func (l *level2) accumulate(s Summary) {
	for i := range l.sums {
		l.sums[i] += s.Quantile(i)
	}
	l.summaries = append(l.summaries, s)
}

// deaccumulate removes the oldest summary (one whole sub-window at a
// time — QLOVE never deaccumulates individual elements).
func (l *level2) deaccumulate() {
	if len(l.summaries) == 0 {
		return
	}
	old := &l.summaries[0]
	for i := range l.sums {
		l.sums[i] -= old.Quantile(i)
	}
	// Shift rather than reslice so expired summaries' blocks are promptly
	// collectible.
	copy(l.summaries, l.summaries[1:])
	l.summaries[len(l.summaries)-1] = Summary{}
	l.summaries = l.summaries[:len(l.summaries)-1]
}

// count returns the number of resident summaries.
func (l *level2) count() int { return len(l.summaries) }

// reset drops every resident summary and zeroes the running sums, keeping
// slice capacity so a recycled operator reaches steady state without
// reallocating. Expired summaries are zeroed first so their blocks are
// promptly collectible.
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

// meanDensity averages the finite sub-window density estimates for phi
// index i; returns 0 when no summary has a usable estimate.
func (l *level2) meanDensity(i int) float64 {
	var sum float64
	var n int
	for k := range l.summaries {
		if s := &l.summaries[k]; i < s.NumQuantiles() {
			d := s.Density(i)
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
	for i := range l.summaries {
		n += l.summaries[i].fewkValues()
	}
	return n
}

// spaceUsage counts resident variables: l quantile slots per summary plus
// every cached tail value and sample.
func (l *level2) spaceUsage() int {
	n := 0
	for i := range l.summaries {
		n += l.summaries[i].NumQuantiles() + l.summaries[i].fewkValues()
	}
	return n
}
