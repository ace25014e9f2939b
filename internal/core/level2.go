package core

import (
	"math"
	"slices"
	"sync"

	"repro/internal/stats"
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
	sums      []float64
	summaries []Summary // resident summaries, oldest first (ring-free: N/P is small)
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

// answer is QLOVE's answer, by answerAt per ϕ, over the Level-2 state (sums
// and resident summaries) of streams merged sub-streams of shape sh. A live
// operator (streams 1) and every capture answer through it, so a
// single-stream capture answers bit for bit what its operator would.
// bursts, if not nil, receives each managed ϕ's burst flag. With nothing
// resident it returns zeros and leaves bursts alone.
func answer(sh *Shape, sums []float64, summaries []Summary, streams int, sc *mergeScratch, bursts []bool) []float64 {
	out := make([]float64, len(sh.cfg.Phis))
	if len(summaries) == 0 {
		return out
	}
	for i := range out {
		mi := slices.Index(sh.managed, i)
		var burst bool
		out[i], burst = answerAt(sh, sums, summaries, streams, sc, i, mi)
		if mi >= 0 && bursts != nil {
			bursts[mi] = burst
		}
	}
	return out
}

// answerAt answers ϕ index i over a non-empty resident set: the mean of
// the resident sub-window ϕ-quantiles (guided by the CLT, Appendix A),
// resolved by managedAnswer in a streams×N window when ϕ is few-k managed
// (mi is its index in sh.managed, else -1).
func answerAt(sh *Shape, sums []float64, summaries []Summary, streams int, sc *mergeScratch, i, mi int) (est float64, burst bool) {
	est = sums[i] / float64(len(summaries))
	if mi >= 0 {
		est, burst = sc.managedAnswer(&sh.cfg, summaries, mi, i, sh.cfg.Spec.Size*streams, est)
	}
	return est, burst
}

// errorBounds is the Appendix A bound for each ϕ of sh over the resident
// summaries (see Policy.ErrorBounds). The mean of n sub-window quantiles of
// mᵢ values has variance ϕ(1−ϕ)·Σ(1/mᵢ)/(n²f²): the bound of n full
// sub-windows scaled by √(Σ(Period/mᵢ)/n), which is exactly 1 when every
// mᵢ is Period.
func errorBounds(sh *Shape, summaries []Summary, alpha float64) []float64 {
	cfg := &sh.cfg
	out := make([]float64, len(cfg.Phis))
	n := len(summaries)
	if n == 0 {
		return out
	}
	var r float64
	for k := range summaries {
		r += float64(cfg.Spec.Period) / float64(summaries[k].Count)
	}
	for i, phi := range cfg.Phis {
		if f := meanDensity(summaries, i); f > 0 {
			out[i] = stats.CLTErrorBound(phi, n, cfg.Spec.Period, f, alpha) * math.Sqrt(r/float64(n))
		}
	}
	return out
}

// meanDensity averages the finite sub-window density estimates for phi
// index i; returns 0 when no summary has a usable estimate.
func meanDensity(summaries []Summary, i int) float64 {
	var sum float64
	var n int
	for k := range summaries {
		if s := &summaries[k]; i < s.NumQuantiles() {
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
