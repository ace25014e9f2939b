// Package fewk implements QLOVE's few-k merging (§4): the machinery that
// repairs high-quantile estimates when sub-window averaging breaks down.
// Each sub-window retains a few of its largest raw values; at window level
// these are merged to answer high quantiles directly.
//
// Two merging pipelines run side by side:
//
//   - Top-k merging (statistical inefficiency): each sub-window caches its
//     k_t largest values; the merged pool answers the ϕ-quantile by its
//     N(1−ϕ)-th largest element.
//   - Sample-k merging (bursty traffic): each sub-window interval-samples
//     k_s of its N(1−ϕ) largest values; after merging, the answer is read
//     at rank ⌈α·N(1−ϕ)⌉ to factor in the sampling-rate reduction α.
//
// Bursty traffic is detected by a one-sided Mann–Whitney U test comparing
// the newest sub-window's sampled tail against the previous sub-window's
// (§4.3); when flagged, the sample-k outcome takes priority.
package fewk

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// DefaultStatThreshold is T_s, the paper's threshold on P(1−ϕ) below which
// a sub-window has too few tail points for robust estimation (§4.3).
const DefaultStatThreshold = 10

// DefaultBurstAlpha is the significance level of the burst detector.
const DefaultBurstAlpha = 0.05

// ExactTailSize returns the exact from-the-top rank of the ϕ-quantile in a
// window of N elements: N − ⌈ϕN⌉ + 1. The paper writes this as N(1−ϕ);
// the +1 keeps the read rank consistent with the ⌈ϕN⌉ quantile definition
// (at ϕ = 0.999, N = 16000 the difference is rank 16 vs 17 — several
// percent of value on a Pareto tail). It is both the per-sub-window cache
// size that guarantees exactness under worst-case burst (E1 in Figure 3)
// and the window-level read rank.
func ExactTailSize(windowN int, phi float64) int {
	k := windowN - stats.CeilRank(phi, windowN) + 1
	if k < 1 {
		k = 1
	}
	return k
}

// NeedsTopK reports whether the ϕ-quantile suffers statistical
// inefficiency at sub-window size periodP (the paper's P(1−ϕ) < T_s rule).
func NeedsTopK(periodP int, phi float64, threshold float64) bool {
	return float64(periodP)*(1-phi) < threshold
}

// Budget is the per-sub-window space plan for one high quantile.
type Budget struct {
	K  int // total per-sub-window budget (k = k_t + k_s)
	Kt int // top-k share: the k_t largest values, cached exactly
	Ks int // sample-k share: interval samples of the N(1−ϕ) largest
}

// PlanBudget derives the paper's §4.2 budget split for one ϕ-quantile:
// fraction scales the per-sub-window cache relative to the N(1−ϕ) values
// that would guarantee exactness (fraction 1 ⇒ exact). k_t uses the
// paper's conservative sizing — twice the evenly-spread share P(1−ϕ),
// covering the E2 pattern of Figure 3 — and the remainder goes to k_s
// (which is "typically larger than k_t", §4.2). fraction must lie in
// (0, 1].
func PlanBudget(windowN, periodP int, phi, fraction float64) (Budget, error) {
	if fraction <= 0 || fraction > 1 {
		return Budget{}, fmt.Errorf("fewk: fraction %v outside (0, 1]", fraction)
	}
	if windowN < periodP || periodP < 1 {
		return Budget{}, fmt.Errorf("fewk: bad window %d / period %d", windowN, periodP)
	}
	exact := ExactTailSize(windowN, phi)
	k := int(math.Round(fraction * float64(exact)))
	if k < 1 {
		k = 1
	}
	// Budget covering the whole worst-case tail: the contiguous top-k
	// cache alone guarantees the exact answer for any pattern E1–E4
	// (§4.2), so sampling is unnecessary.
	if k >= exact {
		return Budget{K: k, Kt: k, Ks: 0}, nil
	}
	// Conservative E2 sizing (twice the evenly-spread share), floored at
	// half the budget so the contiguous cache stays deep enough to absorb
	// ordinary clustering of tail values.
	kt := 2 * int(math.Round(float64(periodP)*(1-phi)))
	if half := (k + 1) / 2; kt < half {
		kt = half
	}
	if kt > k {
		kt = k
	}
	return Budget{K: k, Kt: kt, Ks: k - kt}, nil
}

// SampleCount returns how many interval samples a sub-window retains of a
// descending tail of n values under a sample-k share of ks: min(ks, n), and
// none when either is empty.
func SampleCount(n, ks int) int {
	if ks <= 0 || n <= 0 {
		return 0
	}
	return min(ks, n)
}

// SampleTail interval-samples tail, which must hold a sub-window's largest
// values sorted in descending order (at most N(1−ϕ) of them), into values
// and weights — two equally long destinations of SampleCount(len(tail), ks)
// slots, whose length is the ks that applies. values[i] is the element at
// some rank r of the tail and weights[i] the number of tail ranks it
// represents (the gap back to the previous sampled rank, an exact integer):
// weights let the window-level merge reconstruct global ranks exactly,
// whatever sampling rate each sub-window used.
//
// Samples are evenly spaced over the ranked tail and anchored at BOTH ends —
// the first sample is the sub-window's maximum and the last its deepest tail
// value. Anchoring the maximum matters when burst values from one sub-window
// interleave with other sub-windows' ordinary maxima (the realistic burst
// pattern): the global quantile then sits near another sub-window's top
// ranks, which midpoint-phased sampling systematically misses. Anchoring the
// deepest rank keeps the merged read exact under the pure E1 burst.
func SampleTail(values, weights, tail []float64) {
	n, ks := len(tail), len(values)
	switch {
	case ks == 0:
	case ks >= n:
		for i, v := range tail {
			values[i], weights[i] = v, 1
		}
	case ks == 1:
		values[0], weights[0] = tail[n-1], float64(n)
	default:
		prev := 0
		for i := 0; i < ks; i++ {
			r := 1 + int(math.Round(float64(i)*float64(n-1)/float64(ks-1)))
			values[i], weights[i] = tail[r-1], float64(r-prev)
			prev = r
		}
	}
}

// Scratch is the reusable working state of the window-level merges: the
// merge heap's head values and index arrays. An evaluation that passes the
// same Scratch every time stops allocating once the arrays have grown to
// the window's sub-window count. The zero value is ready to use; a Scratch
// serves one caller at a time.
type Scratch struct {
	vs      []float64
	li, pos []int32
}

// TopKMerge merges the cached top-k lists of all sub-windows (each sorted
// descending) and answers the ϕ-quantile of a window of size windowN by
// its N(1−ϕ)-th largest merged value. When fewer values are available the
// smallest merged value is returned (the paper's behaviour when the budget
// undershoots a burst). Returns ok=false when no values are cached.
//
// The merge walks a max-heap of list heads and stops at the read rank, so
// the per-evaluation cost is O(rank·log L) for L lists instead of sorting
// every cached value. A sub-window may contribute its values as several
// descending lists: only the merged order is read.
func TopKMerge(lists [][]float64, windowN int, phi float64, sc *Scratch) (float64, bool) {
	h := sc.heap(lists)
	if h.empty() {
		return 0, false
	}
	rank := ExactTailSize(windowN, phi)
	var last float64
	for i := 0; i < rank; i++ {
		v, ok := h.pop()
		if !ok {
			break // budget undershoot: fall back to the smallest seen
		}
		last = v
	}
	return last, true
}

// SampleKMerge merges the weighted interval samples of all sub-windows —
// values[i] and weights[i] are one sub-window's SampleTail output — and
// answers the ϕ-quantile of a window of size windowN: samples are sorted
// by value descending and weights accumulated until they reach the target
// tail rank N−⌈ϕN⌉+1 — each sample stands for the weight tail ranks of its
// own sub-window that precede it, so the cumulative weight approximates
// the global rank. (With a uniform sampling rate α this reduces to the
// paper's "read the α·N(1−ϕ)-th largest sample" rule.) Returns ok=false
// when no samples exist.
func SampleKMerge(values, weights [][]float64, windowN int, phi float64, sc *Scratch) (float64, bool) {
	// Heap-merge the descending per-sub-window lists, accumulating weight
	// until the target tail rank is covered — O(popped·log L).
	h := sc.heap(values)
	if h.empty() {
		return 0, false
	}
	target := ExactTailSize(windowN, phi)
	cum := 0
	var last float64
	for {
		v, li, pos, ok := h.popIndexed()
		if !ok {
			return last, true // samples exhausted: deepest value
		}
		last = v
		cum += int(weights[li][pos])
		if cum >= target {
			return v, true
		}
	}
}

// headHeap is a max-heap over the heads of descending-sorted lists,
// yielding the globally largest remaining value on each pop.
type headHeap struct {
	lists [][]float64
	// Each entry is a list head: its value, kept inline so that a
	// comparison reads one slice, and where it sits (list index, position
	// in the list).
	vs  []float64
	li  []int32
	pos []int32
}

// heap builds the head heap of lists in sc's arrays. It only shrinks
// afterwards, so sc keeps whatever the build grew.
func (sc *Scratch) heap(lists [][]float64) headHeap {
	h := headHeap{lists: lists, vs: sc.vs[:0], li: sc.li[:0], pos: sc.pos[:0]}
	for i, l := range lists {
		if len(l) > 0 {
			h.push(l[0], int32(i))
		}
	}
	sc.vs, sc.li, sc.pos = h.vs, h.li, h.pos
	return h
}

func (h *headHeap) empty() bool { return len(h.vs) == 0 }

// push adds list li's first value v.
func (h *headHeap) push(v float64, li int32) {
	h.vs = append(h.vs, v)
	h.li = append(h.li, li)
	h.pos = append(h.pos, 0)
	i := len(h.vs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.vs[parent] >= h.vs[i] {
			break
		}
		h.swap(parent, i)
		i = parent
	}
}

func (h *headHeap) swap(i, j int) {
	h.vs[i], h.vs[j] = h.vs[j], h.vs[i]
	h.li[i], h.li[j] = h.li[j], h.li[i]
	h.pos[i], h.pos[j] = h.pos[j], h.pos[i]
}

// popIndexed removes and returns the largest remaining value along with
// its list index and position.
func (h *headHeap) popIndexed() (v float64, li, pos int, ok bool) {
	if len(h.vs) == 0 {
		return 0, 0, 0, false
	}
	v, li, pos = h.vs[0], int(h.li[0]), int(h.pos[0])
	// Advance that list's head, or remove it.
	if l := h.lists[li]; pos+1 < len(l) {
		h.pos[0]++
		h.vs[0] = l[pos+1]
	} else {
		last := len(h.vs) - 1
		h.vs[0], h.li[0], h.pos[0] = h.vs[last], h.li[last], h.pos[last]
		h.vs, h.li, h.pos = h.vs[:last], h.li[:last], h.pos[:last]
		if last == 0 {
			return v, li, pos, true
		}
	}
	// Sift down.
	i := 0
	n := len(h.vs)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h.vs[l] > h.vs[largest] {
			largest = l
		}
		if r < n && h.vs[r] > h.vs[largest] {
			largest = r
		}
		if largest == i {
			return v, li, pos, true
		}
		h.swap(i, largest)
		i = largest
	}
}

// pop removes and returns only the largest remaining value.
func (h *headHeap) pop() (float64, bool) {
	v, _, _, ok := h.popIndexed()
	return v, ok
}

// DetectBurst reports whether the newest sub-window's sampled tail is
// distributionally different and stochastically larger than the previous
// sub-window's, per the one-sided Mann–Whitney U test at level alpha
// (§4.3). Both samples must be sorted descending, as a sub-window's
// retained values are (stats.MannWhitneyDescending ranks them in one merge
// walk). Either sample being empty yields false.
func DetectBurst(current, previous []float64, alpha float64) bool {
	return stats.MannWhitneyDescending(current, previous).PValue < alpha
}

// Outcome selects between the three per-quantile answers at runtime,
// implementing §4.3 "Selecting outcomes": sample-k wins under a detected
// burst, top-k wins under statistical inefficiency, and the Level-2
// aggregate is used otherwise.
func Outcome(level2 float64, topK float64, topKOK bool, sampleK float64, sampleKOK bool,
	burst bool, statInefficient bool) float64 {
	switch {
	case burst && sampleKOK:
		return sampleK
	case statInefficient && topKOK:
		return topK
	default:
		return level2
	}
}
