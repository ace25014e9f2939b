// Package gk implements the Greenwald–Khanna ε-approximate quantile
// summary, the classic building block of deterministic rank-error
// algorithms. The CMQS (Lin et al. 2004) and AM (Arasu–Manku 2004)
// baselines are built on top of it.
//
// A summary is a sorted list of tuples (v, g, Δ): g is the gap in minimum
// rank to the previous tuple, and Δ bounds the uncertainty of v's rank.
// The invariant max(g+Δ) <= 2εn guarantees that any rank query is answered
// within ±εn.
package gk

import (
	"fmt"
	"math"
	"sort"
)

type tuple struct {
	v float64
	g int64
	d int64
}

// Summary is a Greenwald–Khanna quantile summary. Create with New.
type Summary struct {
	eps     float64
	tuples  []tuple
	n       int64
	pending int // inserts since last compress
}

// New returns an empty summary with rank-error bound eps in (0, 0.5].
func New(eps float64) (*Summary, error) {
	if eps <= 0 || eps > 0.5 {
		return nil, fmt.Errorf("gk: eps %v outside (0, 0.5]", eps)
	}
	return &Summary{eps: eps}, nil
}

// Count returns the number of inserted elements.
func (s *Summary) Count() int64 { return s.n }

// Size returns the number of stored tuples (the space cost).
func (s *Summary) Size() int { return len(s.tuples) }

// Insert adds one observation.
func (s *Summary) Insert(v float64) {
	idx := sort.Search(len(s.tuples), func(i int) bool { return s.tuples[i].v >= v })
	var d int64
	if idx > 0 && idx < len(s.tuples) {
		d = int64(math.Floor(2 * s.eps * float64(s.n)))
	}
	// New min/max keep Δ=0 so extremes stay exact.
	s.tuples = append(s.tuples, tuple{})
	copy(s.tuples[idx+1:], s.tuples[idx:])
	s.tuples[idx] = tuple{v: v, g: 1, d: d}
	s.n++
	s.pending++
	if float64(s.pending) >= 1/(2*s.eps) {
		s.compress()
		s.pending = 0
	}
}

// InsertBatch adds a run of observations in order. It is observationally
// identical to calling Insert per element — same tuple sequence, same
// compress points — but amortizes batch-level costs: tuple capacity is
// reserved once per batch and the per-element call overhead collapses
// into a single tight loop. The reservation is capped at the compress
// window (at most ⌈1/2ε⌉ inserts accumulate before compress shrinks the
// summary back), not at len(vs): a summary never holds batch-sized state,
// so reserving for the whole batch would allocate a transient slice the
// next compress immediately strands.
func (s *Summary) InsertBatch(vs []float64) {
	grow := len(vs)
	if window := int(1/(2*s.eps)) + 1; grow > window {
		grow = window
	}
	if need := len(s.tuples) + grow; cap(s.tuples) < need {
		grown := make([]tuple, len(s.tuples), need+need/4)
		copy(grown, s.tuples)
		s.tuples = grown
	}
	for _, v := range vs {
		s.Insert(v)
	}
}

// compress merges adjacent tuples whose combined uncertainty stays within
// the invariant g_i + g_{i+1} + Δ_{i+1} <= 2εn, scanning from the tail so
// each tuple can be absorbed into its successor. The minimum and maximum
// tuples are never removed.
func (s *Summary) compress() {
	if len(s.tuples) < 3 {
		return
	}
	limit := int64(math.Floor(2 * s.eps * float64(s.n)))
	w := len(s.tuples) - 1 // last kept position, scanning right-to-left
	for i := len(s.tuples) - 2; i >= 1; i-- {
		t := s.tuples[i]
		if t.g+s.tuples[w].g+s.tuples[w].d <= limit {
			s.tuples[w].g += t.g
		} else {
			w--
			s.tuples[w] = t
		}
	}
	w--
	s.tuples[w] = s.tuples[0]
	s.tuples = append(s.tuples[:0], s.tuples[w:]...)
}

// Query returns a value whose rank is within ±εn of ceil(phi*n). It panics
// on an empty summary.
func (s *Summary) Query(phi float64) float64 {
	if s.n == 0 {
		panic("gk: Query on empty summary")
	}
	r := int64(math.Ceil(phi * float64(s.n)))
	if r < 1 {
		r = 1
	}
	if r > s.n {
		r = s.n
	}
	// The first and last tuples hold the exact minimum and maximum, so
	// extreme ranks are answered exactly.
	if r == 1 {
		return s.tuples[0].v
	}
	if r == s.n {
		return s.tuples[len(s.tuples)-1].v
	}
	// Textbook rule: return the first tuple with r−rmin <= εn and
	// rmax−r <= εn; the invariant guarantees one exists.
	margin := int64(math.Floor(s.eps * float64(s.n)))
	var rmin int64
	for _, t := range s.tuples {
		rmin += t.g
		if r-rmin <= margin && rmin+t.d-r <= margin {
			return t.v
		}
	}
	return s.tuples[len(s.tuples)-1].v
}

// WeightedValue is one (value, weight) pair exported from a summary, used
// when merging summaries across sub-windows. Weight is fractional because
// centered exports split tuple uncertainty across neighbours.
type WeightedValue struct {
	Value  float64
	Weight float64
}

// Export returns the summary as a weighted value list whose cumulative
// weights are the Δ-CENTERED rank estimates rmin + Δ/2 of each tuple.
// Plain g-cumulative exports systematically understate every value's rank
// by ~Δ/2; summed across the sub-windows of a merge that becomes an εN/2
// bias, which lands tail reads half an epsilon too deep — catastrophic in
// value terms on heavy-tailed telemetry. The centered weights still sum
// to n exactly (the maximum tuple has Δ = 0). The list is sorted by
// value.
func (s *Summary) Export() []WeightedValue {
	out := make([]WeightedValue, len(s.tuples))
	var rmin int64
	prevMid := 0.0
	for i, t := range s.tuples {
		rmin += t.g
		mid := float64(rmin) + float64(t.d)/2
		w := mid - prevMid
		if w < 0 {
			w = 0
		}
		out[i] = WeightedValue{Value: t.v, Weight: w}
		prevMid = mid
	}
	return out
}

// QueryMerged answers a quantile over the concatenation of several
// summaries by merging their exported weighted values. It panics when all
// summaries are empty. See MergedRead for the estimation rule.
func QueryMerged(summaries []*Summary, phi float64) float64 {
	var lists [][]WeightedValue
	var total int64
	for _, s := range summaries {
		if s == nil || s.n == 0 {
			continue
		}
		lists = append(lists, s.Export())
		total += s.n
	}
	if total == 0 {
		panic("gk: QueryMerged on empty summaries")
	}
	r := int64(math.Ceil(phi * float64(total)))
	if r < 1 {
		r = 1
	}
	return MergedRead(lists, float64(r))
}

// MergedRead answers a rank query over several weighted value lists, each
// sorted by value with weights summing to that list's element count.
//
// Treating every list as a step CDF that jumps only at its retained points
// systematically understates ranks between points by half a step; summed
// over L merged sub-window summaries the bias reaches L·(avg step)/2 ≈
// εN/2 — deep into the tail, where heavy-tailed telemetry turns it into
// orders-of-magnitude value error. MergedRead instead evaluates each
// list's cumulative weight with piecewise-LINEAR interpolation between
// retained points, which centres the between-point uncertainty, and
// binary-searches the smallest retained value whose summed estimated rank
// reaches r.
func MergedRead(lists [][]WeightedValue, r float64) float64 {
	// Per-list cumulative weights.
	type cdf struct {
		vals []float64
		cums []float64
	}
	cdfs := make([]cdf, 0, len(lists))
	var candidates []float64
	for _, l := range lists {
		if len(l) == 0 {
			continue
		}
		c := cdf{vals: make([]float64, len(l)), cums: make([]float64, len(l))}
		cum := 0.0
		for i, wv := range l {
			cum += wv.Weight
			c.vals[i] = wv.Value
			c.cums[i] = cum
			candidates = append(candidates, wv.Value)
		}
		cdfs = append(cdfs, c)
	}
	if len(candidates) == 0 {
		return 0
	}
	sort.Float64s(candidates)
	grank := func(v float64) float64 {
		var sum float64
		for _, c := range cdfs {
			sum += interpCum(c.vals, c.cums, v)
		}
		return sum
	}
	// Binary search the smallest candidate with estimated rank >= r − ½.
	lo, hi := 0, len(candidates)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if grank(candidates[mid]) >= r-0.5 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return candidates[lo]
}

// interpCum evaluates one list's estimated count of elements <= v (0
// before the first point, the full count at or after the last). At a
// retained point the cumulative weight is exact; strictly between two
// points it credits HALF the bracketing interval's mass. Value-linear
// interpolation would be tighter in dense regions but collapses back to a
// step function across the orders-of-magnitude value gaps of heavy tails
// (almost no mass is credited until v nearly reaches the next point),
// recreating the half-interval-per-sub-window rank bias; the midpoint
// rule stays centred regardless of value geometry.
func interpCum(vals, cums []float64, v float64) float64 {
	n := len(vals)
	if v < vals[0] {
		return 0
	}
	if v >= vals[n-1] {
		return cums[n-1]
	}
	// Find j with vals[j] <= v < vals[j+1].
	j := sort.SearchFloat64s(vals, v)
	if j == n || vals[j] > v {
		j--
	}
	if j == n-1 {
		return cums[n-1]
	}
	if v == vals[j] {
		return cums[j]
	}
	return (cums[j] + cums[j+1]) / 2
}
