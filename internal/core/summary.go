package core

import (
	"math"
	"slices"

	"repro/internal/compress"
	"repro/internal/core/fewk"
	"repro/internal/rbtree"
	"repro/internal/stats"
)

// Summary is the Level-1 product of one completed sub-window (§3.1): the
// exact ϕ-quantiles of the sub-window plus, for each few-k-managed high
// quantile, the cached top-k values and interval samples of the tail.
type Summary struct {
	// Quantiles holds the exact sub-window ϕ-quantile per configured ϕ.
	Quantiles []float64
	// Count is the number of elements the sub-window contained.
	Count int
	// Densities estimates the underlying density at each ϕ-quantile by a
	// finite difference of neighbouring sub-window quantiles; used by the
	// Appendix A error bound. +Inf marks a point mass.
	Densities []float64
	// Tails[i] caches the k_t largest values (descending) for the i-th
	// managed high quantile.
	Tails [][]float64
	// Samples[i] holds the k_s weighted interval samples of the
	// sub-window's N(1−ϕ) largest values (descending) for the i-th
	// managed quantile.
	Samples [][]fewk.Sample
	// BurstyVsPrev[i] records whether this sub-window's cached tail was
	// detected (at seal time) as stochastically larger than the previous
	// sub-window's, per managed quantile — §4.3's burst signal. Computing
	// it once at seal keeps Result() free of repeated rank tests.
	BurstyVsPrev []bool
}

// cachedValues returns the union of the top-k cache and sample values for
// managed quantile mi, the per-sub-window pool both top-k merging and the
// burst detector consume.
func (s *Summary) cachedValues(mi int) []float64 {
	if mi >= len(s.Tails) {
		return nil
	}
	u := make([]float64, 0, len(s.Tails[mi])+len(s.Samples[mi]))
	u = append(u, s.Tails[mi]...)
	for _, sm := range s.Samples[mi] {
		if len(s.Tails[mi]) == 0 || sm.Value < s.Tails[mi][len(s.Tails[mi])-1] {
			u = append(u, sm.Value) // skip samples already in the top-k cache
		}
	}
	return u
}

// builder accumulates one in-flight sub-window: the compressed
// {value, count} red-black tree state of Algorithm 1. The scratch slices
// are reused across batches and seals, so steady-state ingestion allocates
// only what a Summary must retain.
//
// It is the operator's Level-1 workbench, and empty at every seal: a
// stand-alone operator owns one for life, an operator minted by a Pool
// borrows one from the pool only while a sub-window is in flight (see
// Policy.bench).
type builder struct {
	tree  *rbtree.Tree
	quant compress.Quantizer

	qbuf     []float64 // quantized batch scratch (addBatch)
	reqs     []rankReq // fused rank requests of one seal
	ranks    []uint64  // sorted ranks handed to SelectRanks
	rankVals []float64 // SelectRanks output
	slotVals []float64 // rank answers distributed back to request slots
	los, his []float64 // density finite-difference bounds per ϕ
	tail     []float64 // shared descending tail scratch (few-k capture)

	// prevUnique is the node count retained into the current period; the
	// difference against the post-period count says how many fresh nodes
	// this period built, which drives the seal's retention decision.
	prevUnique int
}

// rankReq asks one seal traversal for the value at a 1-based rank; slot
// says where the answer goes (0..l-1: ϕ-quantiles; l+2i, l+2i+1: density
// lo/hi bounds of ϕ index i).
type rankReq struct {
	rank uint64
	slot int32
}

func newBuilder(tree *rbtree.Tree, digits int) *builder {
	return &builder{tree: tree, quant: compress.NewQuantizer(digits)}
}

// add inserts one element, quantized to the configured significant
// digits. NaN values — telemetry glitches — are dropped: they have no
// place in an order statistic and would corrupt the tree's comparisons.
func (b *builder) add(v float64) {
	if math.IsNaN(v) {
		return
	}
	b.tree.Insert(b.quant.Quantize(v))
}

// addBatch inserts a run of elements: the whole batch is quantized into a
// reused scratch (one decade-cache pass, no per-element dispatch), then
// consecutive equal quantized values — frequent after §3.1 compression
// flattens telemetry plateaus — collapse into single InsertN tree
// descents. NaNs are dropped exactly as add does. (A full sort of the
// chunk would collapse non-adjacent duplicates too, but measures slower
// than the descents it saves on a compressed sub-window tree that is
// already cache-resident.)
func (b *builder) addBatch(vs []float64) {
	q := b.quant.AppendQuantized(b.qbuf[:0], vs)
	b.qbuf = q
	for i := 0; i < len(q); {
		v := q[i]
		if math.IsNaN(v) {
			i++
			continue
		}
		j := i + 1
		for j < len(q) && q[j] == v {
			j++
		}
		b.tree.InsertN(v, uint64(j-i))
		i = j
	}
}

// len returns the number of elements accumulated so far.
func (b *builder) len() int { return int(b.tree.Len()) }

// unique returns the resident {value, count} node count (the space cost).
func (b *builder) unique() int { return b.tree.Unique() }

// seal computes the sub-window summary; the caller then empties the
// builder (reset to keep it, clear to hand it back). managed lists the
// indexes (into phis) of few-k-managed quantiles; budgets holds their
// per-sub-window plans.
//
// The seal is fused: every rank the summary needs — the l ϕ-quantiles and
// the two density finite-difference bounds per ϕ — is answered by ONE
// in-order traversal (SelectRanks), and every managed quantile's tail is a
// prefix of ONE shared descending traversal, instead of the
// l + 2l·Select + |managed| independent walks of the naive path.
func (b *builder) seal(phis []float64, managed []int, budgets []fewk.Budget, windowN int) Summary {
	n := int(b.tree.Len())
	l := len(phis)
	s := Summary{
		Quantiles: make([]float64, l),
		Count:     n,
		Densities: make([]float64, l),
		Tails:     make([][]float64, len(managed)),
		Samples:   make([][]fewk.Sample, len(managed)),
	}
	// Gather rank requests.
	reqs := b.reqs[:0]
	for i, phi := range phis {
		reqs = append(reqs, rankReq{rank: rbtree.CeilRank(phi, uint64(n)), slot: int32(i)})
	}
	b.los = growFloats(b.los, l)
	b.his = growFloats(b.his, l)
	if n >= 4 {
		for i, phi := range phis {
			h := bandwidth(phi, n)
			lo := phi - h
			if lo < 1.0/float64(n) {
				lo = 1.0 / float64(n)
			}
			hi := phi + h
			if hi > 1 {
				hi = 1
			}
			b.los[i], b.his[i] = lo, hi
			reqs = append(reqs,
				rankReq{rank: uint64(stats.CeilRank(lo, n)), slot: int32(l + 2*i)},
				rankReq{rank: uint64(stats.CeilRank(hi, n)), slot: int32(l + 2*i + 1)})
		}
	}
	b.reqs = reqs
	slices.SortFunc(reqs, func(a, c rankReq) int {
		switch {
		case a.rank < c.rank:
			return -1
		case a.rank > c.rank:
			return 1
		default:
			return 0
		}
	})
	ranks := b.ranks[:0]
	for _, r := range reqs {
		ranks = append(ranks, r.rank)
	}
	b.ranks = ranks
	b.rankVals = growFloats(b.rankVals, len(reqs))
	b.tree.SelectRanks(ranks, b.rankVals)
	b.slotVals = growFloats(b.slotVals, 3*l)
	for k, r := range reqs {
		b.slotVals[r.slot] = b.rankVals[k]
	}
	copy(s.Quantiles, b.slotVals[:l])
	// Density at each ϕ-quantile by finite difference of the empirical
	// quantile function, mirroring stats.DensityAt but reusing the tree.
	for i := range phis {
		if n < 4 {
			continue
		}
		qlo, qhi := b.slotVals[l+2*i], b.slotVals[l+2*i+1]
		if qhi <= qlo {
			s.Densities[i] = math.Inf(1)
			continue
		}
		s.Densities[i] = (b.his[i] - b.los[i]) / (qhi - qlo)
	}
	// Few-k capture: managed quantiles all want "the k largest", so one
	// shared descending walk of maxTail values serves every ϕ as a prefix.
	maxTail := 0
	for _, pi := range managed {
		if ts := tailSize(windowN, phis[pi], n); ts > maxTail {
			maxTail = ts
		}
	}
	if maxTail > 0 {
		b.tail = b.tree.AppendTopK(b.tail[:0], maxTail)
	}
	for mi, pi := range managed {
		tail := b.tail[:tailSize(windowN, phis[pi], n)]
		kt := budgets[mi].Kt
		if kt > len(tail) {
			kt = len(tail)
		}
		s.Tails[mi] = append([]float64(nil), tail[:kt]...)
		s.Samples[mi] = fewk.SampleTail(tail, budgets[mi].Ks)
	}
	return s
}

// reset empties the tree of a builder its operator keeps (stand-alone
// operators; a borrowed one is cleared and handed back instead) for the
// next sub-window of count elements just sealed. Quantized telemetry
// re-observes mostly the same values period after period (§3.1's data
// redundancy), so when this period built few fresh nodes the node set is
// retained (ResetCounts) and the next fill runs against warm nodes and a
// valid insert cache — no allocation, no rebalancing. When the value
// population drifts (many fresh nodes) or retention has accumulated too
// large a resident set relative to the period, the tree is dropped to its
// arena (Clear) and rebuilt, bounding the resident set at 4·period + 1024
// nodes. The constant term dominates small periods — 1024 nodes × 40 B is
// 40 KB at period 16 — which is affordable for the one operator of a
// Monitor and is why a fleet of keyed operators does not retain at all.
func (b *builder) reset(count int) {
	unique := b.tree.Unique()
	fresh := unique - b.prevUnique
	// A period that began with an empty tree gives no drift signal (every
	// node is trivially fresh), so retention starts optimistically and is
	// judged from the second period on.
	drifting := b.prevUnique > 0 && 4*fresh >= count
	if !drifting && unique <= 4*count+1024 {
		b.tree.ResetCounts()
		b.prevUnique = unique
		return
	}
	b.tree.Clear()
	b.prevUnique = 0
}

// clear empties the builder back to its as-constructed state, keeping the
// tree arena, insert cache and every scratch buffer at capacity (Clear
// retains the arena; the quantizer's decade cache is stateless across
// values), so the next operator to use it — the same one after a Reset, or
// whichever key of the shard borrows it next — fills it without allocating.
func (b *builder) clear() {
	b.tree.Clear()
	b.prevUnique = 0
}

// tailSize returns how deep the few-k capture reads the sub-window's tail
// for quantile phi: the N(1−ϕ) values that guarantee exactness, clamped to
// the sub-window population.
func tailSize(windowN int, phi float64, n int) int {
	ts := fewk.ExactTailSize(windowN, phi)
	if ts > n {
		ts = n
	}
	return ts
}

// growFloats returns s resized to n, reallocating only when capacity is
// insufficient.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// bandwidth mirrors stats.DensityAt's n^(-1/3) rule.
func bandwidth(phi float64, n int) float64 {
	h := math.Pow(float64(n), -1.0/3.0)
	if edge := 0.5 * math.Min(phi, 1-phi); edge > 0 && h > edge {
		h = edge
	}
	if h < 1.0/float64(n) {
		h = 1.0 / float64(n)
	}
	return h
}
