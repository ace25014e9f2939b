package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/compress"
	"repro/internal/core/fewk"
	"repro/internal/stats"
)

// Summary is the Level-1 product of one completed sub-window (§3.1): the
// exact ϕ-quantiles of the sub-window plus, for each few-k-managed high
// quantile, the cached top-k values and interval samples of the tail.
//
// It is a small pointer-free header over ONE exactly-sized []float64 block,
// allocated once when the sub-window seals (or a frame decodes) and never
// written again, so captures, exports and aggregator state all share it
// by reference and the collector sees one pointer-free object per
// summary. With l configured quantiles and m managed ones the block holds
//
//	[0, l)        the sub-window ϕ-quantile per configured ϕ
//	[l, 2l)       the density estimate at each of them (+Inf: a point mass)
//	[2l, end)     the list area: the index, then the stored lists
//
// The index is a string of m bit groups, one per managed ϕ, laid into
// words of indexWordBits bits each — as few words as it needs, a field may
// straddle two. A group holds three offsets into the list area — where
// the ϕ's tail starts, where it ends, and where the ϕ's lists end — each
// as wide as the list area's length needs, then the ϕ's seal-time burst
// flag (§4.3's burst signal, computed once at seal so Result() never
// repeats a rank test; always clear in a summary without flags). After
// the index, per managed ϕ in order:
//
//	the k_t largest values, descending (Tail), unless they are a prefix of
//	              the tail stored last, which the group then points into
//	the k_s interval-sample values, descending (Samples)
//	their k_s weights, exact integers
//
// so a ϕ's samples start where its tail ends, or where the previous ϕ's
// lists end if its tail is shared. The seal's tails are all prefixes of
// one shared descending run, and a decoded frame's are found by value, so
// a summary stores that run once however it was built.
//
// Index words and weights are integers stored as float64, all below 2^53,
// so every slot of the block is an ordinary number.
//
// The header is 32 bytes: the block, the element count as an int32, and l,
// m and the flagged bit packed into one word (dims). NewSummary refuses
// what that layout cannot hold — a count above MaxSummaryCount, more than
// MaxSummaryQuantiles configured or managed quantiles — rather than
// truncating it, and a configuration with more ϕ than a summary can answer
// is refused when it is validated.
type Summary struct {
	block []float64
	count int32
	dims  uint32
}

// MaxSummaryCount is the largest sub-window element count a summary
// records, and MaxSummaryQuantiles the most configured (or managed)
// quantiles it answers: a configuration's Period and ϕ count are held to
// them when it is validated.
const (
	MaxSummaryCount     = math.MaxInt32
	MaxSummaryQuantiles = 1<<dimsBits - 1
)

// dims packs l into its low dimsBits bits, m into the next dimsBits, and
// above them the flagged bit: the summary carries seal-time burst flags,
// one per managed quantile. Summaries of operators without managed
// quantiles, and hand-built ones, carry none.
const (
	dimsBits   = 15
	dimsMask   = 1<<dimsBits - 1
	flaggedBit = 1 << (2 * dimsBits)
)

// indexWordBits is how many bits of the index one block word holds: an
// integer below 2^52 is exact in a float64.
const indexWordBits = 52

// NewSummary builds a summary from its parts, copying them into one block:
// count elements, the sub-window quantiles and their densities (equally
// long), and per managed quantile a descending tail and a descending sample
// list given as parallel values and weights. bursty is nil for a summary
// without seal-time burst flags, else one flag per managed quantile. A tail
// that is, bit for bit, a prefix of the last tail stored is not stored
// again. It is the one writer of the block layout — the seal, the wire
// decoder and tests all come through it — and checks only that the parts
// fit together; NewSnapshot checks them against a configuration.
func NewSummary(count int, quantiles, densities []float64, tails, sampleValues, sampleWeights [][]float64, bursty []bool) (Summary, error) {
	l, m := len(quantiles), len(tails)
	if len(densities) != l {
		return Summary{}, fmt.Errorf("%d densities for %d quantiles", len(densities), l)
	}
	if len(sampleValues) != m || len(sampleWeights) != m {
		return Summary{}, fmt.Errorf("%d tails, %d sample value lists, %d sample weight lists", m, len(sampleValues), len(sampleWeights))
	}
	if bursty != nil && len(bursty) != m {
		return Summary{}, fmt.Errorf("%d burst flags for %d managed quantiles", len(bursty), m)
	}
	if count < 0 || count > MaxSummaryCount {
		return Summary{}, fmt.Errorf("count %d outside [0, %d]", count, MaxSummaryCount)
	}
	if l > MaxSummaryQuantiles || m > MaxSummaryQuantiles {
		return Summary{}, fmt.Errorf("%d quantiles, %d managed: a summary holds at most %d of each", l, m, MaxSummaryQuantiles)
	}
	stored, last := 0, []float64(nil)
	for mi, tail := range tails {
		if len(sampleValues[mi]) != len(sampleWeights[mi]) {
			return Summary{}, fmt.Errorf("sample list %d: %d values, %d weights", mi, len(sampleValues[mi]), len(sampleWeights[mi]))
		}
		if !isPrefix(tail, last) {
			stored += len(tail)
			last = tail
		}
		stored += 2 * len(sampleValues[mi])
	}
	words := indexWords(m, stored)
	size := 2*l + words + stored
	if size > math.MaxInt32 {
		return Summary{}, fmt.Errorf("summary of %d values is too large", size)
	}
	s := Summary{block: make([]float64, size), count: int32(count), dims: uint32(l) | uint32(m)<<dimsBits}
	if bursty != nil {
		s.dims |= flaggedBit
	}
	copy(s.block, quantiles)
	copy(s.block[l:], densities)
	area := s.block[2*l:]
	w := uint(bits.Len(uint(len(area))))
	off, lastAt := words, words
	last = nil
	for mi, tail := range tails {
		at := lastAt
		if !isPrefix(tail, last) {
			at = off
			off += copy(area[off:], tail)
			lastAt, last = at, tail
		}
		off += copy(area[off:], sampleValues[mi])
		off += copy(area[off:], sampleWeights[mi])
		p := uint(mi) * (3*w + 1)
		setIndexField(area, p, w, uint(at))
		setIndexField(area, p+w, w, uint(at+len(tail)))
		setIndexField(area, p+2*w, w, uint(off))
		if bursty != nil && bursty[mi] {
			s.setBursty(mi)
		}
	}
	return s, nil
}

// isPrefix reports whether a is a prefix of b, bit for bit.
func isPrefix(a, b []float64) bool {
	if len(a) > len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// indexWords returns how many words the index of m managed quantiles takes
// beside stored list values: the fields are as wide as the list area —
// the index and the lists — needs, so the index is sized to a fixed point.
func indexWords(m, stored int) int {
	if m == 0 {
		return 0
	}
	words := 0
	for {
		need := (m*(3*bits.Len(uint(stored+words))+1) + indexWordBits - 1) / indexWordBits
		if need == words {
			return words
		}
		words = need
	}
}

// indexField returns the w-bit field at bit p of the index that opens
// the list area.
func indexField(area []float64, p, w uint) uint {
	mask := uint(1)<<(w&63) - 1
	i, at := p/indexWordBits, p%indexWordBits
	v := uint(int64(area[i])) >> at
	if at+w > indexWordBits {
		v |= uint(int64(area[i+1])) << (indexWordBits - at)
	}
	return v & mask
}

// setIndexField ORs v, below 2^w, into the w-bit field at bit p of the
// index. Only NewSummary, and the seal still building the summary, write
// the index.
func setIndexField(area []float64, p, w, v uint) {
	i, at := p/indexWordBits, p%indexWordBits
	area[i] = float64(int64(area[i]) | int64(v<<at&(1<<indexWordBits-1)))
	if at+w > indexWordBits {
		area[i+1] = float64(int64(area[i+1]) | int64(v>>(indexWordBits-at)))
	}
}

// Count returns the number of elements the sub-window contained.
func (s *Summary) Count() int { return int(s.count) }

// NumQuantiles returns l, the number of configured quantiles the summary
// answers.
func (s *Summary) NumQuantiles() int { return int(s.dims & dimsMask) }

// Managed returns m, the number of few-k-managed quantiles the summary
// caches a tail and a sample list for.
func (s *Summary) Managed() int { return int(s.dims >> dimsBits & dimsMask) }

// Quantile returns the exact sub-window ϕ-quantile of the i-th configured ϕ.
func (s *Summary) Quantile(i int) float64 { return s.block[:s.NumQuantiles()][i] }

// Density returns the estimate of the underlying density at the i-th
// ϕ-quantile, a finite difference of neighbouring sub-window quantiles used
// by the Appendix A error bound. +Inf marks a point mass.
func (s *Summary) Density(i int) float64 {
	l := s.NumQuantiles()
	return s.block[l : 2*l][i]
}

// lists reads managed quantile mi's index group once and returns its two
// runs — the tail, and the sample values followed by as many sample
// weights — and its burst flag (Bursty): all three, what the few-k
// evaluation (mergeScratch.gather) reads of a summary. It reads the ϕ's
// three offset fields, its flag and, for mi > 0, the previous ϕ's lists
// end. A group in the index's first word — every group of a one-word
// index, as at every benchmark shape — is shifted out of that word,
// converted once; the rest go through indexField.
func (s *Summary) lists(mi int) (tail, samples []float64, bursty bool) {
	area, w := s.listArea()
	f := 3*w + 1
	p := uint(mi) * f
	var at, tailEnd, end, prevEnd, flag uint
	if p+f <= indexWordBits {
		x, mask := uint(int64(area[0])), uint(1)<<(w&63)-1
		at, tailEnd, end = x>>(p&63)&mask, x>>((p+w)&63)&mask, x>>((p+2*w)&63)&mask
		flag = x >> ((p + 3*w) & 63) & 1
		if mi > 0 {
			prevEnd = x >> ((p - w - 1) & 63) & mask
		}
	} else {
		at, tailEnd, end = indexField(area, p, w), indexField(area, p+w, w), indexField(area, p+2*w, w)
		flag = indexField(area, p+3*w, 1)
		if mi > 0 {
			prevEnd = indexField(area, p-w-1, w)
		}
	}
	// The first ϕ's samples follow its tail, which is stored right after
	// the index; a later ϕ's follow its tail, or the previous ϕ's lists if
	// its tail is read in place.
	from := max(tailEnd, prevEnd)
	return area[at:tailEnd:tailEnd], area[from:end:end], flag != 0
}

// Tail returns the k_t largest values (descending) cached for the mi-th
// managed quantile. Like every view of the block it is read-only.
func (s *Summary) Tail(mi int) []float64 {
	tail, _, _ := s.lists(mi)
	return tail
}

// Samples returns the k_s weighted interval samples of the sub-window's
// N(1−ϕ) largest values for the mi-th managed quantile: their values,
// descending, and parallel to them the number of tail ranks each stands
// for, exact integers >= 1.
func (s *Summary) Samples(mi int) (values, weights []float64) {
	_, sm, _ := s.lists(mi)
	return sm[:len(sm)/2], sm[len(sm)/2:]
}

// Flagged reports whether the summary carries seal-time burst flags.
func (s *Summary) Flagged() bool { return s.dims&flaggedBit != 0 }

// Bursty reports whether this sub-window's cached tail for the mi-th managed
// quantile was detected, at seal time, as stochastically larger than the
// previous sub-window's (§4.3). False for a summary without flags.
func (s *Summary) Bursty(mi int) bool {
	area, p := s.burstFlag(mi)
	return indexField(area, p, 1) != 0
}

// setBursty raises managed quantile mi's burst flag. Only the seal that is
// still building the summary may call it: a published block is immutable.
func (s *Summary) setBursty(mi int) {
	area, p := s.burstFlag(mi)
	setIndexField(area, p, 1, 1)
}

// burstFlag returns the list area and the bit of the index that holds
// managed quantile mi's burst flag.
func (s *Summary) burstFlag(mi int) (area []float64, p uint) {
	area, w := s.listArea()
	return area, uint(mi)*(3*w+1) + 3*w
}

// listArea returns the list area — the index, then the stored lists — and
// the width of the index's offset fields.
func (s *Summary) listArea() (area []float64, w uint) {
	area = s.block[2*s.NumQuantiles():]
	return area, uint(bits.Len(uint(len(area))))
}

// cached returns every value retained for managed quantile mi as two
// descending runs: the top-k cache, and the samples below it (a sample the
// cache already holds is not counted twice). Section 4 opens with "each
// sub-window collects k data points among the largest values ... and uses
// the k values to compute the target high quantile": top-k merging and the
// burst detector read this union, not only the k_t share. Both runs are nil
// for a summary that manages fewer than mi+1 quantiles.
func (s *Summary) cached(mi int) (tail, below []float64) {
	if mi >= s.Managed() {
		return nil, nil
	}
	tail, sm, _ := s.lists(mi)
	return tail, belowTail(tail, sm[:len(sm)/2])
}

// belowTail returns the descending sample values strictly below every value
// of the descending tail.
func belowTail(tail, values []float64) []float64 {
	if len(tail) > 0 {
		least := tail[len(tail)-1]
		for len(values) > 0 && !(values[0] < least) {
			values = values[1:]
		}
	}
	return values
}

// fewkValues counts the summary's few-k storage: cached tail values plus
// samples.
func (s *Summary) fewkValues() int {
	n := 0
	for mi := 0; mi < s.Managed(); mi++ {
		tail, sm, _ := s.lists(mi)
		n += len(tail) + len(sm)/2
	}
	return n
}

// mergeScratch is the reusable working state of few-k evaluation and of
// the seal's burst test: the views of resident blocks one merge gathers,
// the burst test's two retained runs laid end to end, and the merge heap
// beneath them. An operator uses its pool's (one per shard, beside the
// workbenches), a Snapshot one from scratchPool — so evaluating allocates
// nothing once the buffers have grown to the window's shape.
type mergeScratch struct {
	fewk                   fewk.Scratch
	lists, values, weights [][]float64
	union                  []float64
	// keys and swap are the seal's radix sort buffers (radixSort).
	keys, swap []uint64
}

// gather reads each summary's index group for managed quantile mi once
// (Summary.lists): it lays out, per summary, mi's tail and its sample run
// (values, then weights) in lists — two nil runs for a summary that manages
// fewer than mi+1 quantiles — and reports whether any summary is flagged
// bursty. cachedOf and samplesOf then shape the gathered runs for the two
// merges without reading an index again. managedAnswer is their one reader.
func (sc *mergeScratch) gather(summaries []Summary, mi int) (burst bool) {
	lists := sc.lists[:0]
	for i := range summaries {
		s := &summaries[i]
		if mi >= s.Managed() {
			lists = append(lists, nil, nil)
			continue
		}
		tail, samples, b := s.lists(mi)
		lists = append(lists, tail, samples)
		burst = burst || b
	}
	sc.lists = lists
	return burst
}

// cachedOf turns the gathered runs, in place, into the runs of every value
// retained for mi per summary (Summary.cached): the tail, and the sample
// values below it.
func (sc *mergeScratch) cachedOf() [][]float64 {
	lists := sc.lists
	for i := 0; i+1 < len(lists); i += 2 {
		sm := lists[i+1]
		lists[i+1] = belowTail(lists[i], sm[:len(sm)/2])
	}
	return lists
}

// samplesOf returns the gathered sample lists of the summaries that manage
// mi, as values and weights. It must run before cachedOf.
func (sc *mergeScratch) samplesOf(summaries []Summary, mi int) (values, weights [][]float64) {
	values, weights = sc.values[:0], sc.weights[:0]
	for i := range summaries {
		if mi < summaries[i].Managed() {
			sm := sc.lists[2*i+1]
			values, weights = append(values, sm[:len(sm)/2]), append(weights, sm[len(sm)/2:])
		}
	}
	sc.values, sc.weights = values, weights
	return values, weights
}

// managedAnswer resolves managed quantile mi — the cfg.Phis[pi] quantile —
// over summaries per §4.3, from the Level-2 estimate level2 and the few-k
// merges, reading the rank of ϕ in a logical window of logicalN elements.
// Policy.Result and Snapshot.Estimates both come through it (by answer),
// so a captured summary set is answered exactly, bit for bit, the way a
// live operator answers its own. It also returns whether a resident sub-window is
// flagged bursty.
//
// It runs only the merges the answer reads: sample-k when there is a burst
// or cfg.SampleKOnly is set, and top-k only when ϕ is statistically
// inefficient and sample-k has not already answered. A skipped merge goes
// to fewk.Outcome as not-ok, where it is never read. The gathered views
// are dropped before it returns, so the scratch pins no block between
// evaluations.
func (sc *mergeScratch) managedAnswer(cfg *Config, summaries []Summary, mi, pi, logicalN int, level2 float64) (est float64, burst bool) {
	phi := cfg.Phis[pi]
	burst = sc.gather(summaries, mi)
	var topK, sampleK float64
	var topOK, sampOK bool
	if burst || cfg.SampleKOnly {
		values, weights := sc.samplesOf(summaries, mi)
		sampleK, sampOK = fewk.SampleKMerge(values, weights, logicalN, phi, &sc.fewk)
		clear(values)
		clear(weights)
	}
	if cfg.SampleKOnly && sampOK {
		// Table 4 mode: the sample-k pipeline answers managed quantiles
		// unconditionally.
		est = sampleK
	} else {
		statIneff := fewk.NeedsTopK(cfg.Spec.Period, phi, cfg.StatThreshold)
		if statIneff && !(burst && sampOK) {
			topK, topOK = fewk.TopKMerge(sc.cachedOf(), logicalN, phi, &sc.fewk)
		}
		est = fewk.Outcome(level2, topK, topOK, sampleK, sampOK, burst, statIneff)
	}
	clear(sc.lists)
	return est, burst
}

// burstyVsPrev runs §4.3's burst test for managed quantile mi: is the
// freshly sealed cur's retained tail stochastically larger than prev's, at
// level alpha? Each summary's retained values — the tail, then the samples
// below it — are one descending run, which is what fewk.DetectBurst ranks
// by merging. Runs too short for any values to reach alpha (burstFloor)
// are not ranked: at 512/128 a ϕ = 0.99 sub-window retains 3 values, and
// no 3 against 3 gets below p = 0.0234, above α/3.
func (sc *mergeScratch) burstyVsPrev(cur, prev *Summary, mi int, alpha float64) bool {
	tail, below := cur.cached(mi)
	ptail, pbelow := prev.cached(mi)
	nx, ny := len(tail)+len(below), len(ptail)+len(pbelow)
	if nx < len(burstFloor) && ny < len(burstFloor) && burstFloor[nx][ny] >= alpha {
		return false
	}
	u := append(append(sc.union[:0], tail...), below...)
	u = append(append(u, ptail...), pbelow...)
	sc.union = u
	return fewk.DetectBurst(u[:nx], u[nx:], alpha)
}

// burstFloor[nx][ny] is the smallest p the burst test can return for
// retained runs of nx and ny values (stats.MannWhitneyFloor), for the run
// lengths that floor is checked at.
var burstFloor = func() (f [stats.MannWhitneyFloorSize + 1][stats.MannWhitneyFloorSize + 1]float64) {
	for nx := range f {
		for ny := range f[nx] {
			f[nx][ny], _ = stats.MannWhitneyFloor(nx, ny)
		}
	}
	return f
}()

// builder accumulates one in-flight sub-window of raw values. The paper's
// Level 1 keeps a sub-window as the compressed {value, count} red-black
// tree of Algorithm 1, quantizing every value so that recurring ones
// collapse; this one keeps it as a flat buffer in arrival order and, at
// seal, moves into place only the order statistics the summary reads
// (selectSeal, or radixSort of the whole buffer where that is cheaper) and
// quantizes only those — the same summary, bit for bit, because the
// quantizer never decreases: the k-th smallest quantized value is the
// quantized k-th smallest value. The tree's compression pays less
// than it costs: a sub-window of 128 NetMon values is mostly distinct (113
// at 3 digits), and even at the paper's 1 000–16 000-value periods
// selecting from the buffer beats a tree. The scratch slices are reused
// across batches and seals, so steady-state ingestion allocates only what
// a Summary must retain.
//
// It is the operator's Level-1 workbench, and empty at every seal: an
// operator borrows one from the Pool that minted it only while a
// sub-window is in flight (see Policy.bench).
//
// A workbench serves ONE configuration, bound when it is made (newBuilder):
// a pool's workbenches serve the pool's configuration. The seal takes
// nothing of the configuration but the budgets (the shape's plan, or a
// test's hand-made one), so the plan it memoizes is never read under
// another configuration.
type builder struct {
	// sh is the configuration served.
	sh *Shape

	// vals is the in-flight sub-window: raw values, NaN dropped, in arrival
	// order until the seal rearranges it. ±0 both stay; every read
	// quantizes and answers +0 for either.
	vals  []float64
	quant compress.Quantizer

	// The plan of a planN-value seal (see plan): it depends on the
	// configuration and planN alone, so every full sub-window reuses it
	// and only a partial seal of another length plans again. radixBytes is
	// the most varying key bytes at which sorting the sub-window outright
	// (radixSort) is cheaper than selecting the plan's reads, 0 when
	// selection always is; the two share a word, which keeps a workbench
	// in its size class.
	planN, radixBytes int32
	reqs              []rankReq // rank requests, sorted by rank
	los, his          []float64 // density finite-difference bounds per ϕ
	tailNs            []int     // few-k capture depth per managed ϕ
	maxTail           int       // the deepest of them

	// qbuf holds quantized copies: unique's of the whole buffer, and the
	// seal's reads — each position a request reads below the tail, in rank
	// order, then the tail, which the few-k capture reverses in place.
	qbuf     []float64
	slotVals []float64 // rank answers distributed back to request slots
	dens     []float64 // density per ϕ
	samples  []float64 // every managed ϕ's sample values and weights, back to back
	// Per-managed-ϕ views into tail and samples handed to NewSummary, and
	// the burst flags it is given: one per managed ϕ (nil without any),
	// always false here — EndPeriod raises them in the sealed block.
	tails, sampleVals, sampleWts [][]float64
	flags                        []bool
}

// rankReq asks one seal for the value at a 1-based rank; slot says where
// the answer goes (0..l-1: ϕ-quantiles; l+2i, l+2i+1: density lo/hi
// bounds of ϕ index i), and read where the seal's reads hold the answer.
type rankReq struct {
	rank       uint64
	slot, read int32
}

// newBuilder returns an empty workbench for the configuration sh, its
// buffer sized for a sub-window of one period.
func newBuilder(sh *Shape) *builder {
	b := &builder{
		sh:    sh,
		vals:  make([]float64, 0, sh.cfg.Spec.Period),
		quant: compress.NewQuantizer(sh.cfg.Digits),
	}
	if len(sh.managed) > 0 {
		b.flags = make([]bool, len(sh.managed))
	}
	return b
}

// add accumulates one element as it arrived; the seal quantizes what it
// reads. NaN values — telemetry glitches — are dropped: they have no place
// in an order statistic and would corrupt the comparisons.
func (b *builder) add(v float64) {
	if !math.IsNaN(v) {
		b.vals = append(b.vals, v)
	}
}

// addBatch accumulates a run of elements exactly as repeated add calls
// would.
func (b *builder) addBatch(vs []float64) {
	vals := b.vals
	for _, v := range vs {
		if !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	b.vals = vals
}

// len returns the number of elements accumulated so far.
func (b *builder) len() int { return len(b.vals) }

// unique returns the in-flight sub-window's space cost, its distinct
// quantized values, counted on a quantized, sorted copy so that asking
// leaves the buffer as it was. ±0 count once: they compare equal.
func (b *builder) unique() int {
	u := b.quant.AppendQuantized(b.qbuf[:0], b.vals)
	b.qbuf = u
	slices.Sort(u)
	return len(slices.Compact(u))
}

// seal computes the sub-window summary; the caller then empties the
// builder (clear). budgets holds the per-sub-window plans of the managed
// quantiles.
//
// The seal is fused: plan gathers every rank the summary needs — the l
// ϕ-quantiles and the two density finite-difference bounds per ϕ — and
// the depth of ONE shared descending tail that every managed quantile
// reads a prefix of; the ordering kernel puts those positions in place —
// radixSort sorts the whole sub-window where the plan reads most of it and
// few key bytes vary (radixBytes), selectSeal moves exactly those
// positions otherwise; assemble reads them by index and quantizes what it
// read. sc holds the radix sort's buffers.
func (b *builder) seal(budgets []fewk.Budget, sc *mergeScratch) Summary {
	b.plan()
	if b.radixBytes == 0 || !sc.radixSort(b.vals, int(b.radixBytes)) {
		selectSeal(b.vals, b.reqs, len(b.vals)-b.maxTail)
	}
	return b.assemble(budgets)
}

// plan makes the seal's plan for a sub-window of len(vals) values, unless
// it already holds that length's: how many of the sub-window's largest
// values each managed ϕ's few-k capture reads, the rank requests, sorted
// by rank, the density bounds per ϕ (the n^(−1/3) bandwidth is in them),
// and where in the seal's reads each request finds its answer. Requests
// often share a rank — at 64/16 twelve requests read six positions — and
// a rank in the tail is read from it, so the seal reads, and quantizes,
// each position once.
func (b *builder) plan() {
	n := len(b.vals)
	if n == int(b.planN) {
		return
	}
	b.planN = int32(n)
	cfg := &b.sh.cfg
	b.tailNs, b.maxTail = b.tailNs[:0], 0
	for _, pi := range b.sh.managed {
		ts := tailSize(cfg.Spec.Size, cfg.Phis[pi], n)
		b.tailNs = append(b.tailNs, ts)
		b.maxTail = max(b.maxTail, ts)
	}
	l := len(cfg.Phis)
	reqs := b.reqs[:0]
	for i, phi := range cfg.Phis {
		reqs = append(reqs, rankReq{rank: uint64(stats.CeilRank(phi, n)), slot: int32(i)})
	}
	b.los = growFloats(b.los, l)
	b.his = growFloats(b.his, l)
	if n >= 4 {
		for i, phi := range cfg.Phis {
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
	slices.SortFunc(reqs, func(a, c rankReq) int { return cmp.Compare(a.rank, c.rank) })
	// The reads: one per distinct rank below the tail, then the tail.
	tailFrom, below := n-b.maxTail, int32(0)
	for i := range reqs {
		r := &reqs[i]
		if pos := int(r.rank) - 1; pos >= tailFrom {
			r.read = below + int32(pos-tailFrom) // every rank below the tail came first
			continue
		}
		if i == 0 || reqs[i-1].rank != r.rank {
			below++
		}
		r.read = below - 1
	}
	b.reqs = reqs
	if need := int(below) + b.maxTail; cap(b.qbuf) < need {
		b.qbuf = make([]float64, 0, need)
	}
	b.radixBytes = int32(radixBytes(n, selectCost(n, 0, reqs, tailFrom)))
}

// assemble builds the summary of the sub-window in vals from positions
// alone: every planned rank r is read at vals[r-1], and the top maxTail
// values from the end of vals backwards. vals need be in sorted order only
// at those positions. Every position read is quantized once, and −0
// reads as +0: the reads below the tail, then the tail, are one ascending
// run, so one AppendQuantized pass looks each decade up once.
func (b *builder) assemble(budgets []fewk.Budget) Summary {
	n, l := len(b.vals), len(b.sh.cfg.Phis)
	tailFrom, reads := n-b.maxTail, b.qbuf[:0]
	for _, r := range b.reqs {
		if int(r.read) == len(reads) && int(r.rank) <= tailFrom {
			reads = append(reads, b.vals[r.rank-1]) // the first request of its rank below the tail
		}
	}
	below := len(reads)
	reads = append(reads, b.vals[tailFrom:]...)
	reads = b.quant.AppendQuantized(reads[:0], reads) // plan gave qbuf the room
	for i, v := range reads {
		if v == 0 {
			reads[i] = 0
		}
	}
	b.slotVals = growFloats(b.slotVals, 3*l)
	for _, r := range b.reqs {
		b.slotVals[r.slot] = reads[r.read]
	}
	// Density at each ϕ-quantile by finite difference of the empirical
	// quantile function, mirroring stats.DensityAt on the rank reads.
	b.dens = growFloats(b.dens, l)
	for i := range l {
		b.dens[i] = 0
		if n < 4 {
			continue
		}
		qlo, qhi := b.slotVals[l+2*i], b.slotVals[l+2*i+1]
		if qhi <= qlo {
			b.dens[i] = math.Inf(1)
			continue
		}
		b.dens[i] = (b.his[i] - b.los[i]) / (qhi - qlo)
	}
	// Few-k capture: managed quantiles all want "the k largest", so one
	// shared descending run of maxTail values serves every ϕ as a prefix.
	tail := reads[below:]
	slices.Reverse(tail)
	nSamples := 0
	for mi, ts := range b.tailNs {
		nSamples += fewk.SampleCount(ts, budgets[mi].Ks)
	}
	b.samples = growFloats(b.samples, 2*nSamples)
	b.tails, b.sampleVals, b.sampleWts = b.tails[:0], b.sampleVals[:0], b.sampleWts[:0]
	samples := b.samples
	for mi, ts := range b.tailNs {
		tail := tail[:ts]
		ks := fewk.SampleCount(ts, budgets[mi].Ks)
		values, weights := samples[:ks], samples[ks:2*ks]
		samples = samples[2*ks:]
		fewk.SampleTail(values, weights, tail)
		b.tails = append(b.tails, tail[:min(budgets[mi].Kt, ts)])
		b.sampleVals, b.sampleWts = append(b.sampleVals, values), append(b.sampleWts, weights)
	}
	s, err := NewSummary(n, b.slotVals[:l], b.dens, b.tails, b.sampleVals, b.sampleWts, b.flags)
	if err != nil {
		panic("qlove: seal built an inconsistent summary: " + err.Error())
	}
	return s
}

// selectSeal rearranges v so that every position a request reads holds
// the value a full ascending sort would put there, and v[tailFrom:] is
// sorted; elsewhere v is only partitioned. reqs must be sorted by rank. v
// holds no NaN, so values that compare equal are identical bits but for
// ±0, and any arrangement that puts the right value at a position is the
// sort's, bit for bit, once assemble has read −0 as +0. The leaves sort
// −0 before +0; the partitions keep them where they fall.
func selectSeal(v []float64, reqs []rankReq, tailFrom int) {
	multiSelect(v, 0, reqs, tailFrom, 2*bits.Len(uint(len(v))))
}

// selectSortBelow is the longest segment multiSelect sorts as a leaf
// (sortLeaf) instead of partitioning it: the sorting network's width.
const selectSortBelow = 16

// multiSelect is selectSeal on the segment v of the buffer, which starts
// at position off; reqs are the requests whose position (rank−1) falls in
// it, sorted by rank. It is an introselect: each round partitions v three
// ways around a pseudo-median pivot — telemetry repeats values, and the
// run equal to the pivot is final whatever it holds — and continues only
// into the parts that hold a requested position or reach into the tail,
// so the tail ends up quicksorted. A part of at most selectSortBelow
// values is sorted by the network, and one that has used up its depth
// budget is sorted outright, so no input is quadratic.
func multiSelect(v []float64, off int, reqs []rankReq, tailFrom, depth int) {
	for len(reqs) > 0 || off+len(v) > tailFrom {
		if len(v) <= selectSortBelow {
			sortLeaf(v)
			return
		}
		if depth == 0 {
			slices.Sort(v)
			return
		}
		depth--
		lt, gt := partition3(v, pivot(v))
		// Requests left of the equal run, then right of it.
		i := 0
		for i < len(reqs) && int(reqs[i].rank) <= off+lt {
			i++
		}
		j := i
		for j < len(reqs) && int(reqs[j].rank) <= off+gt {
			j++
		}
		multiSelect(v[:lt], off, reqs[:i], tailFrom, depth)
		v, off, reqs = v[gt:], off+gt, reqs[j:]
	}
}

// sortKey maps a float64 to a uint64 whose unsigned order is the float's
// order: a positive float's bits with the sign bit set, a negative one's
// bits inverted. −0 keys just below +0, and a NaN, which the buffer never
// holds, beyond ±Inf. fromKey inverts it, bit for bit.
func sortKey(f float64) uint64 {
	b := math.Float64bits(f)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

func fromKey(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// sortLeaf sorts a v of at most 16 values ascending by sort16 over their
// keys, padded with the largest key, which sorts after every value's.
func sortLeaf(v []float64) {
	if len(v) < 2 {
		return
	}
	k := [16]uint64{
		^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0),
		^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0),
	}
	for i, x := range v {
		k[i] = sortKey(x)
	}
	sort16(&k)
	for i := range v {
		v[i] = fromKey(k[i])
	}
}

// sort16 sorts 16 keys ascending by a fixed network of 60 comparators in
// ten layers, the fewest comparators known for 16 inputs. Each
// compare-exchange is an integer min and max, which compile to conditional
// moves: no branch depends on the data. TestSort16ZeroOne checks it on all
// 2^16 zero-one inputs, which by the 0-1 principle covers every input.
func sort16(k *[16]uint64) {
	a0, a1, a2, a3, a4, a5, a6, a7 := k[0], k[1], k[2], k[3], k[4], k[5], k[6], k[7]
	a8, a9, a10, a11, a12, a13, a14, a15 := k[8], k[9], k[10], k[11], k[12], k[13], k[14], k[15]
	a0, a13 = min(a0, a13), max(a0, a13)
	a1, a12 = min(a1, a12), max(a1, a12)
	a2, a15 = min(a2, a15), max(a2, a15)
	a3, a14 = min(a3, a14), max(a3, a14)
	a4, a8 = min(a4, a8), max(a4, a8)
	a5, a6 = min(a5, a6), max(a5, a6)
	a7, a11 = min(a7, a11), max(a7, a11)
	a9, a10 = min(a9, a10), max(a9, a10)

	a0, a5 = min(a0, a5), max(a0, a5)
	a1, a7 = min(a1, a7), max(a1, a7)
	a2, a9 = min(a2, a9), max(a2, a9)
	a3, a4 = min(a3, a4), max(a3, a4)
	a6, a13 = min(a6, a13), max(a6, a13)
	a8, a14 = min(a8, a14), max(a8, a14)
	a10, a15 = min(a10, a15), max(a10, a15)
	a11, a12 = min(a11, a12), max(a11, a12)

	a0, a1 = min(a0, a1), max(a0, a1)
	a2, a3 = min(a2, a3), max(a2, a3)
	a4, a5 = min(a4, a5), max(a4, a5)
	a6, a8 = min(a6, a8), max(a6, a8)
	a7, a9 = min(a7, a9), max(a7, a9)
	a10, a11 = min(a10, a11), max(a10, a11)
	a12, a13 = min(a12, a13), max(a12, a13)
	a14, a15 = min(a14, a15), max(a14, a15)

	a0, a2 = min(a0, a2), max(a0, a2)
	a1, a3 = min(a1, a3), max(a1, a3)
	a4, a10 = min(a4, a10), max(a4, a10)
	a5, a11 = min(a5, a11), max(a5, a11)
	a6, a7 = min(a6, a7), max(a6, a7)
	a8, a9 = min(a8, a9), max(a8, a9)
	a12, a14 = min(a12, a14), max(a12, a14)
	a13, a15 = min(a13, a15), max(a13, a15)

	a1, a2 = min(a1, a2), max(a1, a2)
	a3, a12 = min(a3, a12), max(a3, a12)
	a4, a6 = min(a4, a6), max(a4, a6)
	a5, a7 = min(a5, a7), max(a5, a7)
	a8, a10 = min(a8, a10), max(a8, a10)
	a9, a11 = min(a9, a11), max(a9, a11)
	a13, a14 = min(a13, a14), max(a13, a14)

	a1, a4 = min(a1, a4), max(a1, a4)
	a2, a6 = min(a2, a6), max(a2, a6)
	a5, a8 = min(a5, a8), max(a5, a8)
	a7, a10 = min(a7, a10), max(a7, a10)
	a9, a13 = min(a9, a13), max(a9, a13)
	a11, a14 = min(a11, a14), max(a11, a14)

	a2, a4 = min(a2, a4), max(a2, a4)
	a3, a6 = min(a3, a6), max(a3, a6)
	a9, a12 = min(a9, a12), max(a9, a12)
	a11, a13 = min(a11, a13), max(a11, a13)

	a3, a5 = min(a3, a5), max(a3, a5)
	a6, a8 = min(a6, a8), max(a6, a8)
	a7, a9 = min(a7, a9), max(a7, a9)
	a10, a12 = min(a10, a12), max(a10, a12)

	a3, a4 = min(a3, a4), max(a3, a4)
	a5, a6 = min(a5, a6), max(a5, a6)
	a7, a8 = min(a7, a8), max(a7, a8)
	a9, a10 = min(a9, a10), max(a9, a10)
	a11, a12 = min(a11, a12), max(a11, a12)

	a6, a7 = min(a6, a7), max(a6, a7)
	a8, a9 = min(a8, a9), max(a8, a9)
	k[0], k[1], k[2], k[3], k[4], k[5], k[6], k[7] = a0, a1, a2, a3, a4, a5, a6, a7
	k[8], k[9], k[10], k[11], k[12], k[13], k[14], k[15] = a8, a9, a10, a11, a12, a13, a14, a15
}

// The seal's cost model, fitted to both kernels' times on NetMon, Search
// and Normal(1e6, 5e4) sub-windows of 16–16 000 values (2-CPU amd64, in
// ns). Selection costs selectPartNs per value per partition round,
// selectRoundNs per round and selectLeafNs per network leaf. The radix
// sort costs radixKeyNs per value to key, and per varying byte
// radixHistNs plus radixPassNs per value — radixPassFarNs once keys and
// swap (16 bytes a value) outgrow a 32 KB L1 cache.
const (
	selectPartNs   = 2.1
	selectRoundNs  = 72.0
	selectLeafNs   = 125.0
	radixKeyNs     = 0.3
	radixHistNs    = 100.0
	radixPassNs    = 3.3
	radixPassFarNs = 5.0
	radixNearKeys  = 2048
)

// selectCost estimates what multiSelect spends on the n-position segment
// starting at off, whose positions reqs and the tail from tailFrom read,
// if every pivot split it in half.
func selectCost(n, off int, reqs []rankReq, tailFrom int) float64 {
	if len(reqs) == 0 && off+n <= tailFrom {
		return 0
	}
	if n <= selectSortBelow {
		return selectLeafNs
	}
	half := n / 2
	i := 0
	for i < len(reqs) && int(reqs[i].rank) <= off+half {
		i++
	}
	return selectPartNs*float64(n) + selectRoundNs +
		selectCost(half, off, reqs[:i], tailFrom) + selectCost(n-half, off+half, reqs[i:], tailFrom)
}

// radixBytes returns the most varying key bytes at which radixSort sorts n
// values for less than selection's estimated cost selectNs, or 0. A
// sub-window that is one network leaf is never radix-sorted.
func radixBytes(n int, selectNs float64) int {
	if n <= selectSortBelow {
		return 0
	}
	perPass := radixPassNs
	if n > radixNearKeys {
		perPass = radixPassFarNs
	}
	p := 0
	for p < 8 && radixKeyNs*float64(n)+float64(p+1)*(perPass*float64(n)+radixHistNs) < selectNs {
		p++
	}
	return p
}

// radixSort sorts v ascending by an LSD radix sort of its keys, one pass
// per key byte that varies across v, when at most maxBytes do, and reports
// whether it did; otherwise it leaves v as it was. −0 sorts before +0.
// The keys are built in blocks of radixProbe values, and it gives up as
// soon as too many bytes vary, so a refused segment costs one block. Each
// pass counts the next pass's digits as it scatters, and the last one
// scatters the values themselves back into v.
func (sc *mergeScratch) radixSort(v []float64, maxBytes int) bool {
	n := len(v)
	if cap(sc.keys) < n {
		sc.keys, sc.swap = make([]uint64, n), make([]uint64, n)
	}
	keys, swap := sc.keys[:n], sc.swap[:n]
	first, diff := sortKey(v[0]), uint64(0)
	for lo := 0; lo < n; lo += radixProbe {
		hi := min(lo+radixProbe, n)
		for i, x := range v[lo:hi] {
			k := sortKey(x)
			keys[lo+i] = k
			diff |= k ^ first
		}
		if varyingBytes(diff) > maxBytes {
			return false
		}
	}
	if diff == 0 {
		return true // all of v is one value
	}
	shift := uint(bits.TrailingZeros64(diff)) &^ 7
	var counts [2][256]uint32
	count, next := &counts[0], &counts[1]
	for _, k := range keys {
		count[byte(k>>shift)]++
	}
	for {
		sum := uint32(0)
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		rest := diff >> shift >> 8
		if rest == 0 {
			for _, k := range keys {
				d := byte(k >> shift)
				v[count[d]] = fromKey(k)
				count[d]++
			}
			return true
		}
		to := shift + 8 + uint(bits.TrailingZeros64(rest))&^7
		*next = [256]uint32{}
		for _, k := range keys {
			d := byte(k >> shift)
			swap[count[d]] = k
			count[d]++
			next[byte(k>>to)]++
		}
		keys, swap = swap, keys
		shift, count, next = to, next, count
	}
}

// radixProbe is how many values radixSort keys between two checks of how
// many bytes vary.
const radixProbe = 32

// varyingBytes counts the nonzero bytes of d.
func varyingBytes(d uint64) int {
	const low7 = 0x7f7f7f7f7f7f7f7f
	return bits.OnesCount64((d&low7 + low7 | d) &^ low7)
}

// pivot returns the median of three samples of v, or of three such
// medians (Tukey's ninther) when v is long.
func pivot(v []float64) float64 {
	n := len(v)
	a, b, c := 0, n/2, n-1
	if n >= 64 {
		s := n / 8
		return median3(median3(v[a], v[a+s], v[a+2*s]), median3(v[b-s], v[b], v[b+s]), median3(v[c-2*s], v[c-s], v[c]))
	}
	return median3(v[a], v[b], v[c])
}

// median3 returns the middle one of three values.
func median3(a, b, c float64) float64 {
	if b < a {
		a, b = b, a
	}
	if c < b {
		b = c
		if b < a {
			b = a
		}
	}
	return b
}

// partition3 rearranges v into the values below p, those equal to it and
// those above it, and returns where the equal run starts and ends. Each of
// its two passes moves every value it visits and advances its boundary by
// a comparison, not a branch, so unpredictable data costs no mispredicts.
func partition3(v []float64, p float64) (lt, gt int) {
	for i, x := range v {
		v[i], v[lt] = v[lt], x
		lt += b2i(x < p)
	}
	gt = lt
	for i := lt; i < len(v); i++ {
		x := v[i]
		v[i], v[gt] = v[gt], x
		gt += b2i(x == p)
	}
	return lt, gt
}

// b2i is 1 for true and 0 for false, compiled without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// clear empties the builder back to its as-constructed state, keeping the
// buffer and every scratch buffer at capacity, so the next sub-window —
// the same operator's, or whichever key of the shard borrows it next —
// fills it without allocating.
func (b *builder) clear() {
	b.vals = b.vals[:0]
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
