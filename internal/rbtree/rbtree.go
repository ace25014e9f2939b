// Package rbtree implements a red-black tree keyed by float64 values where
// each node carries a frequency count. It is the in-flight sub-window state
// of Algorithm 1 in the QLOVE paper (a compressed {value, count}
// representation of the observed stream) and the state of the Exact
// sliding-window baseline.
//
// Beyond the paper's description, every node also maintains the total
// frequency weight of its subtree, which turns the tree into an
// order-statistic tree: Select(rank) answers a single quantile in O(log u)
// for u unique values. Multi-quantile queries still use the paper's
// single-pass in-order traversal (Quantiles, SelectRanks).
//
// Nodes live in a flat arena ([]node indexed by int32) rather than behind
// individual pointers. Index 0 is a reserved nil sentinel, deleted nodes go
// onto a free list threaded through their parent field, and Clear truncates
// the arena without releasing its capacity. Steady-state ingestion — the
// per-period fill/seal/Clear cycle of QLOVE's Level 1, or the Exact
// baseline's insert/remove churn — therefore performs zero heap
// allocations once the arena has grown to its working-set size, and the
// compact node layout removes the pointer-chasing cache misses of a
// heap-node tree.
package rbtree

import (
	"fmt"
	"math"
	"math/bits"
)

type color bool

const (
	red   color = false
	black color = true
)

// nilIdx is the arena index of the reserved nil sentinel. The sentinel is
// permanently black and never linked into the tree, so color reads through
// possibly-nil indices need no branch.
const nilIdx int32 = 0

type node struct {
	key                 float64
	count               uint64 // frequency of key
	weight              uint64 // sum of counts in this subtree
	left, right, parent int32
	color               color
}

// Tree is a red-black tree of {value, count} pairs ordered by value.
// The zero value is ready to use.
//
// Subtree weights are maintained lazily: mutations mark them dirty and the
// rank readers (Select, Rank, Quantile) rebuild them in one O(u) pass.
// Ingestion therefore pays no per-insert weight stores, and the
// traversal-based readers the hot seal path uses (Quantiles, SelectRanks,
// TopK, Ascend/Descend) never trigger a rebuild at all.
type Tree struct {
	nodes  []node // arena; nodes[0] is the nil sentinel
	free   int32  // head of the free list (threaded through parent); 0 = empty
	root   int32
	unique int    // number of resident nodes (distinct keys ever inserted since Clear)
	total  uint64 // sum of all counts
	dirty  bool   // subtree weights stale; rebuilt on next rank read
	zeroOK bool   // ResetCounts ran: zero-count nodes are legitimate

	// cache is a direct-mapped {key -> node index} table: telemetry value
	// distributions are heavily skewed, so most inserts hit a recently
	// seen key and skip the tree descent entirely (weights being lazy is
	// what makes the O(1) count bump sound). Entries are validated by
	// epoch, which Clear bumps instead of wiping the table. cacheBits is
	// log2 of the slot count (0 = the default cacheSize); the table itself
	// is allocated on first insert.
	cache     []cacheEntry
	epoch     uint32
	cacheBits uint8
}

// cacheEntry is one slot of the insert cache. idx == 0 (the sentinel)
// marks an empty slot.
type cacheEntry struct {
	key   float64
	idx   int32
	epoch uint32
}

// cacheSize is the default (and largest) insert-cache slot count — 16 KiB
// of entries: enough to cover the stable value population a tree RETAINS
// across ResetCounts cycles of a quantized telemetry stream with few
// conflict misses, while staying within L1/L2 reach. A tree that is
// Cleared every cycle never holds more distinct keys than one cycle
// inserts and can say so (NewSized) to get a table sized to that instead.
const (
	cacheSizeBits = 10
	cacheSize     = 1 << cacheSizeBits
)

// slot maps a key's bits to a cache slot (Fibonacci multiply-shift). Only
// valid once the table exists.
func (t *Tree) slot(key float64) uint64 {
	return (math.Float64bits(key) * 0x9E3779B97F4A7C15) >> (64 - t.cacheBits)
}

// initCache allocates the insert cache (once per tree lifetime, on the
// first insert; Clear keeps it).
func (t *Tree) initCache() {
	if t.cacheBits == 0 {
		t.cacheBits = cacheSizeBits
	}
	t.cache = make([]cacheEntry, 1<<t.cacheBits)
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// NewSized returns an empty tree for a caller that Clears it before more
// than maxUnique distinct keys accumulate: its insert cache gets the
// smallest power of two of at least 2·maxUnique slots (so a full tree
// loads the direct-mapped table to at most one half), capped at the default
// cacheSize. The bound sizes the cache only — a tree that outgrows it stays
// correct and merely misses more.
func NewSized(maxUnique int) *Tree {
	b := uint8(1)
	if maxUnique > 1 {
		b = uint8(bits.Len(uint(2*maxUnique - 1)))
	}
	if b > cacheSizeBits {
		b = cacheSizeBits
	}
	return &Tree{cacheBits: b}
}

// Len returns the total number of inserted elements (sum of frequencies).
func (t *Tree) Len() uint64 { return t.total }

// Unique returns the number of distinct values stored.
func (t *Tree) Unique() int { return t.unique }

// Empty reports whether the tree holds no elements.
func (t *Tree) Empty() bool { return t.total == 0 }

// alloc returns the index of a zeroed node initialised to {key, count},
// reusing the free list before growing the arena.
func (t *Tree) alloc(key float64, count uint64, parent int32) int32 {
	if t.free != nilIdx {
		i := t.free
		t.free = t.nodes[i].parent
		t.nodes[i] = node{key: key, count: count, weight: count, parent: parent}
		return i
	}
	if len(t.nodes) == 0 {
		t.nodes = make([]node, 1, 64)
		t.nodes[0] = node{color: black} // sentinel
	}
	if len(t.nodes) == cap(t.nodes) {
		// Double instead of relying on append's growth curve: large arenas
		// otherwise grow by ~1.25x, and the frequent full-arena copies that
		// causes dominate distinct-heavy insert workloads.
		grown := make([]node, len(t.nodes), 2*cap(t.nodes))
		copy(grown, t.nodes)
		t.nodes = grown
	}
	t.nodes = append(t.nodes, node{key: key, count: count, weight: count, parent: parent})
	return int32(len(t.nodes) - 1)
}

// release puts node i on the free list, invalidating any insert-cache
// entry that still maps its key to the slot.
func (t *Tree) release(i int32) {
	if t.cache != nil {
		if e := &t.cache[t.slot(t.nodes[i].key)]; e.idx == i {
			e.idx = nilIdx
		}
	}
	t.nodes[i] = node{parent: t.free}
	t.free = i
}

// fixWeights rebuilds every subtree weight in one post-order pass. Rank
// readers call it lazily, so mutation paths never touch weights.
func (t *Tree) fixWeights() {
	if !t.dirty {
		return
	}
	fixWeightsRec(t.nodes, t.root)
	t.dirty = false
}

func fixWeightsRec(ns []node, i int32) uint64 {
	if i == nilIdx {
		return 0
	}
	n := &ns[i]
	n.weight = n.count + fixWeightsRec(ns, n.left) + fixWeightsRec(ns, n.right)
	return n.weight
}

// Insert adds one occurrence of key (Accumulate in Algorithm 1).
func (t *Tree) Insert(key float64) { t.InsertN(key, 1) }

// InsertN adds n occurrences of key at once. The batched ingestion path
// run-length-groups quantized values and lands here, paying one tree
// descent per run instead of one per element — and no descent at all when
// the insert cache still maps key to its node.
func (t *Tree) InsertN(key float64, n uint64) {
	if n == 0 {
		return
	}
	t.total += n
	t.dirty = true
	if t.cache == nil {
		t.initCache()
	}
	slot := &t.cache[t.slot(key)]
	if slot.idx != nilIdx && slot.epoch == t.epoch && slot.key == key {
		t.nodes[slot.idx].count += n
		return
	}
	parent := nilIdx
	cur := t.root
	ns := t.nodes // no allocation can happen during the descent
	for cur != nilIdx {
		nd := &ns[cur]
		switch {
		case key < nd.key:
			parent = cur
			cur = nd.left
		case key > nd.key:
			parent = cur
			cur = nd.right
		default:
			nd.count += n
			*slot = cacheEntry{key: key, idx: cur, epoch: t.epoch}
			return
		}
	}
	nn := t.alloc(key, n, parent)
	t.unique++
	if parent == nilIdx {
		t.root = nn
	} else if key < t.nodes[parent].key {
		t.nodes[parent].left = nn
	} else {
		t.nodes[parent].right = nn
	}
	t.insertFixup(nn)
	*slot = cacheEntry{key: key, idx: nn, epoch: t.epoch}
}

// Remove deletes one occurrence of key (the Exact baseline's Deaccumulate).
// It reports whether the key was present.
func (t *Tree) Remove(key float64) bool {
	n := t.find(key)
	if n == nilIdx {
		return false
	}
	t.total--
	t.dirty = true
	if t.nodes[n].count > 1 {
		t.nodes[n].count--
		return true
	}
	t.deleteNode(n)
	t.unique--
	return true
}

func (t *Tree) find(key float64) int32 {
	cur := t.root
	ns := t.nodes
	for cur != nilIdx {
		nd := &ns[cur]
		switch {
		case key < nd.key:
			cur = nd.left
		case key > nd.key:
			cur = nd.right
		default:
			return cur
		}
	}
	return nilIdx
}

// Count returns the stored frequency of key (0 when absent).
func (t *Tree) Count(key float64) uint64 {
	if n := t.find(key); n != nilIdx {
		return t.nodes[n].count
	}
	return 0
}

// Min returns the smallest stored value. It panics on an empty tree.
func (t *Tree) Min() float64 {
	if t.root == nilIdx {
		panic("rbtree: Min of empty tree")
	}
	n := t.root
	for t.nodes[n].left != nilIdx {
		n = t.nodes[n].left
	}
	return t.nodes[n].key
}

// Max returns the largest stored value. It panics on an empty tree.
func (t *Tree) Max() float64 {
	if t.root == nilIdx {
		panic("rbtree: Max of empty tree")
	}
	n := t.root
	for t.nodes[n].right != nilIdx {
		n = t.nodes[n].right
	}
	return t.nodes[n].key
}

// Select returns the value with 1-based rank r in frequency-weighted sorted
// order, i.e. the r-th smallest element counting duplicates. It panics when
// r is out of range.
func (t *Tree) Select(r uint64) float64 {
	if r == 0 || r > t.total {
		panic(fmt.Sprintf("rbtree: Select rank %d out of range [1,%d]", r, t.total))
	}
	t.fixWeights()
	n := t.root
	ns := t.nodes
	for {
		nd := &ns[n]
		var lw uint64
		if nd.left != nilIdx {
			lw = ns[nd.left].weight
		}
		switch {
		case r <= lw:
			n = nd.left
		case r <= lw+nd.count:
			return nd.key
		default:
			r -= lw + nd.count
			n = nd.right
		}
	}
}

// Rank returns the number of stored elements with value <= key.
func (t *Tree) Rank(key float64) uint64 {
	t.fixWeights()
	var r uint64
	n := t.root
	ns := t.nodes
	for n != nilIdx {
		nd := &ns[n]
		var lw uint64
		if nd.left != nilIdx {
			lw = ns[nd.left].weight
		}
		switch {
		case key < nd.key:
			n = nd.left
		case key > nd.key:
			r += lw + nd.count
			n = nd.right
		default:
			return r + lw + nd.count
		}
	}
	return r
}

// Quantile returns the ϕ-quantile (0 < ϕ <= 1), defined as the element at
// 1-based rank ceil(ϕ·Len). It panics on an empty tree.
func (t *Tree) Quantile(phi float64) float64 {
	if t.total == 0 {
		panic("rbtree: Quantile of empty tree")
	}
	return t.Select(CeilRank(phi, t.total))
}

// CeilRank computes ceil(phi*n) clamped to [1, n]: the 1-based rank the
// paper's quantile definition reads. Exported so callers fusing several
// rank queries into one traversal (SelectRanks) resolve ϕ to the same rank
// Quantile and Quantiles would.
func CeilRank(phi float64, n uint64) uint64 {
	r := uint64(phi * float64(n))
	if float64(r) < phi*float64(n) {
		r++
	}
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Quantiles answers the given quantiles in one in-order traversal
// (ComputeResult in Algorithm 1). phis must be sorted in non-decreasing
// order; the result has the same length and order. It panics on an empty
// tree.
func (t *Tree) Quantiles(phis []float64) []float64 {
	if t.total == 0 {
		panic("rbtree: Quantiles of empty tree")
	}
	if len(phis) == 0 {
		return nil
	}
	results := make([]float64, len(phis))
	i := 0
	rank := CeilRank(phis[0], t.total)
	var running uint64
	t.Ascend(func(key float64, count uint64) bool {
		running += count
		for running >= rank {
			results[i] = key
			i++
			if i == len(phis) {
				return false
			}
			rank = CeilRank(phis[i], t.total)
		}
		return true
	})
	return results
}

// SelectRanks answers many rank queries in one in-order traversal: out[i]
// receives the value at 1-based rank ranks[i]. ranks must be sorted in
// non-decreasing order with every rank in [1, Len]; out must have the same
// length as ranks. It is the fused-seal primitive: one walk answers the
// sub-window quantiles and every density finite-difference rank together.
// It panics on an empty tree or mismatched slice lengths.
func (t *Tree) SelectRanks(ranks []uint64, out []float64) {
	if len(ranks) == 0 {
		return
	}
	if t.total == 0 {
		panic("rbtree: SelectRanks of empty tree")
	}
	if len(out) != len(ranks) {
		panic("rbtree: SelectRanks output length mismatch")
	}
	if last := ranks[len(ranks)-1]; ranks[0] == 0 || last > t.total {
		panic(fmt.Sprintf("rbtree: SelectRanks rank out of range [1,%d]", t.total))
	}
	i := 0
	var running uint64
	t.Ascend(func(key float64, count uint64) bool {
		running += count
		for running >= ranks[i] {
			out[i] = key
			i++
			if i == len(ranks) {
				return false
			}
			if ranks[i] < ranks[i-1] {
				panic("rbtree: SelectRanks ranks not sorted")
			}
		}
		return true
	})
}

// Ascend calls fn for each {value, count} pair in increasing value order,
// stopping early when fn returns false.
func (t *Tree) Ascend(fn func(key float64, count uint64) bool) {
	t.ascend(t.root, fn)
}

func (t *Tree) ascend(i int32, fn func(float64, uint64) bool) bool {
	if i == nilIdx {
		return true
	}
	n := &t.nodes[i]
	if !t.ascend(n.left, fn) {
		return false
	}
	if !fn(n.key, n.count) {
		return false
	}
	return t.ascend(n.right, fn)
}

// Descend calls fn for each {value, count} pair in decreasing value order,
// stopping early when fn returns false.
func (t *Tree) Descend(fn func(key float64, count uint64) bool) {
	t.descend(t.root, fn)
}

func (t *Tree) descend(i int32, fn func(float64, uint64) bool) bool {
	if i == nilIdx {
		return true
	}
	n := &t.nodes[i]
	if !t.descend(n.right, fn) {
		return false
	}
	if !fn(n.key, n.count) {
		return false
	}
	return t.descend(n.left, fn)
}

// AppendTopK appends up to k of the largest elements (counting duplicates,
// descending) to dst and returns the extended slice. Passing a scratch
// slice with spare capacity makes the tail capture of a seal
// allocation-free.
func (t *Tree) AppendTopK(dst []float64, k int) []float64 {
	if k <= 0 {
		return dst
	}
	want := len(dst) + k
	t.Descend(func(key float64, count uint64) bool {
		for j := uint64(0); j < count; j++ {
			dst = append(dst, key)
			if len(dst) == want {
				return false
			}
		}
		return true
	})
	return dst
}

// Clear resets the tree to empty. The arena keeps its capacity, so the
// next fill cycle re-uses the same backing array instead of handing the
// nodes to the garbage collector.
func (t *Tree) Clear() {
	t.root = nilIdx
	t.free = nilIdx
	t.unique = 0
	t.total = 0
	t.dirty = false
	t.zeroOK = false
	// Bumping the epoch invalidates every insert-cache entry without wiping
	// the table — except when the counter wraps, where an entry untouched
	// for 2^32 Clears would validate again (a workbench shared by a shard's
	// keys is Cleared every seal, so the wrap is hours away, not never).
	if t.epoch++; t.epoch == 0 {
		clear(t.cache)
	}
	if len(t.nodes) > 0 {
		t.nodes = t.nodes[:1] // keep the sentinel
	}
}

// ResetCounts empties the tree's multiset while RETAINING its node set:
// every count drops to zero but keys, structure, arena, and — crucially —
// the insert cache stay intact. An accumulate-only workload whose value
// population is stable across cycles (QLOVE's period fill/seal loop over
// quantized telemetry) then re-inserts mostly into existing nodes: an O(1)
// cache hit or a descent with no allocation, no rebalancing rotations.
//
// Zero-count nodes are invisible to the multiset readers (Len, Count,
// Select, Rank, Quantile(s), SelectRanks, TopK) but still enumerated by
// Ascend/Descend and counted by Unique — Unique is the resident-state
// space cost. Min/Max read structure, not counts, so they are
// meaningless until the retained keys have been re-observed; Remove must
// not be mixed with ResetCounts. Use Clear to drop the node set.
func (t *Tree) ResetCounts() {
	ns := t.nodes
	for i := 1; i < len(ns); i++ {
		ns[i].count = 0 // free-list slots already carry zero counts
	}
	t.total = 0
	t.dirty = true
	t.zeroOK = true
}

// --- red-black rebalancing ---

func (t *Tree) rotateLeft(x int32) {
	ns := t.nodes
	y := ns[x].right
	ns[x].right = ns[y].left
	if ns[y].left != nilIdx {
		ns[ns[y].left].parent = x
	}
	xp := ns[x].parent
	ns[y].parent = xp
	switch {
	case xp == nilIdx:
		t.root = y
	case x == ns[xp].left:
		ns[xp].left = y
	default:
		ns[xp].right = y
	}
	ns[y].left = x
	ns[x].parent = y
}

func (t *Tree) rotateRight(x int32) {
	ns := t.nodes
	y := ns[x].left
	ns[x].left = ns[y].right
	if ns[y].right != nilIdx {
		ns[ns[y].right].parent = x
	}
	xp := ns[x].parent
	ns[y].parent = xp
	switch {
	case xp == nilIdx:
		t.root = y
	case x == ns[xp].right:
		ns[xp].right = y
	default:
		ns[xp].left = y
	}
	ns[y].right = x
	ns[x].parent = y
}

func (t *Tree) insertFixup(z int32) {
	ns := t.nodes
	for {
		p := ns[z].parent
		if p == nilIdx || ns[p].color != red {
			break
		}
		gp := ns[p].parent
		if p == ns[gp].left {
			u := ns[gp].right
			if u != nilIdx && ns[u].color == red {
				ns[p].color = black
				ns[u].color = black
				ns[gp].color = red
				z = gp
			} else {
				if z == ns[p].right {
					z = p
					t.rotateLeft(z)
					p = ns[z].parent
					gp = ns[p].parent
				}
				ns[p].color = black
				ns[gp].color = red
				t.rotateRight(gp)
			}
		} else {
			u := ns[gp].left
			if u != nilIdx && ns[u].color == red {
				ns[p].color = black
				ns[u].color = black
				ns[gp].color = red
				z = gp
			} else {
				if z == ns[p].left {
					z = p
					t.rotateRight(z)
					p = ns[z].parent
					gp = ns[p].parent
				}
				ns[p].color = black
				ns[gp].color = red
				t.rotateLeft(gp)
			}
		}
	}
	ns[t.root].color = black
}

func (t *Tree) minimum(i int32) int32 {
	for t.nodes[i].left != nilIdx {
		i = t.nodes[i].left
	}
	return i
}

// transplant replaces subtree u with subtree v.
func (t *Tree) transplant(u, v int32) {
	ns := t.nodes
	up := ns[u].parent
	switch {
	case up == nilIdx:
		t.root = v
	case u == ns[up].left:
		ns[up].left = v
	default:
		ns[up].right = v
	}
	if v != nilIdx {
		ns[v].parent = up
	}
}

func (t *Tree) deleteNode(z int32) {
	ns := t.nodes
	y := z
	yOrig := ns[y].color
	var x, xParent int32
	switch {
	case ns[z].left == nilIdx:
		x = ns[z].right
		xParent = ns[z].parent
		t.transplant(z, ns[z].right)
	case ns[z].right == nilIdx:
		x = ns[z].left
		xParent = ns[z].parent
		t.transplant(z, ns[z].left)
	default:
		y = t.minimum(ns[z].right)
		yOrig = ns[y].color
		x = ns[y].right
		if ns[y].parent == z {
			xParent = y
		} else {
			xParent = ns[y].parent
			t.transplant(y, ns[y].right)
			ns[y].right = ns[z].right
			ns[ns[y].right].parent = y
		}
		t.transplant(z, y)
		ns[y].left = ns[z].left
		ns[ns[y].left].parent = y
		ns[y].color = ns[z].color
	}
	if yOrig == black {
		t.deleteFixup(x, xParent)
	}
	t.release(z)
}

// colorOf reads a node's color, treating the nil sentinel as black.
func colorOf(ns []node, i int32) color {
	if i == nilIdx {
		return black
	}
	return ns[i].color
}

func (t *Tree) deleteFixup(x, parent int32) {
	ns := t.nodes
	for x != t.root && colorOf(ns, x) == black {
		if parent == nilIdx {
			break
		}
		if x == ns[parent].left {
			w := ns[parent].right
			if colorOf(ns, w) == red {
				ns[w].color = black
				ns[parent].color = red
				t.rotateLeft(parent)
				w = ns[parent].right
			}
			if w == nilIdx {
				x = parent
				parent = ns[x].parent
				continue
			}
			if colorOf(ns, ns[w].left) == black && colorOf(ns, ns[w].right) == black {
				ns[w].color = red
				x = parent
				parent = ns[x].parent
			} else {
				if colorOf(ns, ns[w].right) == black {
					if ns[w].left != nilIdx {
						ns[ns[w].left].color = black
					}
					ns[w].color = red
					t.rotateRight(w)
					w = ns[parent].right
				}
				ns[w].color = ns[parent].color
				ns[parent].color = black
				if ns[w].right != nilIdx {
					ns[ns[w].right].color = black
				}
				t.rotateLeft(parent)
				x = t.root
				parent = nilIdx
			}
		} else {
			w := ns[parent].left
			if colorOf(ns, w) == red {
				ns[w].color = black
				ns[parent].color = red
				t.rotateRight(parent)
				w = ns[parent].left
			}
			if w == nilIdx {
				x = parent
				parent = ns[x].parent
				continue
			}
			if colorOf(ns, ns[w].right) == black && colorOf(ns, ns[w].left) == black {
				ns[w].color = red
				x = parent
				parent = ns[x].parent
			} else {
				if colorOf(ns, ns[w].left) == black {
					if ns[w].right != nilIdx {
						ns[ns[w].right].color = black
					}
					ns[w].color = red
					t.rotateLeft(w)
					w = ns[parent].left
				}
				ns[w].color = ns[parent].color
				ns[parent].color = black
				if ns[w].left != nilIdx {
					ns[ns[w].left].color = black
				}
				t.rotateRight(parent)
				x = t.root
				parent = nilIdx
			}
		}
	}
	if x != nilIdx {
		ns[x].color = black
	}
}
