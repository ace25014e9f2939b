// Package rbtree implements a red-black tree keyed by float64 values where
// each node carries a frequency count: Algorithm 1's compressed
// {value, count} representation of a stream in the QLOVE paper, and here
// the state of the Exact sliding-window baseline (internal/exact), which
// inserts every arriving element, removes every expiring one and answers
// all quantiles in one in-order traversal (Quantiles).
//
// Nodes live in a flat arena ([]node indexed by int32) rather than behind
// individual pointers. Index 0 is a reserved nil sentinel and deleted
// nodes go onto a free list threaded through their parent field, so the
// Exact baseline's insert/remove churn performs zero heap allocations once
// the arena has grown to its working-set size, and the compact node layout
// removes the pointer-chasing cache misses of a heap-node tree.
package rbtree

import "math"

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
	left, right, parent int32
	color               color
}

// Tree is a red-black tree of {value, count} pairs ordered by value.
// The zero value is ready to use.
type Tree struct {
	nodes  []node // arena; nodes[0] is the nil sentinel
	free   int32  // head of the free list (threaded through parent); 0 = empty
	root   int32
	unique int    // number of resident nodes
	total  uint64 // sum of all counts

	// cache is a direct-mapped {key -> node index} table: telemetry value
	// distributions are heavily skewed, so most inserts hit a recently
	// seen key and skip the tree descent entirely. release invalidates a
	// deleted node's entry. The table is allocated on first insert.
	cache []cacheEntry
}

// cacheEntry is one slot of the insert cache. idx == 0 (the sentinel)
// marks an empty slot.
type cacheEntry struct {
	key float64
	idx int32
}

// cacheSize is the insert-cache slot count — 16 KiB of entries, within
// L1/L2 reach.
const (
	cacheSizeBits = 10
	cacheSize     = 1 << cacheSizeBits
)

// cacheSlot maps a key's bits to a cache slot (Fibonacci multiply-shift).
func cacheSlot(key float64) uint64 {
	return (math.Float64bits(key) * 0x9E3779B97F4A7C15) >> (64 - cacheSizeBits)
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

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
		t.nodes[i] = node{key: key, count: count, parent: parent}
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
	t.nodes = append(t.nodes, node{key: key, count: count, parent: parent})
	return int32(len(t.nodes) - 1)
}

// release puts node i on the free list, invalidating any insert-cache
// entry that still maps its key to the slot.
func (t *Tree) release(i int32) {
	if t.cache != nil {
		if e := &t.cache[cacheSlot(t.nodes[i].key)]; e.idx == i {
			e.idx = nilIdx
		}
	}
	t.nodes[i] = node{parent: t.free}
	t.free = i
}

// Insert adds one occurrence of key (Accumulate in Algorithm 1).
func (t *Tree) Insert(key float64) { t.InsertN(key, 1) }

// InsertN adds n occurrences of key at once: one tree descent for the run
// instead of one per element — and no descent at all when the insert cache
// still maps key to its node.
func (t *Tree) InsertN(key float64, n uint64) {
	if n == 0 {
		return
	}
	t.total += n
	if t.cache == nil {
		t.cache = make([]cacheEntry, cacheSize)
	}
	e := &t.cache[cacheSlot(key)]
	if e.idx != nilIdx && e.key == key {
		t.nodes[e.idx].count += n
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
			*e = cacheEntry{key: key, idx: cur}
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
	*e = cacheEntry{key: key, idx: nn}
}

// Remove deletes one occurrence of key (the Exact baseline's Deaccumulate).
// It reports whether the key was present.
func (t *Tree) Remove(key float64) bool {
	n := t.find(key)
	if n == nilIdx {
		return false
	}
	t.total--
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

// ceilRank computes ceil(phi*n) clamped to [1, n]: the 1-based rank the
// paper's quantile definition reads.
func ceilRank(phi float64, n uint64) uint64 {
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
	rank := ceilRank(phis[0], t.total)
	var running uint64
	t.Ascend(func(key float64, count uint64) bool {
		running += count
		for running >= rank {
			results[i] = key
			i++
			if i == len(phis) {
				return false
			}
			rank = ceilRank(phis[i], t.total)
		}
		return true
	})
	return results
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
