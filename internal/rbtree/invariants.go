package rbtree

import "fmt"

// CheckInvariants verifies the red-black properties, BST ordering, the
// count bookkeeping, and the arena accounting (every allocated slot is
// reachable from exactly one of: the tree, the free list, or the
// sentinel). It returns a descriptive error when a violation is found. It
// exists for tests and debugging; production code never needs it.
func (t *Tree) CheckInvariants() error {
	if t.root == nilIdx {
		if t.total != 0 || t.unique != 0 {
			return fmt.Errorf("rbtree: empty root but total=%d unique=%d", t.total, t.unique)
		}
		return t.checkArena()
	}
	if t.nodes[t.root].color != black {
		return fmt.Errorf("rbtree: root is red")
	}
	if t.nodes[t.root].parent != nilIdx {
		return fmt.Errorf("rbtree: root has parent")
	}
	var unique int
	var total uint64
	if _, err := t.checkNode(t.root, &unique, &total); err != nil {
		return err
	}
	if unique != t.unique {
		return fmt.Errorf("rbtree: unique mismatch: counted %d, recorded %d", unique, t.unique)
	}
	if total != t.total {
		return fmt.Errorf("rbtree: total mismatch: counted %d, recorded %d", total, t.total)
	}
	if err := t.checkOrder(t.root); err != nil {
		return err
	}
	return t.checkArena()
}

// checkArena verifies that tree nodes plus free-list nodes account for
// every allocated arena slot exactly once and that the sentinel is intact.
func (t *Tree) checkArena() error {
	if len(t.nodes) == 0 {
		if t.root != nilIdx || t.free != nilIdx {
			return fmt.Errorf("rbtree: empty arena but root=%d free=%d", t.root, t.free)
		}
		return nil
	}
	if t.nodes[0].color != black {
		return fmt.Errorf("rbtree: sentinel is red")
	}
	freeLen := 0
	for i := t.free; i != nilIdx; i = t.nodes[i].parent {
		if i < 0 || int(i) >= len(t.nodes) {
			return fmt.Errorf("rbtree: free list index %d out of arena [1,%d)", i, len(t.nodes))
		}
		freeLen++
		if freeLen > len(t.nodes) {
			return fmt.Errorf("rbtree: free list cycle")
		}
	}
	if got, want := t.unique+freeLen, len(t.nodes)-1; got != want {
		return fmt.Errorf("rbtree: arena leak: %d tree + %d free != %d allocated slots",
			t.unique, freeLen, want)
	}
	return nil
}

// checkNode validates counts, colors and parent links; returns black-height.
func (t *Tree) checkNode(i int32, unique *int, total *uint64) (int, error) {
	if i == nilIdx {
		return 1, nil
	}
	n := &t.nodes[i]
	if n.count == 0 {
		return 0, fmt.Errorf("rbtree: node %v has zero count", n.key)
	}
	*unique++
	*total += n.count
	if n.color == red {
		if colorOf(t.nodes, n.left) == red || colorOf(t.nodes, n.right) == red {
			return 0, fmt.Errorf("rbtree: red node %v has red child", n.key)
		}
	}
	if n.left != nilIdx && t.nodes[n.left].parent != i {
		return 0, fmt.Errorf("rbtree: bad parent link at %v.left", n.key)
	}
	if n.right != nilIdx && t.nodes[n.right].parent != i {
		return 0, fmt.Errorf("rbtree: bad parent link at %v.right", n.key)
	}
	lh, err := t.checkNode(n.left, unique, total)
	if err != nil {
		return 0, err
	}
	rh, err := t.checkNode(n.right, unique, total)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, fmt.Errorf("rbtree: black-height mismatch at %v: %d vs %d", n.key, lh, rh)
	}
	if n.color == black {
		return lh + 1, nil
	}
	return lh, nil
}

func (t *Tree) checkOrder(i int32) error {
	if i == nilIdx {
		return nil
	}
	n := &t.nodes[i]
	if n.left != nilIdx && t.nodes[n.left].key >= n.key {
		return fmt.Errorf("rbtree: order violation: %v.left = %v", n.key, t.nodes[n.left].key)
	}
	if n.right != nilIdx && t.nodes[n.right].key <= n.key {
		return fmt.Errorf("rbtree: order violation: %v.right = %v", n.key, t.nodes[n.right].key)
	}
	if err := t.checkOrder(n.left); err != nil {
		return err
	}
	return t.checkOrder(n.right)
}
