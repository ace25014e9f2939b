package aggstore

import (
	"sort"

	"repro/internal/wire"
)

// group is one (worker, logical key)'s resident state: the base name's
// capture plus any salted sub-streams, kept sorted by salt index. This IS
// the per-base index the read path folds from — group reads and wholesale
// replacement never scan the worker's other keys. States are held inline:
// a fold overwrites the slot with the new value, so it allocates nothing
// beyond the State's own new slices.
type group struct {
	base    State
	hasBase bool
	subs    []subState // ascending salt index
}

type subState struct {
	j  byte
	st State
}

func (g *group) empty() bool { return !g.hasBase && len(g.subs) == 0 }

// dropBase removes the base name's state, reporting whether it was resident.
// The slot is zeroed so the dropped state's slices are not kept reachable.
func (g *group) dropBase() bool {
	had := g.hasBase
	g.base, g.hasBase = State{}, false
	return had
}

// set stores st under the exact (salted, j) coordinate.
func (g *group) set(salted bool, j byte, st State) {
	if salted {
		g.setSub(j, st)
	} else {
		g.base, g.hasBase = st, true
	}
}

// apply performs a state-record op on the exact (salted, j) coordinate:
// recPut stores st there; recReplaceGroup first empties the whole group (a
// full frame, or a from-generation-0 bootstrap of the base name);
// recBootstrapSub first drops the base state and stores st as sub-stream j
// (a salted sub-stream bootstrapping out of an escalated base), leaving the
// other sub-streams resident.
func (g *group) apply(op byte, salted bool, j byte, st State) {
	switch op {
	case recReplaceGroup:
		*g = group{}
	case recBootstrapSub:
		g.dropBase()
		salted = true
	}
	g.set(salted, j, st)
}

// setSub inserts or replaces sub-stream j.
func (g *group) setSub(j byte, st State) {
	i := sort.Search(len(g.subs), func(i int) bool { return g.subs[i].j >= j })
	if i < len(g.subs) && g.subs[i].j == j {
		g.subs[i].st = st
		return
	}
	g.subs = append(g.subs, subState{})
	copy(g.subs[i+1:], g.subs[i:])
	g.subs[i] = subState{j: j, st: st}
}

// dropSub removes sub-stream j, reporting whether it was resident.
func (g *group) dropSub(j byte) bool {
	i := sort.Search(len(g.subs), func(i int) bool { return g.subs[i].j >= j })
	if i >= len(g.subs) || g.subs[i].j != j {
		return false
	}
	copy(g.subs[i:], g.subs[i+1:])
	g.subs[len(g.subs)-1] = subState{}
	g.subs = g.subs[:len(g.subs)-1]
	return true
}

// drop removes the exact (salted, j) coordinate, reporting whether it was
// resident.
func (g *group) drop(salted bool, j byte) bool {
	if salted {
		return g.dropSub(j)
	}
	return g.dropBase()
}

// get returns the state under the exact (salted, j) coordinate.
func (g *group) get(salted bool, j byte) (State, bool) {
	if !salted {
		return g.base, g.hasBase
	}
	i := sort.Search(len(g.subs), func(i int) bool { return g.subs[i].j >= j })
	if i >= len(g.subs) || g.subs[i].j != j {
		return State{}, false
	}
	return g.subs[i].st, true
}

// fold appends the group's states in fold order [base, sub 0, sub 1, …].
func (g *group) fold(base string, out []NamedState) []NamedState {
	if g.hasBase {
		out = append(out, NamedState{Name: base, State: g.base})
	}
	for _, s := range g.subs {
		out = append(out, NamedState{Name: wire.SaltedName(base, s.j), State: s.st})
	}
	return out
}

// names appends the group's resident internal names (fold order).
func (g *group) names(base string, out []string) []string {
	if g.hasBase {
		out = append(out, base)
	}
	for _, s := range g.subs {
		out = append(out, wire.SaltedName(base, s.j))
	}
	return out
}
