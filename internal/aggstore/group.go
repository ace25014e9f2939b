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
// beyond the State's own new slices. The base state is resident exactly
// when it has streams: every stored state has at least one (the decoder and
// core.NewSnapshot refuse fewer), and a dropped base is the zero State.
// Only an escalated key has sub-streams, so they sit behind one pointer,
// nil when there are none: an unsalted key's group is its state and a word.
type group struct {
	base State
	subs *[]subState // ascending salt index; nil or non-empty
}

type subState struct {
	j  byte
	st State
}

// baseResident reports whether the base name's state is resident.
func (g *group) baseResident() bool { return g.base.Parts.Streams > 0 }

func (g *group) empty() bool { return !g.baseResident() && g.subs == nil }

// subList returns the sub-streams, ascending by salt index.
func (g *group) subList() []subState {
	if g.subs == nil {
		return nil
	}
	return *g.subs
}

// find returns where sub-stream j is, or would be inserted, in subs, and
// whether it is resident.
func find(subs []subState, j byte) (int, bool) {
	i := sort.Search(len(subs), func(i int) bool { return subs[i].j >= j })
	return i, i < len(subs) && subs[i].j == j
}

// dropBase removes the base name's state, reporting whether it was resident.
// The slot is zeroed so the dropped state's slices are not kept reachable.
func (g *group) dropBase() bool {
	had := g.baseResident()
	g.base = State{}
	return had
}

// set stores st under the exact (salted, j) coordinate.
func (g *group) set(salted bool, j byte, st State) {
	if salted {
		g.setSub(j, st)
	} else {
		g.base = st
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
	if g.subs == nil {
		g.subs = &[]subState{{j: j, st: st}}
		return
	}
	subs := *g.subs
	i, ok := find(subs, j)
	if ok {
		subs[i].st = st
		return
	}
	subs = append(subs, subState{})
	copy(subs[i+1:], subs[i:])
	subs[i] = subState{j: j, st: st}
	*g.subs = subs
}

// dropSub removes sub-stream j, reporting whether it was resident. The
// last one leaves subs nil.
func (g *group) dropSub(j byte) bool {
	subs := g.subList()
	i, ok := find(subs, j)
	if !ok {
		return false
	}
	if len(subs) == 1 {
		g.subs = nil
		return true
	}
	copy(subs[i:], subs[i+1:])
	subs[len(subs)-1] = subState{}
	*g.subs = subs[:len(subs)-1]
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
		return g.base, g.baseResident()
	}
	subs := g.subList()
	i, ok := find(subs, j)
	if !ok {
		return State{}, false
	}
	return subs[i].st, true
}

// fold appends the group's states in fold order [base, sub 0, sub 1, …].
func (g *group) fold(base string, out []NamedState) []NamedState {
	if g.baseResident() {
		out = append(out, NamedState{Name: base, State: g.base})
	}
	for _, s := range g.subList() {
		out = append(out, NamedState{Name: wire.SaltedName(base, s.j), State: s.st})
	}
	return out
}
