package aggstore

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/wire"
)

// memStore is what a fold plans against and applies to: the exact-name
// state primitives of the in-memory layouts (Map, Striped). Nothing outside
// this package reaches them; state enters a Store only as a frame.
type memStore interface {
	// get returns the state resident under the exact internal name.
	get(worker, name string) (core.Snapshot, bool)
	// set performs a state-record mutation (see group.apply).
	set(worker string, m mutation)
	Drop(worker, name string) bool
}

// mutation is the change folding one frame makes to a worker's resident
// state: op is one of the state-record ops (recPut, recReplaceGroup,
// recBootstrapSub) or recDrop, applied to the exact internal name. st is
// unused for recDrop.
type mutation struct {
	op   byte
	name string
	st   core.Snapshot
}

// apply performs m on s.
func (m mutation) apply(s memStore, worker string) {
	if m.op == recDrop {
		s.Drop(worker, m.name)
		return
	}
	s.set(worker, m)
}

// applyFrame plans f against s and applies the result: the frame path of
// the in-memory stores.
func applyFrame(s memStore, worker string, f wire.Frame) error {
	m, err := plan(s.get, worker, f)
	if err != nil {
		return err
	}
	m.apply(s, worker)
	return nil
}

// plan computes what folding one decoded frame into the worker's state does,
// reading the resident state through get and changing nothing. Frames may
// carry internal salted sub-stream names ("key\x00<j>", from delta exports
// of an adaptively escalated engine); they are stored per name and folded
// back to logical keys at read time.
//
// A delta advances one key's resident capture (core.Snapshot.Advance): the
// result is bit-for-bit the full capture the worker held at export time.
// Folds are copy-on-write — a fresh capture, over a new window slice,
// replaces the resident one, whose slices stay untouched for any concurrent
// reader still holding them.
func plan(get func(worker, name string) (core.Snapshot, bool), worker string, f wire.Frame) (mutation, error) {
	switch f.Kind {
	case wire.KindTombstone:
		return mutation{op: recDrop, name: f.Key}, nil
	case wire.KindFull:
		// A full frame is the worker's complete folded view of the logical
		// key: it replaces the whole salt group, not just the exact name.
		return mutation{op: recReplaceGroup, name: f.Key, st: f.Snap}, nil
	case wire.KindDelta:
	default:
		return mutation{}, fmt.Errorf("unknown frame kind %v", f.Kind)
	}
	var cur core.Snapshot
	op, ok := recPut, true
	if f.Delta.FromGen() == 0 {
		// Bootstrap: the frame carries the entire resident window. A
		// bootstrap resets stale state the tombstone stream may not cover
		// (e.g. after a cursor reset): a sub-stream bootstrap retires the
		// BASE state it was escalated out of; a base bootstrap (a collapsed
		// key coming home) retires the whole former salt group.
		op = recReplaceGroup
		if _, _, salted := wire.SplitName(f.Key); salted {
			op = recBootstrapSub
		}
	} else if cur, ok = get(worker, f.Key); !ok {
		return mutation{}, fmt.Errorf("delta from generation %d for a key never bootstrapped", f.Delta.FromGen())
	}
	st, err := cur.Advance(f.Delta)
	if err != nil {
		return mutation{}, err
	}
	return mutation{op: op, name: f.Key, st: st}, nil
}
