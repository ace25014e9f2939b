package qlove

import (
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// This file is the Engine's per-key routing plane: a copy-on-write route
// table layered over the static hash dispatch, consulted on every Push,
// plus the one ordered step that renames a live stream from one internal name
// to another without violating per-key delivery order or seal generations.
// The adaptive controller (engineadapt.go) drives it; the mechanisms here
// are independent of any policy and usable one key at a time.
//
// The table only salts: every internal name — a base key or a sub-stream
// "key\x00<j>" — always lives on shardOf(name), and a stream never changes
// shards. A fresh escalation renames the base stream to sub-stream 0 and a
// collapse renames it back; shardIndex hashes sub-stream 0 as its key, so
// both names are on one shard and the rename is one closure on one queue.

// routeOverride is one ESCALATED key's routing decision: pushes spread
// across salt salted sub-streams ("key\x00<j>"), each hash-routed on its
// own. salt == 1 is the de-escalated holding state: every push goes to
// sub-stream 0 (so the key is one stream again and keeps its history)
// while the older sub-streams drain toward expiry; maxSalt remembers the
// widest fan ever used so reads know how many sub-streams to fold.
//
// ctr is the key's private push counter, reset at every escalation flip,
// so sub-stream assignment after a flip is deterministic: the i-th push
// after the flip goes to sub-stream i mod salt.
type routeOverride struct {
	salt    int
	maxSalt int
	ctr     atomic.Uint64
}

// routeTable is an immutable key→override map. Mutations copy the map and
// swap the pointer under e.mu (write-locked), so route() reads it with one
// atomic load and no locks on the push hot path.
type routeTable struct {
	m map[string]*routeOverride
}

// override returns the key's current route override, nil when the key
// routes by hash. Lock-free; safe from any goroutine.
func (e *Engine) override(base string) *routeOverride {
	if rt := e.routes.Load(); rt != nil {
		return rt.m[base]
	}
	return nil
}

// storeRoutesLocked applies mut to a copy of the route table and publishes
// it. Callers hold e.mu write-locked: because push holds e.mu.RLock across
// its route read AND enqueue, acquiring the write lock is a barrier — every
// push that read the old table has already enqueued, so a rename enqueued
// after the flip is ordered behind all old-route batches.
func (e *Engine) storeRoutesLocked(mut func(map[string]*routeOverride)) {
	var old map[string]*routeOverride
	if rt := e.routes.Load(); rt != nil {
		old = rt.m
	}
	m := make(map[string]*routeOverride, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	mut(m)
	e.routes.Store(&routeTable{m: m})
}

// updateRoutes is a route flip with no rename (de-escalation, a
// re-escalation's widening). False when the engine is closed.
func (e *Engine) updateRoutes(mut func(map[string]*routeOverride)) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.storeRoutesLocked(mut)
	return true
}

// streamExists reports whether an internal key name is resident on its
// shard.
func (e *Engine) streamExists(name string) (ok bool) {
	e.each([]*engineShard{e.shardOf(name)}, func(_ int, s *engineShard) { ok = s.keys[name] != nil })
	return ok
}

// renameStream flips the route table with mut and renames the stream
// resident under from to the name to — two names of one key that hash to
// one shard. The rename is enqueued right after the flip, under e.mu
// write-locked, and the lock is held until it acks. Taking the write lock
// is a barrier: every push that read the OLD route has finished enqueueing
// (pushes hold the read lock across route+enqueue), so the shard delivers
// every pre-flip batch under from, then renames, then delivers the
// post-flip ones under to — per-key order and seal generations carry
// straight through. Holding the lock to the ack keeps Query and every
// capture from straddling the rename. Returns the batches the stream had
// observed (0 when from was not resident, e.g. evicted by TTL between the
// decision and the rename — the next push then mints a fresh stream under
// to) and whether the rename ran (false when the engine closed first).
func (e *Engine) renameStream(from, to string, mut func(map[string]*routeOverride)) (n uint64, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, false
	}
	e.storeRoutesLocked(mut)
	queue([]*engineShard{e.shardOf(from)}, func(_ int, s *engineShard) { n = s.rename(from, to) }).Wait()
	return n, true
}

// escalateKey switches a key to salted sub-stream routing. A fresh
// escalation renames the key's existing stream to sub-stream 0 (its
// history and seal generations continue there; merged reads never see a
// discontinuity); a re-escalation of a currently de-escalated key only
// widens the route again, since sub-stream 0 already carries the live
// stream. Returns the event and whether the escalation ran.
func (e *Engine) escalateKey(base string, salt int) (RouteEvent, bool) {
	ev := RouteEvent{Kind: RouteEscalate, Key: base, Salt: salt}
	if cur := e.override(base); cur != nil {
		maxSalt := cur.maxSalt
		if salt > maxSalt {
			maxSalt = salt
		}
		ov := &routeOverride{salt: salt, maxSalt: maxSalt}
		if !e.updateRoutes(func(m map[string]*routeOverride) { m[base] = ov }) {
			return RouteEvent{}, false
		}
		return ev, true
	}
	ov := &routeOverride{salt: salt, maxSalt: salt}
	n, ok := e.renameStream(base, wire.SaltedName(base, 0), func(m map[string]*routeOverride) { m[base] = ov })
	if !ok {
		return RouteEvent{}, false
	}
	ev.KeyBatches = n
	return ev, true
}

// deescalateKey narrows an escalated key back to one stream: every new
// push routes to sub-stream 0, the older sub-streams stop receiving and
// age toward TTL expiry. Nothing is renamed — order within each sub-stream
// is already independent, so narrowing needs no barrier beyond the flip.
func (e *Engine) deescalateKey(base string) (RouteEvent, bool) {
	cur := e.override(base)
	if cur == nil || cur.salt <= 1 {
		return RouteEvent{}, false
	}
	ov := &routeOverride{salt: 1, maxSalt: cur.maxSalt}
	if !e.updateRoutes(func(m map[string]*routeOverride) { m[base] = ov }) {
		return RouteEvent{}, false
	}
	return RouteEvent{Kind: RouteDeescalate, Key: base, Salt: 1}, true
}

// collapseKey retires a de-escalated key's override once its fan has
// drained: when no sub-stream but 0 is resident (TTL expiry has reclaimed
// them), sub-stream 0 is renamed back to the base name and the override
// disappears — the key is an ordinary hash-routed stream again, history
// intact. False while any older sub-stream is still resident. The base name
// itself needs no probe: while the override stands no push routes to it.
func (e *Engine) collapseKey(base string, maxSalt int) (RouteEvent, bool) {
	cur := e.override(base)
	if cur == nil || cur.salt != 1 {
		return RouteEvent{}, false
	}
	for j := 1; j < maxSalt; j++ {
		if e.streamExists(wire.SaltedName(base, byte(j))) {
			return RouteEvent{}, false
		}
	}
	// Sub-stream 0 is renamed even when it is not resident: a push that
	// read the salt-1 route before the flip lands there, and only the
	// rename, queued behind it, carries it to the base name.
	n, ok := e.renameStream(wire.SaltedName(base, 0), base, func(m map[string]*routeOverride) { delete(m, base) })
	if !ok {
		return RouteEvent{}, false
	}
	return RouteEvent{Kind: RouteCollapse, Key: base, KeyBatches: n}, true
}

// RouteEventKind classifies one adaptive routing action.
type RouteEventKind int

const (
	// RouteEscalate: a hot key switched to salted sub-stream routing.
	RouteEscalate RouteEventKind = iota
	// RouteDeescalate: a cooled key narrowed back to one sub-stream.
	RouteDeescalate
	// RouteCollapse: a drained key's override was retired entirely.
	RouteCollapse
	// RouteMigrate is never emitted: whole-key migration and route pins
	// were removed, and every stream lives on its hash shard. The constant
	// remains for readers that still switch on it.
	RouteMigrate
)

// String names the kind ("escalate", "deescalate", "collapse", "migrate").
func (k RouteEventKind) String() string {
	switch k {
	case RouteEscalate:
		return "escalate"
	case RouteDeescalate:
		return "deescalate"
	case RouteCollapse:
		return "collapse"
	case RouteMigrate:
		return "migrate"
	}
	return "unknown"
}

// RouteEvent records one routing action the adaptive controller (or a
// direct caller) took — the audit trail: the repo benchmark's
// engine-hotkey workload reads it to tell escalated keys (held to the
// value-error bound) from the rest (held bit-identical to a static engine).
type RouteEvent struct {
	// Seq orders events across the engine's lifetime (1-based).
	Seq uint64
	// At is the engine clock when the action completed.
	At time.Time
	// Kind is the action.
	Kind RouteEventKind
	// Key is the logical key acted on.
	Key string
	// Salt is the sub-stream fan after the action (escalate/deescalate).
	Salt int
	// KeyBatches is how many batches the renamed stream had observed (a
	// fresh escalation, a collapse); 0 when it was not resident, and for a
	// route flip alone.
	KeyBatches uint64
}
