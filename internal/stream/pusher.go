package stream

import (
	"fmt"

	"repro/internal/window"
)

// Pusher drives one policy through the count-window protocol from pushed
// elements rather than a pre-materialized slice: callers hand it elements
// (or batches) as they arrive and receive a Result every window period
// once the first full window has been observed. The public qlove.Monitor
// is this type (one anonymous stream).
//
// A Pusher is a Position — the stream's whole per-stream protocol state —
// together with the policy and the window spec it drives, and, for
// element-wise policies, the replay buffer they need to expire old
// elements (as the streaming engine does in Trill), so policies remain
// charged only for their operator state. Policies that declare — via the
// SummaryExpirer marker — that they ignore the Expire slice skip the
// O(window) ring entirely. An Engine shard already holds the policy and
// the spec of every count-based key, so it keeps only the Position inline
// in the key and drives it through the same protocol code.
type Pusher struct {
	policy Policy
	spec   window.Spec
	replay *replay // nil for summary-expiring policies
	pos    Position
}

// replay is the window of raw elements an element-wise policy is handed
// back when they expire.
type replay struct {
	ring   []float64 // last Size elements
	expire []float64 // Period-sized scratch handed to Expire
}

// Position is a count-window stream's place in the protocol: how many
// elements it has seen. Nothing else is per-stream state — expiry and
// evaluation happen where the count crosses a period boundary, and since a
// window's Size is a multiple of its Period the index of the evaluation at
// a boundary is (seen − Size)/Period. The zero Position is a fresh stream.
type Position struct {
	seen int64
}

// NewPusher wraps a policy for push-based use under the window spec. The
// spec must match the one the policy was constructed with.
func NewPusher(p Policy, spec window.Spec) (*Pusher, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("stream: nil policy")
	}
	k := &Pusher{policy: p, spec: spec}
	if expireNeedsValues(p) {
		k.replay = &replay{ring: make([]float64, spec.Size), expire: make([]float64, spec.Period)}
	}
	return k, nil
}

// Push feeds one element. When the element completes a window period (and
// at least one full window has been seen), it returns the evaluation and
// true.
func (k *Pusher) Push(v float64) (Result, bool) {
	return k.pos.push(k.policy, k.spec, k.replay, v)
}

// PushBatch feeds a run of elements through the policy's batch path,
// invoking emit for every evaluation produced along the way (nil emit
// discards them). It follows exactly the Push protocol — expire the
// departed period at each boundary, then observe, then evaluate — but
// amortizes ring maintenance into bulk copies and hands the policy
// period-aligned ObserveBatch chunks, so a caller draining an ingest queue
// pays none of Push's per-element bookkeeping.
func (k *Pusher) PushBatch(vs []float64, emit func(Result)) {
	k.pos.pushBatch(k.policy, k.spec, k.replay, vs, emit)
}

// Seen returns the number of elements pushed so far.
func (k *Pusher) Seen() int64 { return k.pos.seen }

// Evaluations returns the number of results produced so far.
func (k *Pusher) Evaluations() int { return k.pos.evaluations(k.spec) }

// Policy returns the wrapped policy (e.g. to query SpaceUsage).
func (k *Pusher) Policy() Policy { return k.policy }

// PushBatch is Pusher.PushBatch for a stream whose policy and spec the
// caller holds: it feeds vs to p, configured with spec, from this position
// and advances it. p must be a SummaryExpirer whose ExpiresWholeSummaries
// is true, and this is not checked: there is no replay ring to hand back
// expired elements, so Expire gets nil. The Engine, whose operators are
// QLOVE policies (checked by TestEngineOperatorExpiresWholeSummaries), is
// its one caller; NewPusher is the checked entry point for any policy.
func (c *Position) PushBatch(p Policy, spec window.Spec, vs []float64, emit func(Result)) {
	c.pushBatch(p, spec, nil, vs, emit)
}

// evaluations returns the number of results produced so far under spec.
func (c *Position) evaluations(spec window.Spec) int {
	if c.seen < int64(spec.Size) {
		return 0
	}
	return int((c.seen-int64(spec.Size))/int64(spec.Period)) + 1
}

// atBoundary reports whether seen sits on a period boundary with at least
// one full window observed — the point where expiry (before new elements)
// and evaluation (after them) happen.
func (c *Position) atBoundary(spec window.Spec) bool {
	return c.seen >= int64(spec.Size) && c.seen%int64(spec.Period) == 0
}

// evaluate returns the evaluation at the boundary seen sits on.
func (c *Position) evaluate(p Policy, spec window.Spec) Result {
	return Result{Evaluation: c.evaluations(spec) - 1, Estimates: p.Result()}
}

// expireOldest replays the period that just left the window to the policy,
// reusing the replay scratch buffer. The policy contract already forbids
// retaining the Expire slice, so sharing one buffer across periods is safe.
// Summary-expiring policies (r nil) are notified with a nil slice.
func (c *Position) expireOldest(p Policy, spec window.Spec, r *replay) {
	if r == nil {
		p.Expire(nil)
		return
	}
	start := int(c.seen-int64(spec.Size)) % len(r.ring)
	n := copy(r.expire, r.ring[start:])
	copy(r.expire[n:], r.ring[:spec.Period-n])
	p.Expire(r.expire)
}

func (c *Position) push(p Policy, spec window.Spec, r *replay, v float64) (Result, bool) {
	// Expire the period that just left the window, one batch per period,
	// before the new period begins — mirroring Run's protocol.
	if c.atBoundary(spec) {
		c.expireOldest(p, spec, r)
	}
	if r != nil {
		r.ring[int(c.seen)%len(r.ring)] = v
	}
	c.seen++
	p.Observe(v)
	if c.atBoundary(spec) {
		return c.evaluate(p, spec), true
	}
	return Result{}, false
}

func (c *Position) pushBatch(p Policy, spec window.Spec, r *replay, vs []float64, emit func(Result)) {
	for len(vs) > 0 {
		if c.atBoundary(spec) {
			c.expireOldest(p, spec, r)
		}
		// Chunk to the next period boundary (chunks are ring-safe: one
		// period never exceeds the ring size).
		chunk := vs
		if room := spec.Period - int(c.seen%int64(spec.Period)); len(chunk) > room {
			chunk = chunk[:room]
		}
		if r != nil {
			start := int(c.seen) % len(r.ring)
			n := copy(r.ring[start:], chunk)
			copy(r.ring, chunk[n:])
		}
		c.seen += int64(len(chunk))
		p.ObserveBatch(chunk)
		if c.atBoundary(spec) {
			ev := c.evaluate(p, spec)
			if emit != nil {
				emit(ev)
			}
		}
		vs = vs[len(chunk):]
	}
}
