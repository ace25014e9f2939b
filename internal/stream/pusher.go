package stream

import (
	"fmt"

	"repro/internal/window"
)

// Pusher drives one policy through the count-window protocol from pushed
// elements rather than a pre-materialized slice: callers hand it elements
// (or batches) as they arrive and receive a Result every window period
// once the first full window has been observed. It is the one per-stream
// state machine of count windows: the public qlove.Monitor is this type
// (one anonymous stream), and an Engine shard runs one for every
// count-based key.
//
// The Pusher owns the replay buffer element-wise policies need to expire
// old elements (as the streaming engine does in Trill), so policies remain
// charged only for their operator state. Policies that declare — via the
// SummaryExpirer marker — that they ignore the Expire slice skip the
// O(window) ring entirely; with QLOVE that shrinks a monitored key from
// O(N) to O(operator state), the difference between thousands and millions
// of concurrently monitored keys.
type Pusher struct {
	policy Policy
	spec   window.Spec
	ring   []float64 // last Size elements; nil for summary-expiring policies
	expire []float64 // Period-sized replay scratch handed to Expire
	seen   int64     // total elements pushed
	evals  int
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
		k.ring = make([]float64, spec.Size)
		k.expire = make([]float64, spec.Period)
	}
	return k, nil
}

// expireOldest replays the period that just left the window to the policy,
// reusing the pusher's scratch buffer. The policy contract already forbids
// retaining the Expire slice, so sharing one buffer across periods is safe.
// Summary-expiring policies are notified with a nil slice.
func (k *Pusher) expireOldest() {
	if k.ring == nil {
		k.policy.Expire(nil)
		return
	}
	start := int(k.seen-int64(k.spec.Size)) % len(k.ring)
	n := copy(k.expire, k.ring[start:])
	copy(k.expire[n:], k.ring[:k.spec.Period-n])
	k.policy.Expire(k.expire)
}

// atBoundary reports whether seen sits on a period boundary with at least
// one full window observed — the point where expiry (before new elements)
// and evaluation (after them) happen.
func (k *Pusher) atBoundary() bool {
	return k.seen >= int64(k.spec.Size) && k.seen%int64(k.spec.Period) == 0
}

// Push feeds one element. When the element completes a window period (and
// at least one full window has been seen), it returns the evaluation and
// true.
func (k *Pusher) Push(v float64) (Result, bool) {
	// Expire the period that just left the window, one batch per period,
	// before the new period begins — mirroring Run's protocol.
	if k.atBoundary() {
		k.expireOldest()
	}
	if k.ring != nil {
		k.ring[int(k.seen)%len(k.ring)] = v
	}
	k.seen++
	k.policy.Observe(v)
	if k.atBoundary() {
		ev := Result{Evaluation: k.evals, Estimates: k.policy.Result()}
		k.evals++
		return ev, true
	}
	return Result{}, false
}

// PushBatch feeds a run of elements through the policy's batch path,
// invoking emit for every evaluation produced along the way (nil emit
// discards them). It follows exactly the Push protocol — expire the
// departed period at each boundary, then observe, then evaluate — but
// amortizes ring maintenance into bulk copies and hands the policy
// period-aligned ObserveBatch chunks, so a caller draining an ingest queue
// pays none of Push's per-element bookkeeping.
func (k *Pusher) PushBatch(vs []float64, emit func(Result)) {
	for len(vs) > 0 {
		if k.atBoundary() {
			k.expireOldest()
		}
		// Chunk to the next period boundary (chunks are ring-safe: one
		// period never exceeds the ring size).
		chunk := vs
		if room := k.spec.Period - int(k.seen%int64(k.spec.Period)); len(chunk) > room {
			chunk = chunk[:room]
		}
		if k.ring != nil {
			start := int(k.seen) % len(k.ring)
			n := copy(k.ring[start:], chunk)
			copy(k.ring, chunk[n:])
		}
		k.seen += int64(len(chunk))
		k.policy.ObserveBatch(chunk)
		if k.atBoundary() {
			ev := Result{Evaluation: k.evals, Estimates: k.policy.Result()}
			k.evals++
			if emit != nil {
				emit(ev)
			}
		}
		vs = vs[len(chunk):]
	}
}

// Seen returns the number of elements pushed so far.
func (k *Pusher) Seen() int64 { return k.seen }

// Evaluations returns the number of results produced so far.
func (k *Pusher) Evaluations() int { return k.evals }

// Policy returns the wrapped policy (e.g. to query SpaceUsage).
func (k *Pusher) Policy() Policy { return k.policy }
