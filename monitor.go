package qlove

import (
	"repro/internal/stream"
)

// Result is one evaluation produced by a Monitor, a TimedMonitor, Run or an
// Engine: the 0-based Evaluation index and one estimate per configured ϕ.
type Result = stream.Result

// Monitor drives a Policy over a count window from pushed elements:
// callers Push one element at a time (or PushBatch a run) and receive a
// Result every window period once the first full window has been
// observed. It is the per-stream state machine an Engine shard runs for
// every count-based key.
type Monitor = stream.Pusher

// NewMonitor wraps a policy for push-based use under the window spec. The
// spec must match the one the policy was constructed with.
func NewMonitor(p Policy, spec Window) (*Monitor, error) { return stream.NewPusher(p, spec) }
