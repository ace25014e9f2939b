package qlove

import (
	"fmt"
	"time"

	"repro/internal/stream"
)

// TimedMonitor drives a QLOVE operator with time-defined windows — the
// paper's §2 example query shape "evaluate every one minute (window
// period) for the elements seen last one hour (window size)". It is the
// per-stream state machine an Engine shard runs for every timed key.
// Only the QLOVE operator supports time-driven sealing; count-based
// policies use Monitor instead.
type TimedMonitor = stream.TimedPusher

// NewTimedMonitor builds a time-driven monitor. size must be a positive
// multiple of period. The QLOVE config's count-based Spec governs the
// few-k budgets; choose its Size/Period to approximate the expected
// events per window/period.
func NewTimedMonitor(q *QLOVE, size, period time.Duration) (*TimedMonitor, error) {
	if q == nil {
		return nil, fmt.Errorf("qlove: nil policy")
	}
	tp, err := stream.NewTimedPusher(q, size, period)
	if err != nil {
		return nil, fmt.Errorf("qlove: %w", err)
	}
	return tp, nil
}
