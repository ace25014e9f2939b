package loadgen

import "fmt"

// HotPhase is one segment of a time-varying hot-key schedule: until the
// run has progressed past the Until fraction, the workload's traffic head
// is the key with index Key.
type HotPhase struct {
	// Until is the exclusive end of the phase as a fraction of the run in
	// (0, 1]. Phases must be ascending and the last must reach 1.
	Until float64 `json:"until"`
	// Key is the hot key's index during the phase.
	Key int `json:"key"`
}

// HotSchedule is a time-varying traffic head: a sequence of phases that
// move the hot key as a run progresses. Static skew benchmarks let a
// router learn one hot key and stop; a moving head forces an adaptive
// router to keep re-learning — escalate the new head, cool the old one —
// which is exactly what the repo benchmark's engine-hotkey workload
// measures.
type HotSchedule []HotPhase

// Validate checks the schedule: at least one phase, strictly ascending
// Until fractions in (0, 1], the final phase covering the whole run, and
// non-negative key indexes.
func (s HotSchedule) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("loadgen: empty hot schedule")
	}
	prev := 0.0
	for i, p := range s {
		if p.Until <= prev || p.Until > 1 {
			return fmt.Errorf("loadgen: hot phase %d: Until %v not in (%v, 1]", i, p.Until, prev)
		}
		if p.Key < 0 {
			return fmt.Errorf("loadgen: hot phase %d: negative key index %d", i, p.Key)
		}
		prev = p.Until
	}
	if s[len(s)-1].Until != 1 {
		return fmt.Errorf("loadgen: hot schedule ends at %v, must cover the run to 1", prev)
	}
	return nil
}

// KeyAt returns the hot key index at run progress frac: the first phase
// whose Until exceeds frac. Progress at or past 1 stays in the final
// phase, so a driver that overshoots its planned length keeps a defined
// head.
func (s HotSchedule) KeyAt(frac float64) int {
	for _, p := range s {
		if frac < p.Until {
			return p.Key
		}
	}
	return s[len(s)-1].Key
}
