package stream

import (
	"testing"
	"time"
)

// timedFakePolicy is a minimal TimedPolicy: it holds the in-flight element
// count, seals summaries (auto-sealing on a count threshold like QLOVE's
// Spec.Period does), and tracks residents so the test can watch the timed
// ring's expiry accounting exactly.
type timedFakePolicy struct {
	autoSeal int // count-based auto-seal threshold; 0 disables
	inflight int
	resident int
	sealGen  uint64
	expired  int
	results  int
}

func (p *timedFakePolicy) Name() string { return "timed-fake" }
func (p *timedFakePolicy) Observe(v float64) {
	p.inflight++
	if p.autoSeal > 0 && p.inflight == p.autoSeal {
		p.EndPeriod()
	}
}
func (p *timedFakePolicy) ObserveBatch(vs []float64) {
	for _, v := range vs {
		p.Observe(v)
	}
}
func (p *timedFakePolicy) Expire([]float64) {
	p.expired++
	if p.resident > 0 {
		p.resident--
	}
}
func (p *timedFakePolicy) Result() []float64 { p.results++; return []float64{float64(p.sealGen)} }
func (p *timedFakePolicy) SpaceUsage() int   { return p.resident }
func (p *timedFakePolicy) EndPeriod() {
	if p.inflight == 0 {
		return
	}
	p.inflight = 0
	p.resident++
	p.sealGen++
}
func (p *timedFakePolicy) SubWindowCount() int { return p.resident }
func (p *timedFakePolicy) SealGen() uint64     { return p.sealGen }

var timedStart = time.Date(2026, 7, 28, 12, 0, 0, 0, time.UTC)

func TestNewTimedPusherValidation(t *testing.T) {
	p := &timedFakePolicy{}
	if _, err := NewTimedPusher(nil, time.Minute, time.Second); err == nil {
		t.Fatal("nil policy accepted")
	}
	if _, err := NewTimedPusher(&recordingPolicy{}, time.Minute, time.Second); err == nil {
		t.Fatal("non-TimedPolicy accepted")
	}
	if _, err := NewTimedPusher(p, time.Second, time.Minute); err == nil {
		t.Fatal("size < period accepted")
	}
	if _, err := NewTimedPusher(p, 90*time.Second, time.Minute); err == nil {
		t.Fatal("non-multiple size accepted")
	}
	if _, err := NewTimedPusher(p, time.Hour, time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestTimedPusherProtocol(t *testing.T) {
	// 3-period window, 1s periods. Periods 0 and 2 have data, period 1 is
	// empty; after the window slides, expiry drops exactly the summaries of
	// the departing periods.
	p := &timedFakePolicy{}
	k, err := NewTimedPusher(p, 3*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := k.Flush(timedStart, nil); ok {
		t.Fatal("Flush before the first element produced a result")
	}
	at := func(d time.Duration) time.Time { return timedStart.Add(d) }
	k.Push(1, at(100*time.Millisecond)) // period 0
	k.Push(2, at(200*time.Millisecond))
	// Skip period 1 entirely; period 2 gets one element. The push crosses
	// two boundaries: seals period 0 (one summary), period 1 empty.
	if _, ok := k.Push(3, at(2100*time.Millisecond)); ok {
		t.Fatal("evaluation before a full window elapsed")
	}
	if p.sealGen != 1 || p.resident != 1 {
		t.Fatalf("after period 0 seal: gen=%d resident=%d", p.sealGen, p.resident)
	}
	// Crossing the period-2 boundary completes the first full window (3
	// sealed timed periods) and evaluates.
	ev, ok := k.Flush(at(3*time.Second), nil)
	if !ok {
		t.Fatal("no evaluation after the first full window")
	}
	if ev.Evaluation != 0 || k.Evaluations() != 1 {
		t.Fatalf("evaluation index %d, evals %d", ev.Evaluation, k.Evaluations())
	}
	if p.resident != 2 {
		t.Fatalf("resident = %d, want 2 (periods 0 and 2)", p.resident)
	}
	// Advancing one more period expires period 0's single summary (period
	// 1 contributed none) and still evaluates: period 2 remains resident.
	if _, ok := k.Flush(at(4*time.Second), nil); !ok {
		t.Fatal("no evaluation after slide")
	}
	if p.expired != 1 || p.resident != 1 {
		t.Fatalf("after slide: expired=%d resident=%d, want 1/1", p.expired, p.resident)
	}
	// One more empty period: period 2 is still inside the window, so the
	// evaluation persists ...
	if _, ok := k.Flush(at(5*time.Second), nil); !ok {
		t.Fatal("no evaluation while period 2 remains resident")
	}
	// ... and the next slide drops period 2; with nothing resident the
	// evaluation is suppressed.
	if _, ok := k.Flush(at(6*time.Second), nil); ok {
		t.Fatal("evaluation with no resident summaries")
	}
	if p.resident != 0 || p.expired != 2 {
		t.Fatalf("after draining: resident=%d expired=%d", p.resident, p.expired)
	}
}

func TestTimedPusherExpiresOverflowSeals(t *testing.T) {
	// A timed period whose traffic exceeds the policy's count threshold
	// seals MORE than one summary (the count-based auto-seal fires
	// mid-period). When that period leaves the window, every one of its
	// summaries must be expired — the seal-count ring's reason to exist.
	p := &timedFakePolicy{autoSeal: 3}
	k, err := NewTimedPusher(p, 2*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	at := func(d time.Duration) time.Time { return timedStart.Add(d) }
	// Period 0: 7 elements -> two auto-seals (at 3 and 6) plus the final
	// partial seal at the boundary = 3 summaries.
	k.PushBatch(at(0), []float64{1, 2, 3, 4, 5, 6, 7}, nil)
	// Period 1: one element -> 1 summary.
	k.Push(8, at(1100*time.Millisecond))
	if p.sealGen != 3 {
		t.Fatalf("period 0 sealed %d summaries, want 3", p.sealGen)
	}
	// Crossing into period 2 evaluates (full window: periods 0-1 resident).
	if _, ok := k.Flush(at(2*time.Second), nil); !ok {
		t.Fatal("no evaluation after the first full window")
	}
	if p.resident != 4 {
		t.Fatalf("resident = %d, want 4 (3 + 1)", p.resident)
	}
	// Period 0 slides out: ALL THREE of its summaries expire.
	if _, ok := k.Flush(at(3*time.Second), nil); !ok {
		t.Fatal("no evaluation after slide")
	}
	if p.expired != 3 || p.resident != 1 {
		t.Fatalf("after slide: expired=%d resident=%d, want 3/1", p.expired, p.resident)
	}
}

func TestTimedPusherEmitsEveryEvaluation(t *testing.T) {
	// A multi-boundary crossing produces one evaluation per non-empty
	// window position; emit sees all of them, the return value the last.
	p := &timedFakePolicy{}
	k, err := NewTimedPusher(p, 2*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	at := func(d time.Duration) time.Time { return timedStart.Add(d) }
	k.Push(1, at(0))
	k.Push(2, at(1100*time.Millisecond))
	var emitted []Result
	emit := func(ev Result) { emitted = append(emitted, ev) }
	// Jump 3 boundaries at once: evaluations at the period-1 close and the
	// period-2 close (period 1's summary still resident), then none at the
	// period-3 close (window empty).
	last, ok := k.Flush(at(4*time.Second), emit)
	if !ok {
		t.Fatal("no evaluation emitted")
	}
	if len(emitted) != 2 {
		t.Fatalf("emitted %d evaluations, want 2", len(emitted))
	}
	if emitted[0].Evaluation != 0 || emitted[1].Evaluation != 1 {
		t.Fatalf("emitted indexes %d, %d", emitted[0].Evaluation, emitted[1].Evaluation)
	}
	if last.Evaluation != emitted[1].Evaluation {
		t.Fatalf("returned evaluation %d is not the last emitted %d", last.Evaluation, emitted[1].Evaluation)
	}
	if k.Evaluations() != 2 {
		t.Fatalf("Evaluations = %d", k.Evaluations())
	}
}

func TestTimedPusherEmptyBatchFlushes(t *testing.T) {
	p := &timedFakePolicy{}
	k, err := NewTimedPusher(p, 2*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Empty batch before the first element: still a no-op.
	if _, ok := k.PushBatch(timedStart, nil, nil); ok {
		t.Fatal("empty batch before start produced a result")
	}
	k.PushBatch(timedStart.Add(100*time.Millisecond), []float64{1, 2}, nil)
	// An empty batch is a Flush: crossing two boundaries evaluates.
	if _, ok := k.PushBatch(timedStart.Add(2*time.Second), nil, nil); !ok {
		t.Fatal("empty batch did not flush the window")
	}
	if got := len(k.counts); got != 2 {
		t.Fatalf("SubWindows ring = %d, want 2", got)
	}
	if k.SubWindows() != 2 || k.Size() != 2*time.Second || k.Period() != time.Second {
		t.Fatal("accessor mismatch")
	}
}
