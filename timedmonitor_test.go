package qlove

import (
	"math"
	"testing"
	"time"

	"repro/internal/workload"
)

func mustQLOVE(t *testing.T, cfg Config) *QLOVE {
	t.Helper()
	q, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestTimedMonitorValidation(t *testing.T) {
	q := mustQLOVE(t, Config{Spec: Window{Size: 100, Period: 10}, Phis: []float64{0.5}})
	if _, err := NewTimedMonitor(nil, time.Minute, time.Second); err == nil {
		t.Fatal("nil policy accepted")
	}
	if _, err := NewTimedMonitor(q, time.Second, time.Minute); err == nil {
		t.Fatal("size < period accepted")
	}
	if _, err := NewTimedMonitor(q, 90*time.Second, time.Minute); err == nil {
		t.Fatal("non-multiple size accepted")
	}
	if _, err := NewTimedMonitor(q, time.Hour, time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestTimedMonitorEvaluatesPerPeriod(t *testing.T) {
	q := mustQLOVE(t, Config{Spec: Window{Size: 4000, Period: 1000}, Phis: []float64{0.5}, Digits: -1})
	mon, err := NewTimedMonitor(q, 4*time.Minute, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2026, 6, 13, 12, 0, 0, 0, time.UTC)
	gen := workload.NewNormal(1, 1000, 100)
	results := 0
	var last Result
	// 10 minutes of traffic, 100 events per minute.
	for i := 0; i < 1000; i++ {
		ts := start.Add(time.Duration(i) * 600 * time.Millisecond)
		if res, ok := mon.Push(gen.Next(), ts); ok {
			results++
			last = res
		}
	}
	// First eval after 4 full periods; one per period after that. The
	// 1000th event lands at +599.4s => 9 completed minutes => 6 evals.
	if results != 6 {
		t.Fatalf("results = %d, want 6", results)
	}
	if math.Abs(last.Estimates[0]-1000) > 20 {
		t.Fatalf("median = %v, want ≈ 1000", last.Estimates[0])
	}
	if mon.Evaluations() != results {
		t.Fatalf("Evaluations = %d", mon.Evaluations())
	}
}

func TestTimedMonitorEmptyPeriodsSkipped(t *testing.T) {
	q := mustQLOVE(t, Config{Spec: Window{Size: 400, Period: 100}, Phis: []float64{0.5}, Digits: -1})
	mon, err := NewTimedMonitor(q, 4*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2026, 6, 13, 12, 0, 0, 100*1000*1000, time.UTC)
	// Period 0 gets values 1..9; periods 1-2 empty; period 3 gets 101..109.
	for i := 1; i < 10; i++ {
		mon.Push(float64(i), start.Add(time.Duration(i)*time.Millisecond))
	}
	for i := 1; i < 10; i++ {
		mon.Push(float64(100+i), start.Add(3*time.Second+time.Duration(i)*time.Millisecond))
	}
	// Flush past the window: evaluation covers the two non-empty
	// sub-windows; Level 2 averages their medians (5 and 105).
	res, ok := mon.Flush(start.Add(4*time.Second), nil)
	if !ok {
		t.Fatal("no evaluation after window elapsed")
	}
	if res.Estimates[0] != 55 {
		t.Fatalf("median = %v, want mean-of-medians 55", res.Estimates[0])
	}
}

func TestTimedMonitorExpiryByTime(t *testing.T) {
	q := mustQLOVE(t, Config{Spec: Window{Size: 200, Period: 100}, Phis: []float64{0.5}, Digits: -1})
	mon, err := NewTimedMonitor(q, 2*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2026, 6, 13, 12, 0, 0, 100*1000*1000, time.UTC)
	// Period 0: median 10. Period 1: median 20. Period 2: median 30.
	feed := func(base float64, offset time.Duration) {
		for i := 0; i < 5; i++ {
			mon.Push(base, start.Add(offset+time.Duration(i)*time.Millisecond))
		}
	}
	feed(10, 0)
	feed(20, time.Second)
	feed(30, 2*time.Second)
	res, ok := mon.Flush(start.Add(3*time.Second), nil)
	if !ok {
		t.Fatal("no evaluation")
	}
	// Window covers periods 1-2 only: mean(20, 30) = 25.
	if res.Estimates[0] != 25 {
		t.Fatalf("median = %v, want 25 (period 0 expired)", res.Estimates[0])
	}
}

func TestTimedMonitorPushBatchMatchesPush(t *testing.T) {
	// Batches sharing one timestamp must be observationally identical to
	// repeated single Pushes with that timestamp — same evaluations, same
	// bits — across boundary-crossing, multi-boundary and empty batches.
	spec := Window{Size: 1200, Period: 300}
	phis := []float64{0.5, 0.9, 0.999}
	mk := func() *TimedMonitor {
		q := mustQLOVE(t, Config{Spec: spec, Phis: phis, FewK: true})
		mon, err := NewTimedMonitor(q, 4*time.Second, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return mon
	}
	start := time.Date(2026, 7, 28, 9, 0, 0, 0, time.UTC)
	gen := workload.NewNetMon(17)
	type report struct {
		at time.Time
		vs []float64
	}
	var reports []report
	// 40 reports at irregular intervals (including a 3-period silence and
	// an empty report), with ragged sizes.
	at := start
	for i := 0; i < 40; i++ {
		step := time.Duration(50+i*37%400) * time.Millisecond
		if i == 25 {
			step = 3 * time.Second
		}
		at = at.Add(step)
		n := (i * i) % 173
		reports = append(reports, report{at: at, vs: workload.Generate(gen, n)})
	}

	collect := func(out *[]Result) func(Result) {
		return func(res Result) { *out = append(*out, res) }
	}

	// Push returns only the most recent crossing's evaluation, so the
	// element path flushes each report's time first: every crossing then
	// happens inside the Flush, and its emit sees every evaluation.
	m1 := mk()
	var want []Result
	for _, r := range reports {
		m1.Flush(r.at, collect(&want))
		for i, v := range r.vs {
			if _, ok := m1.Push(v, r.at); ok {
				t.Fatalf("evaluation produced mid-report at element %d", i)
			}
		}
	}

	m2 := mk()
	var got []Result
	for _, r := range reports {
		m2.PushBatch(r.at, r.vs, collect(&got))
	}

	if len(want) != 9 || len(got) != len(want) {
		t.Fatalf("results: batch %d, element %d, want 9", len(got), len(want))
	}
	for i := range want {
		if want[i].Evaluation != i || got[i].Evaluation != i {
			t.Fatalf("result %d: evaluation %d (batch), %d (element)", i, got[i].Evaluation, want[i].Evaluation)
		}
		for j := range want[i].Estimates {
			if math.Float64bits(got[i].Estimates[j]) != math.Float64bits(want[i].Estimates[j]) {
				t.Fatalf("result %d ϕ=%v: %v != %v", i, phis[j], got[i].Estimates[j], want[i].Estimates[j])
			}
		}
	}
	if m2.Evaluations() != m1.Evaluations() {
		t.Fatalf("evaluations diverge: %d vs %d", m2.Evaluations(), m1.Evaluations())
	}
}

func TestTimedMonitorFlushBeforeStart(t *testing.T) {
	q := mustQLOVE(t, Config{Spec: Window{Size: 100, Period: 10}, Phis: []float64{0.5}})
	mon, _ := NewTimedMonitor(q, time.Minute, time.Second)
	if _, ok := mon.Flush(time.Now(), nil); ok {
		t.Fatal("Flush before any Push produced a result")
	}
}
