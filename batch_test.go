// Tests for the batched ingestion path: ObserveBatch must be
// observationally identical to element-at-a-time Observe for every
// registered policy, Monitor.PushBatch must match Monitor.Push, and
// steady-state QLOVE ingestion must not touch the heap.
package qlove

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/workload"
)

// runElementwise drives a policy through the window protocol one element
// at a time — the pre-batching runner, kept here as the reference the
// batched runner is compared against.
func runElementwise(p Policy, spec Window, data []float64) [][]float64 {
	nEvals := spec.Evaluations(len(data))
	out := make([][]float64, 0, nEvals)
	pos := 0
	for i := 0; i < nEvals; i++ {
		lo, hi := spec.EvalBounds(i)
		if i > 0 {
			p.Expire(data[lo-spec.Period : lo])
		}
		for ; pos < hi; pos++ {
			p.Observe(data[pos])
		}
		out = append(out, p.Result())
	}
	return out
}

// runBatched drives the same protocol through ObserveBatch, deliberately
// slicing each period into misaligned chunks so policies must handle
// batches that span their internal seal boundaries.
func runBatched(p Policy, spec Window, data []float64, chunk int) [][]float64 {
	nEvals := spec.Evaluations(len(data))
	out := make([][]float64, 0, nEvals)
	pos := 0
	for i := 0; i < nEvals; i++ {
		lo, hi := spec.EvalBounds(i)
		if i > 0 {
			p.Expire(data[lo-spec.Period : lo])
		}
		for pos < hi {
			end := pos + chunk
			if end > hi {
				end = hi
			}
			p.ObserveBatch(data[pos:end])
			pos = end
		}
		out = append(out, p.Result())
	}
	return out
}

func TestObserveBatchMatchesObserveAllPolicies(t *testing.T) {
	spec := Window{Size: 2000, Period: 500}
	phis := []float64{0.5, 0.9, 0.99, 0.999}
	data := workload.Generate(workload.NewNetMon(7), 6500)
	for _, name := range []string{"qlove", "qlove-fewk", "exact", "cmqs", "am", "random", "moment", "gk"} {
		t.Run(name, func(t *testing.T) {
			pe, err := NewPolicy(name, spec, phis)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := NewPolicy(name, spec, phis)
			if err != nil {
				t.Fatal(err)
			}
			want := runElementwise(pe, spec, data)
			// 137 is coprime to the period, so chunks land on every
			// possible offset within a sub-window.
			got := runBatched(pb, spec, data, 137)
			if len(got) != len(want) {
				t.Fatalf("evaluations: got %d, want %d", len(got), len(want))
			}
			for i := range want {
				for j := range want[i] {
					if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
						t.Fatalf("eval %d ϕ=%v: batch %v != element %v",
							i, phis[j], got[i][j], want[i][j])
					}
				}
			}
		})
	}
}

func TestObserveBatchQLOVEWithNaNs(t *testing.T) {
	// NaNs must be dropped by both paths without advancing the period.
	spec := Window{Size: 1200, Period: 300}
	phis := []float64{0.5, 0.99}
	data := workload.Generate(workload.NewNetMon(3), 4000)
	for i := 50; i < len(data); i += 97 {
		data[i] = math.NaN()
	}
	pe, err := New(Config{Spec: spec, Phis: phis})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := New(Config{Spec: spec, Phis: phis})
	if err != nil {
		t.Fatal(err)
	}
	want := runElementwise(pe, spec, data)
	got := runBatched(pb, spec, data, 211)
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("eval %d: batch %v != element %v", i, got[i], want[i])
			}
		}
	}
}

func TestPushBatchMatchesPush(t *testing.T) {
	spec := Window{Size: 900, Period: 300}
	phis := []float64{0.5, 0.9, 0.999}
	data := workload.Generate(workload.NewNetMon(11), 5000)
	mk := func() *Monitor {
		p, err := New(Config{Spec: spec, Phis: phis, FewK: true})
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMonitor(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1 := mk()
	var want []Result
	for _, v := range data {
		if res, ok := m1.Push(v); ok {
			want = append(want, res)
		}
	}
	m2 := mk()
	var got []Result
	// Feed in ragged batches (including sizes larger than a period).
	for pos, k := 0, 0; pos < len(data); k++ {
		end := pos + 1 + (k*k)%701
		if end > len(data) {
			end = len(data)
		}
		m2.PushBatch(data[pos:end], func(r Result) { got = append(got, r) })
		pos = end
	}
	if len(got) != len(want) {
		t.Fatalf("results: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Evaluation != want[i].Evaluation {
			t.Fatalf("result %d: evaluation %d != %d", i, got[i].Evaluation, want[i].Evaluation)
		}
		for j := range want[i].Estimates {
			if math.Float64bits(got[i].Estimates[j]) != math.Float64bits(want[i].Estimates[j]) {
				t.Fatalf("result %d ϕ=%v: %v != %v", i, phis[j], got[i].Estimates[j], want[i].Estimates[j])
			}
		}
	}
	if m2.Seen() != m1.Seen() || m2.Evaluations() != m1.Evaluations() {
		t.Fatalf("counters diverge: seen %d/%d evals %d/%d",
			m2.Seen(), m1.Seen(), m2.Evaluations(), m1.Evaluations())
	}
}

func TestPushBatchNilEmit(t *testing.T) {
	spec := Window{Size: 100, Period: 50}
	p, _ := New(Config{Spec: spec, Phis: []float64{0.5}})
	m, _ := NewMonitor(p, spec)
	m.PushBatch(workload.Generate(workload.NewNetMon(1), 500), nil)
	if m.Evaluations() != 9 {
		t.Fatalf("evaluations = %d, want 9", m.Evaluations())
	}
}

// steadyQLOVE returns a QLOVE policy warmed past its first windows so the
// Level-1 buffer, Level-2 ring and all scratch buffers have reached their
// working-set sizes. Values cycle over a fixed set, mirroring the bounded
// unique-value population §3.1 quantization produces.
func steadyQLOVE(t testing.TB, spec Window) (*QLOVE, []float64) {
	t.Helper()
	return steadyOperator(t, Config{Spec: spec, Phis: []float64{0.5, 0.9, 0.99, 0.999}})
}

func steadyOperator(t testing.TB, cfg Config) (*QLOVE, []float64) {
	t.Helper()
	spec := cfg.Spec
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 512)
	for i := range vals {
		vals[i] = 100 + float64(i)
	}
	warm := make([]float64, 3*spec.Size)
	for i := range warm {
		warm[i] = vals[i%len(vals)]
	}
	if _, err := Feed(p, spec, warm); err != nil {
		t.Fatal(err)
	}
	return p, vals
}

func TestObserveSteadyStateZeroAllocs(t *testing.T) {
	spec := Window{Size: 8192, Period: 8192}
	p, vals := steadyQLOVE(t, spec)
	i := 0
	// 100 measured runs (plus AllocsPerRun's warm-up call) stay far below
	// the period, so no seal happens inside the measurement.
	allocs := testing.AllocsPerRun(100, func() {
		p.Observe(vals[i%len(vals)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Observe allocates %v per element, want 0", allocs)
	}
}

func TestObserveBatchSteadyStateZeroAllocs(t *testing.T) {
	spec := Window{Size: 8192, Period: 8192}
	p, vals := steadyQLOVE(t, spec)
	batch := make([]float64, 64)
	for i := range batch {
		batch[i] = vals[(i*7)%len(vals)]
	}
	allocs := testing.AllocsPerRun(50, func() {
		p.ObserveBatch(batch)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ObserveBatch allocates %v per batch, want 0", allocs)
	}
}

func TestSealSteadyStateIsArenaRecycled(t *testing.T) {
	// Across many full periods the only steady-state allocations are the
	// sealed summary's one block and the slice Result returns — the
	// Level-1 buffer, the seal scratch and, with few-k on, the merge and
	// burst-test scratch must all be recycled. Budget: 4 per expire+seal+evaluate.
	spec := Window{Size: 1024, Period: 256}
	for _, fewk := range []bool{false, true} {
		p, vals := steadyOperator(t, Config{Spec: spec, Phis: []float64{0.5, 0.9, 0.99, 0.999}, FewK: fewk})
		period := make([]float64, spec.Period)
		for i := range period {
			period[i] = vals[(i*13)%len(vals)]
		}
		perPeriod := testing.AllocsPerRun(40, func() {
			p.Expire(nil)
			p.ObserveBatch(period)
			_ = p.Result()
		})
		if perPeriod > 4 {
			t.Fatalf("few-k %v: steady-state expire+seal+evaluate costs %v allocations, want <= 4", fewk, perPeriod)
		}
	}
}

// TestKeyedReportAllocBudget holds BenchmarkObserveKeyed's allocs/op — what
// one period-sized report to one of many pooled keys allocates, seal and
// evaluation included — at 4 (it was 50 at 64/16 and 64 at 512/128 while a
// summary was nine slices and every merge rebuilt its inputs): the summary's
// block, the estimates, and two to spare. Same set-up as the benchmark, with
// fewer keys.
func TestKeyedReportAllocBudget(t *testing.T) {
	const keys = 512
	for _, spec := range []Window{{Size: 512, Period: 128}, {Size: 64, Period: 16}} {
		pool, err := core.NewPool(Config{Spec: spec, Phis: []float64{0.5, 0.9, 0.99, 0.999}, FewK: true})
		if err != nil {
			t.Fatal(err)
		}
		data := fig4Data(t, 1<<14)
		report := func(i int) []float64 {
			off := (i * spec.Period) % (len(data) - spec.Period)
			return data[off : off+spec.Period]
		}
		pushers := make([]*stream.Pusher, keys)
		for i := range pushers {
			if pushers[i], err = stream.NewPusher(pool.Get(), spec); err != nil {
				t.Fatal(err)
			}
			for j := 0; j <= spec.SubWindows(); j++ { // a full window and its first expiry
				pushers[i].PushBatch(report(i+j), nil)
			}
		}
		i := 0
		evals := 0
		perReport := testing.AllocsPerRun(2000, func() {
			pushers[(i*31)%keys].PushBatch(report(i), func(stream.Evaluation) { evals++ })
			i++
		})
		if evals < 2000 {
			t.Fatalf("%d/%d: %d evaluations for 2000 reports", spec.Size, spec.Period, evals)
		}
		if perReport > 4 {
			t.Fatalf("%d/%d: a pooled report costs %v allocations, want <= 4", spec.Size, spec.Period, perReport)
		}
	}
}
