// Benchmarks regenerating the paper's evaluation artifacts, one per table
// and figure (§5). Each benchmark runs its experiment at a reduced dataset
// scale per iteration so `go test -bench=.` completes in minutes; the full
// paper-scale sweep is `go run ./cmd/qlove-bench`. Custom metrics surface
// the headline numbers (value error, throughput) through the testing.B
// reporting machinery.
//
// Throughput-shaped artifacts (Figure 4, Figure 5) additionally have
// direct testing.B loops that measure events/second of the operators
// themselves.
package qlove

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/workload"
)

// benchScale keeps per-iteration dataset sizes tractable for testing.B.
const benchScale = 0.05

func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		opts := bench.Options{W: io.Discard, Seed: 1, Scale: benchScale}
		if err := bench.Experiments[name](opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1Histogram regenerates Figure 1 (NetMon histogram).
func BenchmarkFig1Histogram(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkTable1Accuracy regenerates Table 1 (accuracy + space of the
// five approximation policies).
func BenchmarkTable1Accuracy(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2PeriodSweep regenerates Table 2 (error without few-k vs
// period size).
func BenchmarkTable2PeriodSweep(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable3TopK regenerates Table 3 (top-k merging fraction sweep).
func BenchmarkTable3TopK(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4SampleK regenerates Table 4 (sample-k under injected
// bursts).
func BenchmarkTable4SampleK(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkTable5NonIID regenerates Table 5 (AR(1) sensitivity).
func BenchmarkTable5NonIID(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkRedundancy regenerates the §5.4 data-redundancy study.
func BenchmarkRedundancy(b *testing.B) { runExperiment(b, "redundancy") }

// BenchmarkParetoSkew regenerates the §5.4 skewness study.
func BenchmarkParetoSkew(b *testing.B) { runExperiment(b, "pareto") }

// BenchmarkFewKThroughput regenerates the §5.3 few-k throughput note.
func BenchmarkFewKThroughput(b *testing.B) { runExperiment(b, "fewk-throughput") }

// BenchmarkErrBound regenerates the Appendix A bound-coverage check.
func BenchmarkErrBound(b *testing.B) { runExperiment(b, "errbound") }

// --- Figure 4: per-policy operator throughput, window 100K / period 1K ---

func fig4Data(b testing.TB, n int) []float64 {
	b.Helper()
	return workload.Generate(workload.NewNetMon(1), n)
}

func benchThroughput(b *testing.B, mk func(spec Window, phis []float64) (Policy, error), spec Window) {
	b.Helper()
	phis := []float64{0.5, 0.9, 0.99, 0.999}
	data := fig4Data(b, spec.Size+200*spec.Period)
	b.ReportAllocs()
	b.ResetTimer()
	elements := 0
	for i := 0; i < b.N; i++ {
		p, err := mk(spec, phis)
		if err != nil {
			b.Fatal(err)
		}
		st, err := stream.Feed(p, spec, data)
		if err != nil {
			b.Fatal(err)
		}
		elements += st.Elements
	}
	b.ReportMetric(float64(elements)/b.Elapsed().Seconds()/1e6, "Mev/s")
}

var fig4Spec = Window{Size: 100_000, Period: 1000}

// BenchmarkFig4QLOVE measures QLOVE's throughput (Figure 4, first bar).
func BenchmarkFig4QLOVE(b *testing.B) {
	benchThroughput(b, func(spec Window, phis []float64) (Policy, error) {
		return New(Config{Spec: spec, Phis: phis})
	}, fig4Spec)
}

// BenchmarkFig4CMQS1x measures CMQS at ε = 0.02 (Figure 4, second bar).
func BenchmarkFig4CMQS1x(b *testing.B) {
	benchThroughput(b, func(spec Window, phis []float64) (Policy, error) {
		return NewCMQS(spec, phis, 0.02)
	}, fig4Spec)
}

// BenchmarkFig4CMQS5x measures CMQS at ε = 0.10 (Figure 4, third bar).
func BenchmarkFig4CMQS5x(b *testing.B) {
	benchThroughput(b, func(spec Window, phis []float64) (Policy, error) {
		return NewCMQS(spec, phis, 0.10)
	}, fig4Spec)
}

// BenchmarkFig4CMQS10x measures CMQS at ε = 0.20 (Figure 4, fourth bar).
func BenchmarkFig4CMQS10x(b *testing.B) {
	benchThroughput(b, func(spec Window, phis []float64) (Policy, error) {
		return NewCMQS(spec, phis, 0.20)
	}, fig4Spec)
}

// BenchmarkFig4Exact measures the Exact baseline (Figure 4, last bar).
func BenchmarkFig4Exact(b *testing.B) {
	benchThroughput(b, func(spec Window, phis []float64) (Policy, error) {
		return NewExact(spec, phis)
	}, fig4Spec)
}

// --- Figure 5: scalability vs window size, period 1K ---

func benchFig5(b *testing.B, mkPolicy func(spec Window, phis []float64) (Policy, error), size int, gen workload.Generator) {
	b.Helper()
	spec := Window{Size: size, Period: 1000}
	data := workload.Generate(gen, size+50*spec.Period)
	benchFeed(b, mkPolicy, spec, data)
}

func benchFeed(b *testing.B, mk func(spec Window, phis []float64) (Policy, error), spec Window, data []float64) {
	b.Helper()
	phis := []float64{0.5, 0.9, 0.99, 0.999}
	b.ResetTimer()
	elements := 0
	for i := 0; i < b.N; i++ {
		p, err := mk(spec, phis)
		if err != nil {
			b.Fatal(err)
		}
		st, err := stream.Feed(p, spec, data)
		if err != nil {
			b.Fatal(err)
		}
		elements += st.Elements
	}
	b.ReportMetric(float64(elements)/b.Elapsed().Seconds()/1e6, "Mev/s")
}

func mkQLOVE(spec Window, phis []float64) (Policy, error) {
	return New(Config{Spec: spec, Phis: phis})
}

// BenchmarkFig5NormalQLOVE1K..1M: QLOVE on Normal data (Figure 5a).
func BenchmarkFig5NormalQLOVE1K(b *testing.B) {
	benchFig5(b, mkQLOVE, 1000, workload.NewNormal(1, 1e6, 5e4))
}
func BenchmarkFig5NormalQLOVE100K(b *testing.B) {
	benchFig5(b, mkQLOVE, 100_000, workload.NewNormal(1, 1e6, 5e4))
}
func BenchmarkFig5NormalQLOVE1M(b *testing.B) {
	benchFig5(b, mkQLOVE, 1_000_000, workload.NewNormal(1, 1e6, 5e4))
}

// BenchmarkFig5NormalExact1K..1M: Exact on Normal data (Figure 5a).
func BenchmarkFig5NormalExact1K(b *testing.B) {
	benchFig5(b, NewExact, 1000, workload.NewNormal(1, 1e6, 5e4))
}
func BenchmarkFig5NormalExact100K(b *testing.B) {
	benchFig5(b, NewExact, 100_000, workload.NewNormal(1, 1e6, 5e4))
}

// BenchmarkFig5UniformQLOVE*: QLOVE on Uniform data (Figure 5b).
func BenchmarkFig5UniformQLOVE1K(b *testing.B) {
	benchFig5(b, mkQLOVE, 1000, workload.NewUniform(1, 90, 110))
}
func BenchmarkFig5UniformQLOVE1M(b *testing.B) {
	benchFig5(b, mkQLOVE, 1_000_000, workload.NewUniform(1, 90, 110))
}

// BenchmarkFig5UniformExact1K: Exact on Uniform data (Figure 5b).
func BenchmarkFig5UniformExact1K(b *testing.B) {
	benchFig5(b, NewExact, 1000, workload.NewUniform(1, 90, 110))
}

// --- Single-stream ingestion: the hot path this repo optimizes ---
//
// BenchmarkObserve* measure the QLOVE operator's sustained ingestion rate
// under the full window protocol (observe + seal + expire + evaluate) on
// the Figure 4 window shape. BenchmarkObserveQLOVE drives the
// element-at-a-time Observe contract; BenchmarkObserveBatchQLOVE drives
// the batched path the runners now use. The pointer-tree seed measured
// 6.9 Mev/s on this workload (see README); the acceptance bar for the
// arena + batch refactor is >= 2x that.

func benchIngest(b *testing.B, batched bool) {
	b.Helper()
	spec := fig4Spec
	phis := []float64{0.5, 0.9, 0.99, 0.999}
	data := fig4Data(b, spec.Size+200*spec.Period)
	b.ReportAllocs()
	b.ResetTimer()
	elements := 0
	for i := 0; i < b.N; i++ {
		p, err := New(Config{Spec: spec, Phis: phis})
		if err != nil {
			b.Fatal(err)
		}
		var st stream.RunStats
		if batched {
			st, err = stream.Feed(p, spec, data)
		} else {
			st, err = feedElementwise(p, spec, data)
		}
		if err != nil {
			b.Fatal(err)
		}
		elements += st.Elements
	}
	b.ReportMetric(float64(elements)/b.Elapsed().Seconds()/1e6, "Mev/s")
}

// feedElementwise is stream.Feed with per-element Observe dispatch — the
// seed's ingestion loop, kept for the before/after comparison.
func feedElementwise(p Policy, spec Window, data []float64) (stream.RunStats, error) {
	if err := spec.Validate(); err != nil {
		return stream.RunStats{}, err
	}
	nEvals := spec.Evaluations(len(data))
	start := time.Now()
	pos := 0
	for i := 0; i < nEvals; i++ {
		lo, hi := spec.EvalBounds(i)
		if i > 0 {
			p.Expire(data[lo-spec.Period : lo])
		}
		for ; pos < hi; pos++ {
			p.Observe(data[pos])
		}
		_ = p.Result()
	}
	return stream.RunStats{Elements: pos, Evaluations: nEvals, Elapsed: time.Since(start)}, nil
}

// BenchmarkObserveQLOVE: element-at-a-time ingestion (flat buffer, fused
// seal, but per-element interface dispatch and quantization).
func BenchmarkObserveQLOVE(b *testing.B) { benchIngest(b, false) }

// BenchmarkObserveBatchQLOVE: batched ingestion — the production path.
func BenchmarkObserveBatchQLOVE(b *testing.B) { benchIngest(b, true) }

// BenchmarkObserveKeyed: the operator as a shard runs it — 20 000 keyed
// operators minted by one core.Pool, each behind a stream.Pusher, fed
// period-sized reports in Zipf(1.1) key order (most keys cold, a few hot),
// so a report finds its key's state out of the CPU cache. ns/value is the
// per-value cost of that, seal and evaluation included; the single-stream
// benchmarks above cannot see it. Set-up (minting, one warm-up report per
// key) is outside the timer.
func BenchmarkObserveKeyed(b *testing.B) {
	const keys = 20_000
	for _, spec := range []Window{{Size: 512, Period: 128}, {Size: 64, Period: 16}} {
		b.Run(fmt.Sprintf("%d-%d", spec.Size, spec.Period), func(b *testing.B) {
			pool, err := core.NewPool(Config{Spec: spec, Phis: []float64{0.5, 0.9, 0.99, 0.999}, FewK: true})
			if err != nil {
				b.Fatal(err)
			}
			data := fig4Data(b, 1<<16)
			report := func(i int) []float64 {
				off := (i * spec.Period) % (len(data) - spec.Period)
				return data[off : off+spec.Period]
			}
			pushers := make([]*stream.Pusher, keys)
			for i := range pushers {
				if pushers[i], err = stream.NewPusher(pool.Get(), spec); err != nil {
					b.Fatal(err)
				}
				pushers[i].PushBatch(report(i), nil)
			}
			zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, keys-1)
			order := make([]int32, 1<<16)
			for i := range order {
				order[i] = int32(zipf.Uint64())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pushers[order[i%len(order)]].PushBatch(report(i), nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*spec.Period), "ns/value")
		})
	}
}

// BenchmarkLevel1PaperWindow: one operator made by New (a pool of its
// own) at Table 1's window of 128 000 values and the paper's periods of
// 1 000, 4 000 and 16 000, few-k on, fed NetMon by stream.Feed — the long sub-windows the
// engine benchmarks (periods 128 and 16) never seal. An iteration feeds a
// window and then 64 000 more values, evaluating at every period: at most
// ≈ 65 ms on a 2-CPU box (period 1 000, where the 65 evaluations, each
// merging 128 summaries, cost more than the sealing).
func BenchmarkLevel1PaperWindow(b *testing.B) {
	const size = 128_000
	data := fig4Data(b, size+size/2)
	for _, period := range []int{1000, 4000, 16_000} {
		b.Run(fmt.Sprintf("%d-%d", size, period), func(b *testing.B) {
			benchFeed(b, func(spec Window, phis []float64) (Policy, error) {
				return New(Config{Spec: spec, Phis: phis, FewK: true})
			}, Window{Size: size, Period: period}, data)
		})
	}
}

// --- Ablations: design choices behind QLOVE (README "Benchmarks & perf
// trajectory" lists how to run them) ---

// BenchmarkAblationQuantizationOn/Off isolates §3.1 value compression.
func BenchmarkAblationQuantizationOn(b *testing.B) {
	benchThroughput(b, func(spec Window, phis []float64) (Policy, error) {
		return New(Config{Spec: spec, Phis: phis, Digits: 3})
	}, Window{Size: 32_000, Period: 1000})
}
func BenchmarkAblationQuantizationOff(b *testing.B) {
	benchThroughput(b, func(spec Window, phis []float64) (Policy, error) {
		return New(Config{Spec: spec, Phis: phis, Digits: -1})
	}, Window{Size: 32_000, Period: 1000})
}

// BenchmarkAblationFewKOn/Off isolates the few-k pipelines' overhead.
func BenchmarkAblationFewKOn(b *testing.B) {
	benchThroughput(b, func(spec Window, phis []float64) (Policy, error) {
		return New(Config{Spec: spec, Phis: phis, FewK: true})
	}, Window{Size: 32_000, Period: 1000})
}
func BenchmarkAblationFewKOff(b *testing.B) {
	benchThroughput(b, func(spec Window, phis []float64) (Policy, error) {
		return New(Config{Spec: spec, Phis: phis})
	}, Window{Size: 32_000, Period: 1000})
}

// --- Delta export: one flush over a resident key set ---

// BenchmarkExportDelta measures one steady-state ExportDelta (encoded to
// io.Discard) against how many keys are resident and how many sealed since
// the previous export. The pushes that dirty the keys, and the barrier that
// waits for the shards to absorb them, run with the timer stopped; the
// timed region is the export alone. BENCH_export.json records the rows
// before and after the mutation journal.
func BenchmarkExportDelta(b *testing.B) {
	for _, resident := range []int{2_000, 20_000} {
		for _, changed := range []int{0, 256, resident} {
			name := fmt.Sprintf("resident=%d/changed=%d", resident, changed)
			if changed == resident {
				name = fmt.Sprintf("resident=%d/changed=all", resident)
			}
			b.Run(name, func(b *testing.B) { benchExportDelta(b, resident, changed) })
		}
	}
}

func benchExportDelta(b *testing.B, resident, changed int) {
	e, err := NewEngine(EngineConfig{
		Config: Config{Spec: Window{Size: 64, Period: 16}, Phis: []float64{0.5, 0.9, 0.99, 0.999}, FewK: true},
		Shards: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	done := drainResults(e)
	defer func() {
		e.Close()
		<-done
	}()
	keys := make([]string, resident)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i)
	}
	vs := fig4Data(b, 16) // one period: every push seals
	dirty := func(n int) {
		// A stride coprime to the key count spreads the dirty set over the
		// key space (and so over the shards and the journal).
		for i := range n {
			if err := e.Push(keys[i*7919%resident], vs); err != nil {
				b.Fatal(err)
			}
		}
		e.Keys() // rides every shard queue: the pushes above have landed
	}
	dirty(resident)
	var cur ExportCursor
	if _, err := e.ExportDelta(io.Discard, &cur); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dirty(changed)
		b.StartTimer()
		if _, err := e.ExportDelta(io.Discard, &cur); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Point reads beside saturating ingest ---

// BenchmarkEngineQueryUnderIngest measures what a dashboard read costs while
// the engine is kept busy: two closed-loop producers push period-sized
// reports round the keys of a 4-shard engine holding 20 000 of them, and the
// benchmark goroutine issues b.N Query calls. ns/op is the mean read; every
// read is also timed on its own for the p99. BENCH_query.json records the
// rows with reads queued behind ingest and with reads served in place.
func BenchmarkEngineQueryUnderIngest(b *testing.B) {
	const keys, producers = 20_000, 2
	spec := Window{Size: 512, Period: 128}
	e, err := NewEngine(EngineConfig{
		Config: Config{Spec: spec, Phis: []float64{0.5, 0.9, 0.99, 0.999}, FewK: true},
		Shards: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	done := drainResults(e)
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("key-%05d", i)
	}
	data := fig4Data(b, 1<<16)
	report := func(i int) []float64 {
		off := (i * spec.Period) % (len(data) - spec.Period)
		return data[off : off+spec.Period]
	}
	for i := range names {
		if err := e.Push(names[i], report(i)); err != nil {
			b.Fatal(err)
		}
	}
	e.Keys() // every key is resident before the first read
	var stop atomic.Bool
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; !stop.Load(); i += producers {
				if err := e.Push(names[i%keys], report(i)); err != nil {
					b.Error(err)
					return
				}
			}
		}(p)
	}
	lat := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := range lat {
		key := names[i*7919%keys]
		start := time.Now()
		_, ok := e.Query(key)
		lat[i] = time.Since(start)
		if !ok {
			b.Fatalf("resident key %s not queryable", key)
		}
	}
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
	e.Close()
	<-done
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-ns")
}
