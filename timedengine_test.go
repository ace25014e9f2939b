package qlove

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/internal/workload"
)

func TestTimedEngineValidation(t *testing.T) {
	cfg := Config{Spec: Window{Size: 128, Period: 64}, Phis: []float64{0.5}}
	bad := []EngineConfig{
		{Config: cfg, TimedWindow: time.Second},                                // no period
		{Config: cfg, TimedWindow: time.Second, TimedPeriod: time.Minute},      // size < period
		{Config: cfg, TimedWindow: 90 * time.Second, TimedPeriod: time.Minute}, // non-multiple
	}
	for i, ec := range bad {
		if _, err := NewEngine(ec); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
	// Tick on a count-based engine with no TTL is an empty pass, not a hang.
	eng, err := NewEngine(EngineConfig{Config: cfg, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.Tick()
	eng.Close()
	eng.Tick()
}

// TestTimedEngineQuietShardEvaluates: the ticker path of timed mode — on a
// real clock, with no Tick calls and no further deliveries, the shard's
// housekeeping ticker flushes a key past its period boundary and the
// evaluation reaches Results (bounded wait).
func TestTimedEngineQuietShardEvaluates(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Config:      Config{Spec: Window{Size: 128, Period: 64}, Phis: []float64{0.5}},
		Shards:      2,
		TimedWindow: 20 * time.Millisecond,
		TimedPeriod: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Push("quiet", workload.Generate(workload.NewNetMon(6), 32)); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-eng.Results():
		if r.Key != "quiet" {
			t.Fatalf("evaluation for %q, want \"quiet\"", r.Key)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("quiet timed key not evaluated after 5s")
	}
}

// timedScript is one deterministic interleaved schedule: per epoch, the
// reports pushed (hot-key and noise), then one period advance and tick.
type timedScript struct {
	window, period time.Duration
	start          time.Time
	epochs         int
	// hotReports returns the hot key's reports for one epoch (nil = the
	// hot key is silent that epoch).
	hotReports func(epoch int) [][]float64
	noise      func(epoch int) map[string][]float64
}

// TestTimedEngineMatchesTimedMonitor is the equivalence gate of the timed
// plane: an Engine timed key driven by the injected fake clock — batches
// stamped at delivery, windows advanced by Engine.Tick — produces flush
// results AND exported snapshot bytes bit-identical to a single
// TimedMonitor fed the same interleaved stream and ticks, at every tested
// shard count.
func TestTimedEngineMatchesTimedMonitor(t *testing.T) {
	const hot = "svc/latency"
	cfg := Config{Spec: Window{Size: 256, Period: 64}, Phis: []float64{0.5, 0.9, 0.99}, FewK: true}
	start := time.Date(2026, 7, 28, 15, 0, 0, 0, time.UTC)
	script := timedScript{
		window: 4 * time.Second,
		period: time.Second,
		start:  start,
		epochs: 24,
		hotReports: func(e int) [][]float64 {
			gen := workload.NewNetMon(int64(100 + e))
			switch {
			case e%5 == 3:
				return nil // silent epoch: the tick alone advances the window
			case e%4 == 0:
				// Two reports in one period; their combined volume crosses
				// the count Spec.Period, so the operator auto-seals
				// mid-period and the seal-count ring earns its keep.
				return [][]float64{workload.Generate(gen, 90), workload.Generate(gen, 75)}
			default:
				return [][]float64{workload.Generate(gen, 17+e*13%80)}
			}
		},
		noise: func(e int) map[string][]float64 {
			gen := workload.NewNetMon(int64(9000 + e))
			out := make(map[string][]float64)
			for i := 0; i < 6; i++ {
				out[fmt.Sprintf("noise-%d", i)] = workload.Generate(gen, 40)
			}
			return out
		},
	}

	// The reference: one TimedMonitor fed the hot key's sub-stream with
	// identical timestamps and ticks. Each epoch advances exactly one
	// period, so every boundary crossing happens inside a Flush and each
	// Flush returns its (single) evaluation.
	ref, err := NewTimedMonitor(mustQLOVE(t, cfg), script.window, script.period)
	if err != nil {
		t.Fatal(err)
	}
	var want []Result
	for e := 0; e < script.epochs; e++ {
		at := script.start.Add(time.Duration(e) * script.period)
		for _, vs := range script.hotReports(e) {
			if _, ok := ref.PushBatch(at, vs, nil); ok {
				t.Fatalf("epoch %d: reference evaluated mid-report (script must cross boundaries only on ticks)", e)
			}
		}
		if res, ok := ref.Flush(at.Add(script.period), nil); ok {
			want = append(want, res)
		}
	}
	refSnap := ref.Policy().(*QLOVE).Snapshot()

	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			clk := newFakeClock(script.start)
			eng, err := NewEngine(EngineConfig{
				Config:       cfg,
				Shards:       shards,
				ResultBuffer: 1 << 12,
				TimedWindow:  script.window,
				TimedPeriod:  script.period,
				Clock:        clk.now,
			})
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < script.epochs; e++ {
				for _, vs := range script.hotReports(e) {
					if err := eng.Push(hot, vs); err != nil {
						t.Fatal(err)
					}
				}
				for key, vs := range script.noise(e) {
					if err := eng.Push(key, vs); err != nil {
						t.Fatal(err)
					}
				}
				// Fence: a control round on every shard orders all queued
				// deliveries before the clock moves, so each batch is
				// stamped with this epoch's time.
				eng.Keys()
				clk.advance(script.period)
				eng.Tick()
			}
			engSnap, ok := eng.Query(hot)
			if !ok {
				t.Fatalf("hot key %q not monitored", hot)
			}
			eng.Close()
			var got []Result
			for kr := range eng.Results() {
				if kr.Key == hot {
					got = append(got, kr.Result)
				}
			}
			if eng.Dropped() != 0 {
				t.Fatalf("dropped %d results; grow ResultBuffer", eng.Dropped())
			}

			if len(got) != len(want) {
				t.Fatalf("hot key produced %d results, reference %d", len(got), len(want))
			}
			for i := range want {
				if got[i].Evaluation != want[i].Evaluation {
					t.Fatalf("result %d: evaluation %d != %d", i, got[i].Evaluation, want[i].Evaluation)
				}
				for j := range want[i].Estimates {
					if math.Float64bits(got[i].Estimates[j]) != math.Float64bits(want[i].Estimates[j]) {
						t.Fatalf("result %d ϕ[%d]: engine %v != monitor %v",
							i, j, got[i].Estimates[j], want[i].Estimates[j])
					}
				}
			}

			// The exported capture is bit-identical too: same wire bytes.
			var engBlob, refBlob bytes.Buffer
			if _, err := wire.NewEncoder(&engBlob).Encode(hot, engSnap); err != nil {
				t.Fatal(err)
			}
			if _, err := wire.NewEncoder(&refBlob).Encode(hot, refSnap); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(engBlob.Bytes(), refBlob.Bytes()) {
				t.Fatalf("snapshot wire bytes diverge: engine %d bytes, monitor %d bytes",
					engBlob.Len(), refBlob.Len())
			}
		})
	}
}

// TestTimedEngineSoak is the concurrency gate of the timed plane (run with
// -race): one timed engine under simultaneous Push, shard ticks (fake
// clock advanced concurrently), ExportDelta, Snapshot (merged with a
// remote blob) and wall-clock TTL eviction. Afterwards the cursor-folded
// aggregator state must equal a fresh full export exactly — same key set
// in both directions, bit-identical estimates.
func TestTimedEngineSoak(t *testing.T) {
	cfg := Config{Spec: Window{Size: 256, Period: 64}, Phis: []float64{0.5, 0.99}, FewK: true}
	clk := newFakeClock(time.Unix(1_000_000, 0))
	const period = 100 * time.Millisecond
	eng, err := NewEngine(EngineConfig{
		Config:         cfg,
		Shards:         4,
		ResultBuffer:   1 << 12,
		TimedWindow:    4 * period,
		TimedPeriod:    period,
		KeyTTLDuration: 6 * period, // churn keys expire mid-run, exercising tombstones
		Clock:          clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := drainResults(eng)

	// A remote blob the concurrent reader merges into its snapshots.
	remote, err := NewEngine(EngineConfig{Config: cfg, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	remoteDone := drainResults(remote)
	if err := remote.Push("hot-0", workload.Generate(workload.NewNetMon(77), 512)); err != nil {
		t.Fatal(err)
	}
	remote.Close()
	<-remoteDone
	var remoteBlob bytes.Buffer
	if _, err := remote.Export(&remoteBlob); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Pushers: a stable hot set plus a churning tail the TTL sweep evicts.
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			gen := workload.NewNetMon(int64(1000 + p))
			for i := 0; !stop.Load(); i++ {
				var key string
				if rng.Intn(3) > 0 {
					key = fmt.Sprintf("hot-%d", rng.Intn(8))
				} else {
					key = fmt.Sprintf("churn-%d-%d", p, i%97)
				}
				if err := eng.Push(key, workload.Generate(gen, 32)); err != nil {
					return // engine closed under us: the run is over
				}
			}
		}(p)
	}

	// Ticker: the clock advances and every shard flushes, concurrent with
	// ingest — timed seals, window slides and TTL sweeps all race Push.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			clk.advance(period / 3)
			eng.Tick()
		}
	}()

	// Exporter: delta exports folded into the service-style aggregator.
	agg := NewAggregator()
	var cur ExportCursor
	var exports int
	var exportErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			var buf bytes.Buffer
			if _, err := eng.ExportDelta(&buf, &cur); err != nil {
				exportErr = fmt.Errorf("export %d: %w", exports, err)
				return
			}
			if _, err := agg.Apply("w", bytes.NewReader(buf.Bytes())); err != nil {
				exportErr = fmt.Errorf("apply %d: %w", exports, err)
				return
			}
			exports++
		}
	}()

	// Reader: full snapshots, imports and point queries ride alongside.
	var readErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			var imported EngineSnapshot
			if _, err := imported.ReadFrom(bytes.NewReader(remoteBlob.Bytes())); err != nil {
				readErr = fmt.Errorf("import: %w", err)
				return
			}
			if _, err := eng.Snapshot().Merge(imported); err != nil {
				readErr = fmt.Errorf("import: %w", err)
				return
			}
			eng.Query("hot-3")
			eng.Keys()
		}
	}()

	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if exportErr != nil {
		t.Fatal(exportErr)
	}
	if readErr != nil {
		t.Fatal(readErr)
	}
	eng.Close()
	<-done

	// Final flush + delta over the closed engine, then the identity check.
	clk.advance(period)
	eng.Tick()
	var buf bytes.Buffer
	if _, err := eng.ExportDelta(&buf, &cur); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Apply("w", bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if exports == 0 {
		t.Fatal("exporter never ran")
	}
	t.Logf("timed soak: %d concurrent delta exports, final state %d keys", exports, agg.Keys())
	requireSameView(t, agg, eng)
}
