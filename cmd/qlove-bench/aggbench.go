package main

// The aggregator scenario benches the AGGREGATION TIER itself — not the
// engines feeding it: concurrent worker pushes (full-blob re-applies, so
// every apply is replace-idempotent and the final state is deterministic)
// against concurrent key queries, swept across goroutine counts and key
// cardinalities, for every in-memory store backend (single-map,
// lock-striped, striped+instrumented). After each backend's sweep
// its quiesced merged view is compared bit-for-bit against a serial fold
// on the single-map reference — the throughput numbers are only
// comparable because the answers are identical.

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/workload"
)

// aggBenchOptions parameterizes the aggregator-tier sweep.
type aggBenchOptions struct {
	Spec        qlove.Window
	Phis        []float64
	Workers     int   // pushing worker identities (and fixture blobs)
	KeyCounts   []int // key cardinalities to sweep
	Elements    int   // per-worker elements behind each fixture blob
	Concurrency []int // concurrent pusher (and querier) counts to sweep
	CellMillis  int   // measured duration of one sweep cell
	Seed        int64
	// Strict gates the sweep: at each key count's top concurrency point
	// the striped backend must reach the single-map backend's combined
	// throughput (the CI perf floor for the lock-striping work).
	Strict bool
}

func defaultAggBenchOptions(scale float64, seed int64, keys int) aggBenchOptions {
	kc := []int{64, 512}
	if keys > 0 {
		kc = []int{keys}
	} else if scale < 0.2 {
		kc = []int{32, 128}
	}
	conc := []int{1, 2}
	if max := runtime.GOMAXPROCS(0); max >= 4 {
		conc = append(conc, 4)
	}
	elements := int(400_000 * scale)
	return aggBenchOptions{
		Spec:        qlove.Window{Size: 512, Period: 128},
		Phis:        []float64{0.5, 0.9, 0.99},
		Workers:     4,
		KeyCounts:   kc,
		Elements:    elements,
		Concurrency: conc,
		CellMillis:  120,
		Seed:        seed,
	}
}

// aggBenchRun is one sweep cell, emitted into the -json perf record.
type aggBenchRun struct {
	Backend       string  `json:"backend"`
	Keys          int     `json:"keys"`
	Pushers       int     `json:"pushers"`
	Queriers      int     `json:"queriers"`
	PushesPerSec  float64 `json:"pushes_per_sec"`
	FramesPerSec  float64 `json:"frames_per_sec"`
	QueriesPerSec float64 `json:"queries_per_sec"`
}

// aggBenchSection is the perf record's aggregator-tier section.
type aggBenchSection struct {
	Workers    int           `json:"workers"`
	Runs       []aggBenchRun `json:"runs"`
	Consistent bool          `json:"consistent"`
}

// aggBenchBackend is one store configuration under the sweep.
type aggBenchBackend struct {
	name string
	cfg  qlove.AggregatorConfig
}

// aggBenchBackends lists the swept backends, the single-map reference
// first.
var aggBenchBackends = []aggBenchBackend{
	{"map", qlove.AggregatorConfig{Store: "map"}},
	{"striped", qlove.AggregatorConfig{}},
	{"striped+instrumented", qlove.AggregatorConfig{Instrument: true}},
}

// aggBenchFixture is the prebuilt push traffic for one key count: each
// worker's full-export blob (and the shared key list for queriers).
type aggBenchFixture struct {
	blobs [][]byte
	keys  []string
}

// materializeAggBench builds one fixture: each worker ingests its own
// deterministic keyed workload over the SAME key universe (so every key
// has a capture on every worker and cross-worker merges are exercised on
// every query) and exports one full blob.
func materializeAggBench(o aggBenchOptions, keys int) (aggBenchFixture, error) {
	fx := aggBenchFixture{blobs: make([][]byte, o.Workers)}
	elements := o.Elements
	if min := 2 * o.Spec.Period * keys; elements < min {
		elements = min // every key's capture survives the enumeration pass
	}
	for w := 0; w < o.Workers; w++ {
		gen, err := workload.NewKeyed(o.Seed+int64(w), keys, 1.1, workload.NewNetMon(o.Seed+int64(100+w)))
		if err != nil {
			return aggBenchFixture{}, err
		}
		eng, err := qlove.NewEngine(qlove.EngineConfig{
			Config: qlove.Config{Spec: o.Spec, Phis: o.Phis},
			Shards: 2,
		})
		if err != nil {
			return aggBenchFixture{}, err
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for range eng.Results() {
			}
		}()
		vals := make([]float64, o.Spec.Period)
		for i := 0; i < keys; i++ {
			gen.Values(vals)
			if err := eng.Push(gen.Key(i), vals); err != nil {
				return aggBenchFixture{}, err
			}
		}
		for seen := keys * o.Spec.Period; seen < elements; seen += o.Spec.Period {
			key, _ := gen.NextReport(vals)
			if err := eng.Push(key, vals); err != nil {
				return aggBenchFixture{}, err
			}
		}
		eng.Close()
		<-drained
		var buf bytes.Buffer
		if _, err := eng.Export(&buf); err != nil {
			return aggBenchFixture{}, err
		}
		fx.blobs[w] = buf.Bytes()
		if w == 0 {
			for i := 0; i < keys; i++ {
				fx.keys = append(fx.keys, gen.Key(i))
			}
		}
	}
	return fx, nil
}

// runAggBenchCell drives one cell: `pushers` goroutines re-applying their
// workers' full blobs (each goroutine owns a disjoint worker subset, so
// the per-worker serialization contract holds) against `queriers`
// goroutines scanning the key list, for the cell duration. Pushers stop
// only between complete blob applies, so the quiesced state is exactly
// "every worker's blob applied".
func runAggBenchCell(o aggBenchOptions, fx aggBenchFixture, agg *qlove.Aggregator, pushers, queriers int) (aggBenchRun, error) {
	run := aggBenchRun{Pushers: pushers, Queriers: queriers, Keys: len(fx.keys)}
	var stop atomic.Bool
	var pushes, frames, queries atomic.Int64
	errc := make(chan error, pushers+queriers)
	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for !stop.Load() {
				for w := p; w < o.Workers; w += pushers {
					n, err := agg.Apply(serveWorkerID(w), bytes.NewReader(fx.blobs[w]))
					if err != nil {
						errc <- fmt.Errorf("apply worker %d: %w", w, err)
						return
					}
					pushes.Add(1)
					frames.Add(int64(n))
				}
			}
		}(p)
	}
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := q; !stop.Load(); i++ {
				if _, _, err := agg.Query(fx.keys[i%len(fx.keys)]); err != nil {
					errc <- fmt.Errorf("query: %w", err)
					return
				}
				queries.Add(1)
			}
		}(q)
	}
	start := time.Now()
	time.Sleep(time.Duration(o.CellMillis) * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	select {
	case err := <-errc:
		return run, err
	default:
	}
	run.PushesPerSec = float64(pushes.Load()) / elapsed
	run.FramesPerSec = float64(frames.Load()) / elapsed
	run.QueriesPerSec = float64(queries.Load()) / elapsed
	return run, nil
}

// aggBenchReference folds the fixture serially on the single-map backend
// and renders the merged view to wire bytes.
func aggBenchReference(fx aggBenchFixture) ([]byte, error) {
	ref, err := qlove.NewAggregatorConfig(qlove.AggregatorConfig{Store: "map"})
	if err != nil {
		return nil, err
	}
	for w, blob := range fx.blobs {
		if _, err := ref.Apply(serveWorkerID(w), bytes.NewReader(blob)); err != nil {
			return nil, fmt.Errorf("reference fold worker %d: %w", w, err)
		}
	}
	snap, err := ref.Snapshot()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runAggBench executes the full sweep: every key count × backend ×
// concurrency point, with the bit-equality check after each backend's
// sweep and the optional striped-vs-map strict gate (retried a few times
// before failing — it compares two live measurements on a shared
// machine).
func runAggBench(o aggBenchOptions) (aggBenchSection, error) {
	sec := aggBenchSection{Workers: o.Workers, Consistent: true}
	for _, keys := range o.KeyCounts {
		fx, err := materializeAggBench(o, keys)
		if err != nil {
			return sec, fmt.Errorf("keys=%d: %w", keys, err)
		}
		want, err := aggBenchReference(fx)
		if err != nil {
			return sec, fmt.Errorf("keys=%d: %w", keys, err)
		}
		topOps := map[string]float64{}
		for _, b := range aggBenchBackends {
			agg, err := qlove.NewAggregatorConfig(b.cfg)
			if err != nil {
				return sec, err
			}
			for _, c := range o.Concurrency {
				run, err := runAggBenchCell(o, fx, agg, c, c)
				if err != nil {
					return sec, fmt.Errorf("keys=%d backend=%s conc=%d: %w", keys, b.name, c, err)
				}
				run.Backend = b.name
				sec.Runs = append(sec.Runs, run)
				if c == o.Concurrency[len(o.Concurrency)-1] {
					topOps[b.name] = run.PushesPerSec + run.QueriesPerSec
				}
			}
			snap, err := agg.Snapshot()
			if err != nil {
				return sec, err
			}
			var got bytes.Buffer
			if _, err := snap.WriteTo(&got); err != nil {
				return sec, err
			}
			if !bytes.Equal(got.Bytes(), want) {
				sec.Consistent = false
				return sec, fmt.Errorf("keys=%d: backend %s quiesced view diverges from the single-map serial fold", keys, b.name)
			}
		}
		if o.Strict {
			top := o.Concurrency[len(o.Concurrency)-1]
			ok := topOps["striped"] >= topOps["map"]
			for attempt := 0; !ok && attempt < 3; attempt++ {
				// Re-measure both cells back to back: a single noisy cell on
				// a shared runner must not fail the floor.
				var striped, mp float64
				for _, name := range []string{"map", "striped"} {
					cfg := qlove.AggregatorConfig{Store: name}
					if name == "striped" {
						cfg = qlove.AggregatorConfig{}
					}
					agg, err := qlove.NewAggregatorConfig(cfg)
					if err != nil {
						return sec, err
					}
					run, err := runAggBenchCell(o, fx, agg, top, top)
					if err != nil {
						return sec, err
					}
					if name == "striped" {
						striped = run.PushesPerSec + run.QueriesPerSec
					} else {
						mp = run.PushesPerSec + run.QueriesPerSec
					}
				}
				topOps["striped"], topOps["map"] = striped, mp
				ok = striped >= mp
			}
			if !ok {
				return sec, fmt.Errorf("keys=%d: striped backend below single-map at concurrency %d (%.0f < %.0f ops/s)",
					keys, top, topOps["striped"], topOps["map"])
			}
		}
	}
	return sec, nil
}

// aggregatorExperiment prints the sweep as text.
func aggregatorExperiment(w io.Writer, o aggBenchOptions) error {
	fmt.Fprintf(w, "aggregation tier: %d workers re-pushing full blobs vs concurrent queries, key counts %v, concurrency %v, %dms cells\n",
		o.Workers, o.KeyCounts, o.Concurrency, o.CellMillis)
	sec, err := runAggBench(o)
	for _, r := range sec.Runs {
		fmt.Fprintf(w, "  keys=%-5d %-22s pushers=%d queriers=%d  %8.0f pushes/s %10.0f frames/s %10.0f queries/s\n",
			r.Keys, r.Backend, r.Pushers, r.Queriers, r.PushesPerSec, r.FramesPerSec, r.QueriesPerSec)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  quiesced views vs single-map serial fold: bit-identical\n")
	return nil
}
