package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/loadgen"
	"repro/internal/workload"
)

// The openloop scenario benchmarks the Engine the way production load
// arrives: an OPEN-LOOP Poisson arrival process over a percentage mix of
// operations (push / query / export / evict), stepped up rate by rate
// until the engine can no longer sustain the offered load under a
// p99-latency SLA — the quantile system benchmarked by its own quantiles.
// Unlike the repo benchmark's closed-loop producers (benchmark/, which
// measure how fast a tight ingest loop spins), this reports a max
// sustainable rate with explicit overload detection: the
// offered-vs-accepted divergence and the latency blow-up a queueing system
// shows when pushed past capacity.

// openLoopOptions parameterizes one openloop scenario run.
type openLoopOptions struct {
	Spec         qlove.Window
	Phis         []float64
	Keys         int
	Skew         float64
	Report       int // values per pushed report
	Shards       int
	Seed         int64
	Backpressure qlove.Backpressure
	Mix          loadgen.Mix
	StartRate    float64 // first ramp step, ops/s
	Factor       float64 // rate multiplier between steps
	MaxRate      float64
	StepDuration time.Duration
	SLA          time.Duration // p99 gate
	PushTimeout  time.Duration // PushContext bound; pushes past it count as shed load
}

// defaultOpenLoopOptions scales the scenario. Rates are NOT scaled by
// -scale (the ramp finds the ceiling itself); scale sizes the key universe.
func defaultOpenLoopOptions(scale float64, seed int64, keys int, skew float64) openLoopOptions {
	if keys <= 0 {
		keys = int(20_000 * scale)
		if keys < 200 {
			keys = 200
		}
	}
	shards := runtime.GOMAXPROCS(0)
	if shards < 4 {
		shards = 4
	}
	return openLoopOptions{
		Spec:         qlove.Window{Size: 512, Period: 128},
		Phis:         []float64{0.5, 0.9, 0.99},
		Keys:         keys,
		Skew:         skew,
		Report:       128,
		Shards:       shards,
		Seed:         seed,
		Backpressure: qlove.BackpressureBlock,
		Mix:          loadgen.Mix{Push: 90, Query: 6, Export: 2, Evict: 2},
		StartRate:    1000,
		Factor:       2,
		MaxRate:      128_000,
		StepDuration: 400 * time.Millisecond,
		SLA:          25 * time.Millisecond,
		PushTimeout:  100 * time.Millisecond,
	}
}

// reportSeq is the scenario's deterministic report ring, materialized
// before the ramp starts so the target times engine operations, not serial
// workload generation. It opens with an enumeration pass where every key
// reports once (the heartbeat all series send, so every key is resident
// from the first lap), followed by skew-distributed traffic reports.
type reportSeq struct {
	keys   []string  // one per report
	vals   []float64 // len(keys) × report values, report i at [i*report, (i+1)*report)
	report int
	hot    string // the Zipf head (key 0), the key export ops ship
}

// materializeReports draws the ring: four reports per key on average.
func materializeReports(o openLoopOptions) (reportSeq, error) {
	gen, err := workload.NewKeyed(o.Seed, o.Keys, o.Skew, workload.NewNetMon(o.Seed))
	if err != nil {
		return reportSeq{}, err
	}
	reports := 4 * o.Keys
	seq := reportSeq{
		keys:   make([]string, reports),
		vals:   make([]float64, reports*o.Report),
		report: o.Report,
		hot:    gen.Key(0),
	}
	for i := 0; i < reports; i++ {
		// Three-index slice: Values/NextReport fill to cap(dst), which
		// must stop at this report's end, not the array's.
		vs := seq.vals[i*o.Report : i*o.Report : (i+1)*o.Report]
		if i < o.Keys {
			seq.keys[i] = gen.Key(i)
			gen.Values(vs)
		} else {
			key, _ := gen.NextReport(vs)
			seq.keys[i] = key
		}
	}
	return seq, nil
}

// engineTarget adapts an Engine to loadgen.Target over a pre-materialized
// report ring (generation off the measured path). All state is atomics —
// Do runs on many goroutines.
type engineTarget struct {
	eng         *qlove.Engine
	seq         reportSeq
	pushTimeout time.Duration
	idx         atomic.Uint64 // next report in the ring
	ridx        atomic.Uint64 // read-op key rotation
	eidx        atomic.Uint64 // evict-op key rotation
}

func (t *engineTarget) report(i uint64) (string, []float64) {
	r := int(i % uint64(len(t.seq.keys)))
	return t.seq.keys[r], t.seq.vals[r*t.seq.report : (r+1)*t.seq.report]
}

// Do implements loadgen.Target.
func (t *engineTarget) Do(op loadgen.Op) error {
	switch op {
	case loadgen.OpPush:
		key, vs := t.report(t.idx.Add(1) - 1)
		if t.pushTimeout <= 0 {
			return t.eng.Push(key, vs)
		}
		ctx, cancel := context.WithTimeout(context.Background(), t.pushTimeout)
		defer cancel()
		return t.eng.PushContext(ctx, key, vs)
	case loadgen.OpQuery:
		key, _ := t.report(t.ridx.Add(7) - 7) // stride decorrelates from pushes
		t.eng.Query(key)
		return nil
	case loadgen.OpExport:
		_, err := t.eng.ExportKeys(io.Discard, t.seq.hot)
		return err
	case loadgen.OpEvict:
		key, _ := t.report(t.eidx.Add(13) - 13)
		t.eng.Evict(key) // the ring re-creates it on its next report
		return nil
	}
	return fmt.Errorf("openloop: unknown op %v", op)
}

// openLoopStep is one measured ramp step.
type openLoopStep struct {
	OfferedRPS  float64
	AcceptedRPS float64
	Errors      int
	Abandoned   int
	P50Ms       float64
	P99Ms       float64
	Sustainable bool
	Reason      string
}

// openLoopRun is the scenario result.
type openLoopRun struct {
	Steps              []openLoopStep
	MaxSustainableRPS  float64
	MaxSustainableMevS float64 // push share × report size
	Evaluations        uint64
	DroppedResults     uint64
	BlockedMs          float64
	QueueHighWater     int
	ShardSkew          float64
}

// runOpenLoop builds an engine, ramps the open-loop load against it and
// folds the engine's own stats plane into the result.
func runOpenLoop(o openLoopOptions) (openLoopRun, error) {
	seq, err := materializeReports(o)
	if err != nil {
		return openLoopRun{}, err
	}
	eng, err := qlove.NewEngine(qlove.EngineConfig{
		Config:       qlove.Config{Spec: o.Spec, Phis: o.Phis},
		Shards:       o.Shards,
		QueueDepth:   256,
		ResultBuffer: 1 << 14,
		Backpressure: o.Backpressure,
	})
	if err != nil {
		return openLoopRun{}, err
	}
	var evals atomic.Uint64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range eng.Results() {
			evals.Add(1)
		}
	}()
	tgt := &engineTarget{eng: eng, seq: seq, pushTimeout: o.PushTimeout}
	ramp, err := loadgen.Ramp(context.Background(), loadgen.RampConfig{
		Start:        o.StartRate,
		Factor:       o.Factor,
		Max:          o.MaxRate,
		StepDuration: o.StepDuration,
		SLA:          o.SLA,
		Mix:          o.Mix,
		Seed:         o.Seed,
		Grace:        2 * o.PushTimeout,
	}, tgt)
	if err != nil {
		eng.Close()
		<-drained
		return openLoopRun{}, err
	}
	eng.Close()
	<-drained
	st := eng.Stats().Total()
	run := openLoopRun{
		MaxSustainableRPS:  ramp.MaxSustainable,
		MaxSustainableMevS: ramp.MaxSustainable * float64(o.Mix.Push) / 100 * float64(o.Report) / 1e6,
		Evaluations:        evals.Load(),
		DroppedResults:     eng.Dropped(),
		BlockedMs:          float64(st.Blocked) / 1e6,
		QueueHighWater:     st.QueueHighWater,
		ShardSkew:          eng.Stats().Skew(),
	}
	for _, s := range ramp.Steps {
		run.Steps = append(run.Steps, openLoopStep{
			OfferedRPS:  s.Rate,
			AcceptedRPS: s.CompletedRate,
			Errors:      s.Errors,
			Abandoned:   s.Abandoned,
			P50Ms:       float64(s.P50) / 1e6,
			P99Ms:       float64(s.P99) / 1e6,
			Sustainable: s.Sustainable,
			Reason:      s.Reason,
		})
	}
	return run, nil
}

// openLoopExperiment prints the ramp as a table.
func openLoopExperiment(w io.Writer, o openLoopOptions) error {
	fmt.Fprintf(w, "open-loop SLA ramp: %d keys (zipf %.2f), %d shards, %s backpressure, mix %s, p99 SLA %v, GOMAXPROCS=%d\n",
		o.Keys, o.Skew, o.Shards, o.Backpressure, o.Mix, o.SLA, runtime.GOMAXPROCS(0))
	run, err := runOpenLoop(o)
	if err != nil {
		return err
	}
	for _, s := range run.Steps {
		verdict := "sustainable"
		if !s.Sustainable {
			verdict = "OVERLOAD: " + s.Reason
		}
		fmt.Fprintf(w, "  offered=%8.0f/s accepted=%8.0f/s p50=%7.2fms p99=%7.2fms errs=%-4d abandoned=%-4d %s\n",
			s.OfferedRPS, s.AcceptedRPS, s.P50Ms, s.P99Ms, s.Errors, s.Abandoned, verdict)
	}
	fmt.Fprintf(w, "  max sustainable: %.0f ops/s (~%.2f Mev/s pushed) under p99<=%v\n",
		run.MaxSustainableRPS, run.MaxSustainableMevS, o.SLA)
	fmt.Fprintf(w, "  engine: evals=%d dropped=%d blocked=%.1fms queue-high-water=%d shard-skew=%.2f\n",
		run.Evaluations, run.DroppedResults, run.BlockedMs, run.QueueHighWater, run.ShardSkew)
	return nil
}
