package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/loadgen"
	"repro/internal/stats"
)

// engineWorkload is engine-ingest and engine-hotkey: one Engine, two
// closed-loop producers (a producer pushes its next report when Push
// returns; under lossless back-pressure that is the sustainable rate),
// results drained and counted, no export. Every queryEvery-th report a
// producer also reads one key back — the dashboard read against a worker
// under ingest load — which is where query_p50_us comes from.
type engineWorkload struct {
	name string
	hot  bool // engine-hotkey: moving hot key, Adapt on
	cfg  *config

	spec   qlove.Window
	seq    *reportSeq
	parts  [][]int32
	heads  map[int32]bool // scheduled hot keys (engine-hotkey)
	reads  []int32        // keys read back, in order
	shadow []int32        // accuracy sample
}

const (
	producers  = 2 // load-generating goroutines == nproc of the reference container
	queryEvery = 64
	// Committed sizes (scale 1): one round, not one run. README.md has the
	// sizing; a round of either engine workload is 12.8 M values.
	ingestTraffic = 100_000 // 128-value reports per round
	hotkeyTraffic = 100_000 // four phases of 25 000: ~3 controller passes each
	ingestRing    = 6_250   // reports in the value ring (0.8 M values)
)

func (w *engineWorkload) generate(cfg *config) error {
	w.cfg = cfg
	w.spec = qlove.Window{Size: 512, Period: 128}
	traffic := scaled(ingestTraffic, cfg.scale, 2_000)
	var sched loadgen.HotSchedule
	if w.hot {
		traffic = scaled(hotkeyTraffic, cfg.scale, 2_000)
		// none hot → key A half the traffic → key B → none hot. A and B
		// are ordinarily cold keys, so the controller has to find them.
		a, b := cfg.keys/20, cfg.keys/10
		sched = loadgen.HotSchedule{{Until: 0.25, Key: noneHot}, {Until: 0.5, Key: a}, {Until: 0.75, Key: b}, {Until: 1, Key: noneHot}}
		if err := sched.Validate(); err != nil {
			return err
		}
		w.heads = map[int32]bool{int32(a): true, int32(b): true}
	}
	seq, err := genSeq(cfg.seed, cfg.keys, traffic, 128, scaled(ingestRing, cfg.scale, 500), sched)
	if err != nil {
		return err
	}
	w.seq = seq
	w.parts = seq.partition(producers, w.heads)
	w.reads = zipfKeys(cfg.seed, cfg.keys, traffic/queryEvery+producers)
	w.shadow = seq.shadowKeys(cfg.seed, w.spec.Size/seq.report+4)
	return nil
}

func (w *engineWorkload) engineConfig(nShards int, adapt bool) qlove.EngineConfig {
	ec := qlove.EngineConfig{
		Config:       operatorConfig(w.spec),
		Shards:       nShards,
		QueueDepth:   queueDepth,
		ResultBuffer: 1 << 14,
		Backpressure: qlove.BackpressureBlock,
	}
	if adapt {
		ec.Adapt = &qlove.AdaptConfig{Interval: 100 * time.Millisecond}
	}
	return ec
}

// resultSink drains an engine's Results, counting every evaluation and
// keeping the estimates of the shadow keys for the accuracy score.
type resultSink struct {
	done   chan struct{}
	count  int64
	shadow map[string][]qlove.Result
}

func drainResults(eng *qlove.Engine, shadow []string) *resultSink {
	s := &resultSink{done: make(chan struct{}), shadow: make(map[string][]qlove.Result, len(shadow))}
	for _, k := range shadow {
		s.shadow[k] = nil
	}
	go func() {
		defer close(s.done)
		for r := range eng.Results() {
			s.count++
			if prev, ok := s.shadow[r.Key]; ok {
				s.shadow[r.Key] = append(prev, r.Result)
			}
		}
	}()
	return s
}

// produce walks one producer's share of the traffic, closed loop. Traced,
// it times every Push and folds them into one span per 1024.
func (w *engineWorkload) produce(eng *qlove.Engine, tr *tracer, p int, part []int32, lat *[]float64, pushNanos *int64) (failed int64) {
	seq := w.seq
	root := tr.begin("producer", 0, 0)
	defer func() { tr.end(root, len(part)) }()
	reads := w.reads[p*len(w.reads)/producers:]
	var batch, batchN int
	for n, i := range part {
		var t time.Time
		if tr != nil {
			if batchN == 0 {
				batch = tr.begin("engine.push", root, 0)
			}
			t = time.Now()
		}
		if err := eng.Push(seq.key(int(i)), seq.vals(int(i))); err != nil {
			failed++
		}
		if tr != nil {
			*pushNanos += time.Since(t).Nanoseconds()
			if batchN++; batchN == 1024 || n == len(part)-1 {
				tr.end(batch, batchN)
				batchN = 0
			}
		}
		if n%queryEvery == queryEvery-1 {
			key := seq.names[reads[n/queryEvery]]
			sp := tr.begin("engine.query", root, 0)
			t := time.Now()
			_, ok := eng.Query(key)
			*lat = append(*lat, float64(time.Since(t).Nanoseconds())/1e3)
			tr.end(sp, 1)
			if !ok {
				failed++
			}
		}
	}
	return failed
}

func (w *engineWorkload) run(tr *tracer, gates bool) (*round, error) {
	seq := w.seq
	t0 := time.Now()
	base := heapLive()
	eng, err := qlove.NewEngine(w.engineConfig(shards, w.hot))
	if err != nil {
		return nil, err
	}
	shadowNames := make([]string, len(w.shadow))
	for i, k := range w.shadow {
		shadowNames[i] = seq.names[k]
	}
	sink := drainResults(eng, shadowNames)
	// Warm-up: the enumeration pass creates every key's operator, fills
	// the shard pools and pages the queues in.
	for i := 0; i < len(seq.names); i++ {
		if err := eng.Push(seq.key(i), seq.vals(i)); err != nil {
			return nil, err
		}
	}
	eng.Keys() // barrier: the warm-up is delivered before the clock starts
	runtime.GC()
	r := &round{setup: time.Since(t0), layer: map[string]float64{}}

	lats := make([][]float64, producers)
	fails := make([]int64, producers)
	pushNanos := make([]int64, producers)
	var wg sync.WaitGroup
	start := time.Now()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			fails[p] = w.produce(eng, tr, p, w.parts[p], &lats[p], &pushNanos[p])
		}(p)
	}
	wg.Wait()
	sp := tr.begin("engine.close", 0, 0)
	eng.Close() // waits for every shard to drain
	<-sink.done
	tr.end(sp, 1)
	r.measured = time.Since(start)

	r.heapMB = heapLive() - base
	st := eng.Stats()
	tot := st.Total()
	r.values = int64(seq.traffic()) * int64(seq.report)
	var pushNs int64
	for p := range lats {
		r.queryUs = append(r.queryUs, lats[p]...)
		r.failed += fails[p]
		pushNs += pushNanos[p]
	}
	r.failed += int64(tot.EvalsDropped + tot.FailedBatches)
	r.attempted = int64(seq.traffic()) + int64(len(r.queryUs))
	r.layer["engine.push_ns_per_report"] = float64(pushNs) / float64(seq.traffic())
	r.layer["engine.blocked_ms"] = float64(tot.Blocked) / 1e6
	r.layer["engine.queue_high_water"] = float64(tot.QueueHighWater)
	r.layer["engine.batches_enqueued"] = float64(tot.EnqueuedBatches)
	r.layer["engine.evals_dropped"] = float64(tot.EvalsDropped)
	r.layer["engine.shard_skew"] = st.Skew()
	r.layer["engine.query_us"] = percentile(r.queryUs, 0.5)
	r.layer["engine.query_p99_us"] = percentile(r.queryUs, 0.99)
	r.layer["stream.evals"] = float64(sink.count)
	r.layer["gen.query_samples"] = float64(len(r.queryUs))
	escalated := map[string]bool{}
	for _, ev := range eng.RouteEvents() {
		switch ev.Kind {
		case qlove.RouteEscalate:
			r.layer["engine.escalations"]++
			escalated[ev.Key] = true
		case qlove.RouteMigrate:
			r.layer["engine.route_moves"]++
		}
	}
	for _, s := range eng.AdaptSamples() {
		r.layer["engine.interval_skew_max"] = math.Max(r.layer["engine.interval_skew_max"], s.IntervalSkew)
	}
	if gates {
		mid, tail, errs := w.gates(eng, sink, escalated)
		r.gateErrs = errs
		r.layer["core.value_err_mid_pct"], r.layer["core.value_err_tail_pct"] = mid, tail
	}
	runtime.KeepAlive(eng)
	return r, nil
}

// gates checks the round's outputs against references, outside the clock.
func (w *engineWorkload) gates(eng *qlove.Engine, sink *resultSink, escalated map[string]bool) (mid, tail float64, errs []string) {
	seq := w.seq
	fail := func(format string, a ...any) { errs = append(errs, w.name+": "+fmt.Sprintf(format, a...)) }
	if !w.hot {
		// Evaluation count: what a Monitor per key would have emitted.
		counts := make([]int, len(seq.names))
		for _, k := range seq.keyIdx {
			counts[k] += seq.report
		}
		var want int64
		for _, n := range counts {
			if n >= w.spec.Size {
				want += int64((n-w.spec.Size)/w.spec.Period + 1)
			}
		}
		if sink.count != want {
			fail("engine emitted %d evaluations, per-key monitors emit %d", sink.count, want)
		}
		// Hottest key: bit-identical to a Monitor replay.
		ref, err := replayMonitor(operatorConfig(w.spec), seq.keyValues(0), seq.report)
		if err != nil {
			fail("reference monitor: %v", err)
		} else if sn, ok := eng.Query(seq.names[0]); !ok || !bitsEqual(sn.Estimates(), ref.Estimates()) {
			fail("hottest key diverged from the Monitor replay")
		}
		// Accuracy: every evaluation of the shadow keys against the exact
		// quantiles of the window it answered over.
		var mids, tails []float64
		for _, k := range w.shadow {
			vals := seq.keyValues(k)
			results := sink.shadow[seq.names[k]]
			var m, t stats.ErrorAccumulator
			stride := len(results)/2000 + 1 // bound the exact sorts per key
			for i := 0; i < len(results); i += stride {
				e := results[i]
				lo := e.Evaluation * w.spec.Period
				exact := stats.Quantiles(vals[lo:lo+w.spec.Size], phis)
				m.Observe(e.Estimates[0], exact[0], 0, 0, 0, false)
				t.Observe(e.Estimates[3], exact[3], 0, 0, 0, false)
			}
			if m.Evaluations() == 0 {
				fail("shadow key %s produced no evaluations", seq.names[k])
				continue
			}
			mids, tails = append(mids, m.AvgRelErrPct()), append(tails, t.AvgRelErrPct())
		}
		mid, tail = stats.Mean(mids), stats.Mean(tails)
		if mid > 5 || tail > 5 {
			fail("value error mid %.2f%% tail %.2f%% exceeds the paper's 5%%", mid, tail)
		}
		return mid, tail, errs
	}

	// engine-hotkey: keys the controller never escalated must be
	// bit-identical to a static engine fed the same sequence; escalated
	// keys (and the scheduled heads, whose reports two producers
	// interleave) answer from merged sub-streams and are held to the
	// value-error bound at the median instead.
	ref, err := qlove.NewEngine(w.engineConfig(shards, false))
	if err != nil {
		fail("static reference: %v", err)
		return 0, 0, errs
	}
	refSink := drainResults(ref, nil)
	for i := 0; i < seq.reports(); i++ {
		if err := ref.Push(seq.key(i), seq.vals(i)); err != nil {
			fail("static reference push: %v", err)
			break
		}
	}
	ref.Close()
	<-refSink.done
	var diverged int
	var mids, tails []float64
	for k, name := range seq.names {
		got, ok := eng.Query(name)
		if !ok {
			diverged++
			continue
		}
		if !escalated[name] && !w.heads[int32(k)] {
			if want, ok := ref.Query(name); !ok || !bitsEqual(got.Estimates(), want.Estimates()) {
				diverged++
			}
			continue
		}
		// The merged view covers the key's last Elements() values.
		vals := seq.keyValues(int32(k))
		if n := got.Elements(); n < len(vals) {
			vals = vals[len(vals)-n:]
		}
		exact := stats.Quantiles(vals, phis)
		est := got.Estimates()
		mids = append(mids, 100*stats.RelativeError(est[0], exact[0]))
		tails = append(tails, 100*stats.RelativeError(est[3], exact[3]))
	}
	if diverged > 0 {
		fail("%d never-escalated keys diverged from the static reference engine", diverged)
	}
	mid, tail = stats.Mean(mids), stats.Mean(tails)
	// Only the median is gated. A merged view of up to nine sub-streams
	// answers ϕ=0.999 from a different (longer, interleaved) population
	// than any one window, and its distance from the exact tail of the
	// key's last Elements() values is ~20-40% at the seed commit: reported
	// as core.value_err_tail_pct, not a pass/fail.
	if mid > 5 {
		fail("escalated keys: median value error %.2f%% exceeds 5%%", mid)
	}
	return mid, tail, errs
}

// replayMonitor feeds one key's stream, report by report, through a single
// Monitor and returns the operator's final capture.
func replayMonitor(cfg qlove.Config, vals []float64, report int) (qlove.Snapshot, error) {
	p, err := qlove.New(cfg)
	if err != nil {
		return qlove.Snapshot{}, err
	}
	m, err := qlove.NewMonitor(p, cfg.Spec)
	if err != nil {
		return qlove.Snapshot{}, err
	}
	for ; len(vals) >= report; vals = vals[report:] {
		m.PushBatch(vals[:report], nil)
	}
	return p.Snapshot(), nil
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
