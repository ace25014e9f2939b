package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/aggsrv"
	"repro/internal/aggstore"
	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/wire"
)

// The prefix ladder. A traced run drives the workload's own materialised
// inputs through successively longer prefixes of the pipeline, timing only
// calls into each layer's public functions from outside:
//
//	front (report sequences):  core policy per key → stream.Pusher →
//	    Engine 1 shard → 4 shards → 4 shards + Adapt → + ExportDelta
//	tail (the blobs the last front rung exported, or the recorded chains):
//	    wire decode / scan / encode → Aggregator.Apply striped → Apply disk
//	    → POST /push to one server → fan-in R=2
//
// A layer's self time is the marginal between adjacent rungs. Front rungs
// are whole-run wall times over a fixed prefix of the traffic; tail rungs
// are sums of the timed calls over the same blobs, with nothing else
// running, so they repeat far better than a wall-clock marginal would.

// ladderEngine is one engine's share of the front rungs' input.
type ladderEngine struct {
	seq   *reportSeq
	parts [][]int32 // traffic report indexes per producer
}

// workerBlob is one push in the tail rungs' input.
type workerBlob struct {
	worker string
	blob   []byte
}

const (
	ladderValues     = 3_200_000 // traffic values per front rung at scale 1
	ladderFlushEvery = 512       // reports between flushes in the export rung
	ladderProbes     = 2_000     // calls behind each per-call probe
)

// ladderFront runs the six front rungs and returns their metrics and the
// blobs the export rung shipped (bootstrap first, then deltas in flush
// order).
func ladderFront(cfg *config, spec qlove.Window, engines []ladderEngine, adaptHot bool) (m map[string]float64, boot, chain []workerBlob, err error) {
	m = map[string]float64{}
	// A fixed prefix of every producer's traffic — a quarter of a round,
	// at most ladderValues — bounds the ladder's time.
	var total int
	for _, e := range engines {
		total += e.seq.traffic() * e.seq.report
	}
	frac := min(0.25, float64(scaled(ladderValues, cfg.scale, 100_000))/float64(total))
	var values float64
	for i, e := range engines {
		parts := make([][]int32, len(e.parts))
		for p, part := range e.parts {
			parts[p] = part[:int(float64(len(part))*frac)]
			values += float64(len(parts[p]) * e.seq.report)
		}
		engines[i].parts = parts
	}
	if spec.Period != engines[0].seq.report {
		return nil, nil, nil, fmt.Errorf("ladder: report size %d must equal the window period %d", engines[0].seq.report, spec.Period)
	}

	// Rung 1: the bare operator, one per key, driven through the count
	// window protocol by hand (expire, observe, evaluate) on one goroutine.
	pols := make([][]*core.Policy, len(engines))
	seen := make([][]int, len(engines))
	drive := func(e int, i int) error {
		seq := engines[e].seq
		k := seq.keyIdx[i]
		p := pols[e][k]
		if p == nil {
			var err error
			if p, err = core.New(operatorConfig(spec)); err != nil {
				return err
			}
			pols[e][k] = p
		}
		if seen[e][k] >= spec.Size {
			p.Expire(nil)
		}
		p.ObserveBatch(seq.vals(i))
		if seen[e][k] += seq.report; seen[e][k] >= spec.Size {
			p.Result()
		}
		return nil
	}
	for e, eng := range engines {
		pols[e], seen[e] = make([]*core.Policy, len(eng.seq.names)), make([]int, len(eng.seq.names))
	}
	coreWall, err := serialPass(engines, drive)
	if err != nil {
		return nil, nil, nil, err
	}
	m["core.observe_ns_per_ev"] = float64(coreWall.Nanoseconds()) / values
	coreProbes(m, pols[0], engines[0].seq)
	pols, seen = nil, nil

	// Rung 2: the same operators behind stream.Pusher.
	pushers := make([][]*stream.Pusher, len(engines))
	push := func(e, i int) error {
		seq := engines[e].seq
		k := seq.keyIdx[i]
		if pushers[e][k] == nil {
			p, err := core.New(operatorConfig(spec))
			if err != nil {
				return err
			}
			if pushers[e][k], err = stream.NewPusher(p, spec); err != nil {
				return err
			}
		}
		pushers[e][k].PushBatch(seq.vals(i), nil)
		return nil
	}
	for e, eng := range engines {
		pushers[e] = make([]*stream.Pusher, len(eng.seq.names))
	}
	streamWall, err := serialPass(engines, push)
	if err != nil {
		return nil, nil, nil, err
	}
	m["stream.push_self_ns_per_ev"] = float64((streamWall - coreWall).Nanoseconds()) / values
	pushers = nil

	// Rungs 3–6: real engines, the workload's producer topology.
	rung := func(nShards int, adapt, export bool) (wall time.Duration, err error) {
		type live struct {
			eng     *qlove.Engine
			sink    *resultSink
			cur     qlove.ExportCursor
			flushed []workerBlob // written by the engine's producer 0 only
			export  time.Duration
			curKeys int
		}
		lives := make([]*live, len(engines))
		for e, le := range engines {
			ec := pipelineEngineConfig(spec, nShards)
			if adapt {
				ec.Adapt = &qlove.AdaptConfig{Interval: 100 * time.Millisecond}
			}
			eng, err := qlove.NewEngine(ec)
			if err != nil {
				return 0, err
			}
			l := &live{eng: eng, sink: drainResults(eng, nil)}
			lives[e] = l
			defer func() {
				l.eng.Close()
				<-l.sink.done
			}()
			for i := range le.seq.names {
				if err := eng.Push(le.seq.key(i), le.seq.vals(i)); err != nil {
					return 0, err
				}
			}
			if export {
				var buf bytes.Buffer
				if _, err := eng.ExportDelta(&buf, &l.cur); err != nil {
					return 0, err
				}
				boot = append(boot, workerBlob{workerID(e), buf.Bytes()})
			}
			eng.Keys()
		}
		var wg sync.WaitGroup
		errs := make(chan error, len(engines)*producers)
		runtime.GC()
		start := time.Now()
		for e, le := range engines {
			for p, part := range le.parts {
				wg.Add(1)
				go func(e, p int, seq *reportSeq, part []int32) {
					defer wg.Done()
					l := lives[e]
					for n, i := range part {
						if err := l.eng.Push(seq.key(int(i)), seq.vals(int(i))); err != nil {
							errs <- err
							return
						}
						// One producer per engine owns the cursor.
						if export && p == 0 && (n+1)%ladderFlushEvery == 0 {
							var buf bytes.Buffer
							t := time.Now()
							if _, err := l.eng.ExportDelta(&buf, &l.cur); err != nil {
								errs <- err
								return
							}
							l.export += time.Since(t)
							l.curKeys += l.cur.Keys()
							l.flushed = append(l.flushed, workerBlob{workerID(e), buf.Bytes()})
						}
					}
				}(e, p, le.seq, part)
			}
		}
		wg.Wait()
		for _, l := range lives {
			l.eng.Keys() // every delivery lands inside the rung's clock
		}
		wall = time.Since(start)
		select {
		case err := <-errs:
			return 0, err
		default:
		}
		if export {
			var exported time.Duration
			var flushes, curKeys int
			for _, l := range lives {
				exported, flushes, curKeys = exported+l.export, flushes+len(l.flushed), curKeys+l.curKeys
			}
			if flushes > 0 {
				m["engine.export_delta_ms"] = float64(exported.Nanoseconds()) / 1e6 / float64(flushes)
				m["engine.export_keys_scanned_per_flush"] = float64(curKeys) / float64(flushes)
			}
			// The tail applies the engines' flushes interleaved, flush by
			// flush, as concurrent workers' pushes reach a tier.
			for i := 0; len(chain) < flushes; i++ {
				for _, l := range lives {
					if i < len(l.flushed) {
						chain = append(chain, l.flushed[i])
					}
				}
			}
			// engine.query_us on the idle engine: the cost of the call
			// itself (rounds of the engine workloads report it under load).
			names := engines[0].seq.names
			t := time.Now()
			for i := 0; i < ladderProbes; i++ {
				lives[0].eng.Query(names[i%len(names)])
			}
			m["engine.query_us"] = float64(time.Since(t).Nanoseconds()) / 1e3 / ladderProbes
		}
		return wall, nil
	}
	one, err := rung(1, false, false)
	if err != nil {
		return nil, nil, nil, err
	}
	four, err := rung(shards, false, false)
	if err != nil {
		return nil, nil, nil, err
	}
	adapt, err := rung(shards, true, false)
	if err != nil {
		return nil, nil, nil, err
	}
	exp, err := rung(shards, adaptHot, true)
	if err != nil {
		return nil, nil, nil, err
	}
	m["engine.push_self_ns_per_ev"] = float64((one - streamWall).Nanoseconds()) / values
	m["engine.shard4_self_ns_per_ev"] = float64((four - one).Nanoseconds()) / values
	m["engine.adapt_tax_pct"] = 100 * float64(adapt-four) / float64(four)
	m["ladder.front_values"] = values
	m["ladder.core_s"], m["ladder.stream_s"], m["ladder.engine1_s"] = coreWall.Seconds(), streamWall.Seconds(), one.Seconds()
	m["ladder.engine4_s"], m["ladder.adapt_s"], m["ladder.export_s"] = four.Seconds(), adapt.Seconds(), exp.Seconds()
	return m, boot, chain, nil
}

// serialPass feeds every engine's warm-up and then, timed, its traffic
// prefix to one per-report function on the calling goroutine.
func serialPass(engines []ladderEngine, report func(e, i int) error) (time.Duration, error) {
	for e, eng := range engines {
		for i := range eng.seq.names {
			if err := report(e, i); err != nil {
				return 0, err
			}
		}
	}
	runtime.GC() // every rung starts from a collected heap: the last rung's garbage is not this rung's cost
	start := time.Now()
	for e, eng := range engines {
		for _, part := range eng.parts {
			for _, i := range part {
				if err := report(e, int(i)); err != nil {
					return 0, err
				}
			}
		}
	}
	return time.Since(start), nil
}

// coreProbes times single calls into the operator on the populated
// policies of the first rung.
func coreProbes(m map[string]float64, pols []*core.Policy, seq *reportSeq) {
	var live []*core.Policy
	var space int
	for _, p := range pols {
		if p != nil {
			live = append(live, p)
			space += p.SpaceUsage()
		}
	}
	m["core.space_per_key"] = float64(space) / float64(len(live))
	n := min(ladderProbes, len(live))
	snaps := make([]core.Snapshot, n)
	t := time.Now()
	for i := 0; i < n; i++ {
		snaps[i] = live[i].Snapshot()
	}
	m["core.snapshot_ns"] = float64(time.Since(t).Nanoseconds()) / float64(n)
	t = time.Now()
	for i := 1; i < n; i++ {
		if _, err := snaps[i-1].Merge(snaps[i]); err != nil {
			return
		}
	}
	m["core.merge_ns"] = float64(time.Since(t).Nanoseconds()) / float64(n-1)
	// Seal: a sub-window one value short of full, force-sealed.
	var seal time.Duration
	for i := 0; i < n; i++ {
		vs := seq.vals(i)
		live[i].ObserveBatch(vs[:len(vs)-1])
		t := time.Now()
		live[i].EndPeriod()
		seal += time.Since(t)
	}
	m["core.seal_ns"] = float64(seal.Nanoseconds()) / float64(n)
}

// ladderTail runs the tail rungs over boot (applied untimed, as set-up of
// every rung) and chain (timed).
func ladderTail(cfg *config, names []string, reads []int32, boot, chain []workerBlob) (map[string]float64, error) {
	m := map[string]float64{}
	blobs := float64(len(chain))
	if blobs == 0 {
		return m, nil
	}
	// wire: decode, scan, re-encode.
	var frames []wire.Frame
	var bytesTotal int
	t := time.Now()
	for _, wb := range chain {
		d := wire.NewDecoder(bytes.NewReader(wb.blob))
		for {
			f, err := d.DecodeFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("decode: %w", err)
			}
			frames = append(frames, f)
		}
		bytesTotal += len(wb.blob)
	}
	decode := time.Since(t)
	nf := float64(len(frames))
	t = time.Now()
	for _, wb := range chain {
		if _, err := countFrames(wb.blob); err != nil {
			return nil, err
		}
	}
	scan := time.Since(t)
	var out bytes.Buffer
	enc := wire.NewEncoder(&out)
	t = time.Now()
	for _, f := range frames {
		var err error
		switch f.Kind {
		case wire.KindFull:
			_, err = enc.Encode(f.Key, f.Snap)
		case wire.KindDelta:
			_, err = enc.EncodeDelta(f.Key, f.Delta)
		case wire.KindTombstone:
			_, err = enc.EncodeTombstone(f.Key)
		}
		if err != nil {
			return nil, fmt.Errorf("re-encode: %w", err)
		}
	}
	encode := time.Since(t)
	frames = nil
	m["wire.frames"] = nf
	m["wire.bytes_per_frame"] = float64(bytesTotal) / nf
	m["wire.decode_ns_per_frame"] = float64(decode.Nanoseconds()) / nf
	m["wire.scan_ns_per_frame"] = float64(scan.Nanoseconds()) / nf
	m["wire.encode_ns_per_frame"] = float64(encode.Nanoseconds()) / nf

	// Aggregator.Apply, striped then disk.
	apply := func(agg *qlove.Aggregator) (time.Duration, error) {
		for _, wb := range boot {
			if _, err := agg.Apply(wb.worker, bytes.NewReader(wb.blob)); err != nil {
				return 0, err
			}
		}
		runtime.GC()
		t := time.Now()
		for _, wb := range chain {
			if _, err := agg.Apply(wb.worker, bytes.NewReader(wb.blob)); err != nil {
				return 0, err
			}
		}
		return time.Since(t), nil
	}
	striped, err := qlove.NewAggregatorConfig(qlove.AggregatorConfig{Store: "striped"})
	if err != nil {
		return nil, err
	}
	applyStriped, err := apply(striped)
	if err != nil {
		return nil, fmt.Errorf("apply striped: %w", err)
	}
	m["aggregator.apply_us_per_blob"] = float64(applyStriped.Nanoseconds()) / 1e3 / blobs
	m["aggregator.fold_self_ns_per_frame"] = float64((applyStriped - decode).Nanoseconds()) / nf
	m["aggregator.keys"] = float64(striped.Keys())
	t = time.Now()
	for i := 0; i < ladderProbes; i++ {
		if _, _, err := striped.Query(names[reads[i%len(reads)]]); err != nil {
			return nil, err
		}
	}
	directQuery := time.Since(t)
	m["aggregator.query_us"] = float64(directQuery.Nanoseconds()) / 1e3 / ladderProbes
	if fc := striped.Metrics().FoldCache; fc != nil && fc.Hits+fc.Misses > 0 {
		m["aggregator.fold_cache_hit_ratio"] = float64(fc.Hits) / float64(fc.Hits+fc.Misses)
	}
	t = time.Now()
	if _, err := striped.Snapshot(); err != nil {
		return nil, err
	}
	m["aggregator.snapshot_ms"] = float64(time.Since(t).Nanoseconds()) / 1e6
	striped = nil

	root := filepath.Join(cfg.tmpDir, fmt.Sprintf("ladder-%d", os.Getpid()))
	defer os.RemoveAll(root)
	disk, err := openReplica(filepath.Join(root, "apply"), true)
	if err != nil {
		return nil, err
	}
	applyDisk, err := apply(disk)
	if err != nil {
		return nil, fmt.Errorf("apply disk: %w", err)
	}
	m["aggstore.wal_self_ns_per_frame"] = float64((applyDisk - applyStriped).Nanoseconds()) / nf
	sm := disk.Metrics().Store
	m["aggstore.lock_wait_ms"] = float64(sm.LockWaitReadNanos+sm.LockWaitWriteNanos) / 1e6
	if err := disk.Close(); err != nil {
		return nil, err
	}
	m["aggstore.wal_bytes"] = walBytes(filepath.Join(root, "apply"))
	// One snapshot compaction of that WAL, timed on the store itself.
	store, err := aggstore.OpenDisk(aggstore.DiskConfig{Dir: filepath.Join(root, "apply"), Fsync: aggstore.FsyncInterval, CompactBytes: -1})
	if err != nil {
		return nil, fmt.Errorf("open for compaction: %w", err)
	}
	t = time.Now()
	err = store.Compact()
	m["aggstore.compact_ms"] = float64(time.Since(t).Nanoseconds()) / 1e6
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("compact: %w", err)
	}
	t = time.Now()
	reopened, err := openReplica(filepath.Join(root, "apply"), false)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	recoverT := time.Since(t)
	_ = reopened.Close()
	var stored float64
	for _, wb := range boot {
		n, _ := countFrames(wb.blob)
		stored += float64(n)
	}
	m["aggstore.recover_ms"] = float64(recoverT.Nanoseconds()) / 1e6
	m["aggstore.recover_ns_per_frame"] = float64(recoverT.Nanoseconds()) / (stored + nf)

	// POST /push to one server, then the fan-in over two. Both ride the
	// striped store, so each marginal isolates the transport: the WAL's
	// cost (and its compaction pauses) is the apply-disk rung's alone.
	serve := func() (*loopback, error) {
		agg, err := qlove.NewAggregatorConfig(qlove.AggregatorConfig{Store: "striped"})
		if err != nil {
			return nil, err
		}
		return serveLoopback(aggsrv.New(agg).Handler())
	}
	replay := func(base string) (push, query time.Duration, err error) {
		c := newConn()
		defer c.close()
		for _, wb := range boot {
			if _, err := c.push(base, wb.worker, wb.blob); err != nil {
				return 0, 0, err
			}
		}
		runtime.GC()
		t := time.Now()
		for _, wb := range chain {
			if _, err := c.push(base, wb.worker, wb.blob); err != nil {
				return 0, 0, err
			}
		}
		push = time.Since(t)
		t = time.Now()
		for i := 0; i < ladderProbes; i++ {
			if _, err := c.get(base + "/query?key=" + names[reads[i%len(reads)]]); err != nil {
				return 0, 0, err
			}
		}
		return push, time.Since(t), nil
	}
	srv, err := serve()
	if err != nil {
		return nil, err
	}
	post, httpQuery, err := replay(srv.url)
	srv.stop()
	if err != nil {
		return nil, fmt.Errorf("POST /push: %w", err)
	}
	m["aggsrv.push_http_self_us"] = float64((post - applyStriped).Nanoseconds()) / 1e3 / blobs
	m["aggsrv.query_http_self_us"] = float64((httpQuery - directQuery).Nanoseconds()) / 1e3 / ladderProbes

	var urls []string
	for i := 0; i < 2; i++ {
		srv, err := serve()
		if err != nil {
			return nil, err
		}
		defer srv.stop()
		urls = append(urls, srv.url)
	}
	fanin, err := aggsrv.NewFaninConfig(aggsrv.FaninConfig{
		Replicas: urls, Replication: 2,
		Client: &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
	})
	if err != nil {
		return nil, err
	}
	defer fanin.Close()
	front, err := serveLoopback(fanin.Handler())
	if err != nil {
		return nil, err
	}
	defer front.stop()
	fan, fanQuery, err := replay(front.url)
	if err != nil {
		return nil, fmt.Errorf("fan-in: %w", err)
	}
	m["aggsrv.fanin_push_self_us"] = float64((fan - post).Nanoseconds()) / 1e3 / blobs
	m["aggsrv.fanin_query_self_us"] = float64((fanQuery - httpQuery).Nanoseconds()) / 1e3 / ladderProbes
	m["ladder.post_us_per_blob"] = float64(post.Nanoseconds()) / 1e3 / blobs
	m["ladder.fanin_us_per_blob"] = float64(fan.Nanoseconds()) / 1e3 / blobs
	m["ladder.wal_us_per_blob"] = float64((applyDisk - applyStriped).Nanoseconds()) / 1e3 / blobs
	m["ladder.blobs"] = blobs
	return m, nil
}

// countFrames walks a blob with the raw scanner.
func countFrames(blob []byte) (int, error) {
	sc := wire.NewRawScanner(bytes.NewReader(blob))
	n := 0
	for {
		if _, _, _, err := sc.Next(); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, err
		}
		n++
	}
}

// ladder methods: each workload hands the ladder its own inputs and states
// which rungs add up to its configuration (ladder.predicted_mev_s).

func (w *engineWorkload) ladder() (map[string]float64, error) {
	m, boot, chain, err := ladderFront(w.cfg, w.spec, []ladderEngine{{w.seq, w.parts}}, w.hot)
	if err != nil {
		return nil, err
	}
	tail, err := ladderTail(w.cfg, w.seq.names, w.reads, boot, chain)
	if err != nil {
		return nil, err
	}
	for k, v := range tail {
		m[k] = v
	}
	exportSelf(m)
	// The workload is the 4-shard rung (plus Adapt for engine-hotkey).
	m["ladder.predicted_mev_s"] = m["ladder.front_values"] / m["ladder.engine4_s"] / 1e6
	if w.hot {
		m["ladder.predicted_mev_s"] = m["ladder.front_values"] / m["ladder.adapt_s"] / 1e6
	}
	return m, nil
}

func (w *pipelineWorkload) ladder() (map[string]float64, error) {
	engines := make([]ladderEngine, len(w.seqs))
	for i, seq := range w.seqs {
		all := make([]int32, seq.traffic())
		for j := range all {
			all[j] = int32(len(seq.names) + j)
		}
		engines[i] = ladderEngine{seq, [][]int32{all}}
	}
	m, boot, chain, err := ladderFront(w.cfg, w.spec, engines, false)
	if err != nil {
		return nil, err
	}
	tail, err := ladderTail(w.cfg, w.seqs[0].names, w.reads[0], boot, chain)
	if err != nil {
		return nil, err
	}
	for k, v := range tail {
		m[k] = v
	}
	exportSelf(m)
	// The workload is the export rung plus, per blob, a POST to a striped
	// server; the two workers' server work overlaps on the two processors.
	server := m["ladder.blobs"] * m["ladder.post_us_per_blob"] / 1e6 / pipeWorkers
	m["ladder.predicted_mev_s"] = m["ladder.front_values"] / (m["ladder.export_s"] + server) / 1e6
	return m, nil
}

func (w *tierWorkload) ladder() (map[string]float64, error) {
	var boot, chain []workerBlob
	for wk, blob := range w.boot {
		boot = append(boot, workerBlob{workerID(wk), blob})
	}
	for i := range w.chain[0] {
		for wk := range w.chain {
			chain = append(chain, workerBlob{workerID(wk), w.chain[wk][i]})
		}
	}
	m, err := ladderTail(w.cfg, w.names, w.reads, boot, chain)
	if err != nil {
		return nil, err
	}
	// The workload is the fan-in rung plus the WAL marginal, one
	// closed-loop pusher; what the prediction leaves out is the querier.
	m["ladder.predicted_mev_s"] = tierFlushEvery * tierReport / (m["ladder.fanin_us_per_blob"] + m["ladder.wal_us_per_blob"])
	return m, nil
}

// exportSelf is ExportDelta less the re-encoding of the frames it shipped.
func exportSelf(m map[string]float64) {
	if flushes := m["ladder.blobs"]; flushes > 0 {
		m["engine.export_self_ms"] = m["engine.export_delta_ms"] - m["wire.encode_ns_per_frame"]*m["wire.frames"]/flushes/1e6
	}
}
