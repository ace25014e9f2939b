package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/aggsrv"
	"repro/internal/stats"
)

// pipelineWorkload is pipeline-delta: the distributed path in one process.
// Two worker goroutines, each with its own Engine over the same key
// universe (so the tier really merges two streams per key); every
// flushEvery reports a worker ships ExportDelta as one keep-alive
// POST /push over a loopback socket to an in-process aggsrv.Server on the
// striped store, waits for the ack (closed loop: one worker's pushes must
// be serialised), then reads readsPerFlush keys back with GET /query — the
// alert evaluation that follows a flush.
type pipelineWorkload struct {
	cfg    *config
	spec   qlove.Window
	seqs   []*reportSeq
	reads  [][]int32
	shadow []int32
}

const (
	pipeWorkers     = 2
	pipeTraffic     = 50_000 // 16-value reports per worker per round (0.8 M values)
	pipeRing        = 50_000
	pipeFlushEvery  = 512
	pipeReadsPerFlu = 8
)

func workerID(i int) string { return fmt.Sprintf("worker-%03d", i) }

func (w *pipelineWorkload) generate(cfg *config) error {
	w.cfg = cfg
	w.spec = qlove.Window{Size: 64, Period: 16}
	traffic := scaled(pipeTraffic, cfg.scale, 4*pipeFlushEvery)
	for i := 0; i < pipeWorkers; i++ {
		seq, err := genSeq(cfg.seed*1000+int64(i), cfg.keys, traffic, 16, scaled(pipeRing, cfg.scale, 2_000), nil)
		if err != nil {
			return err
		}
		w.seqs = append(w.seqs, seq)
		w.reads = append(w.reads, zipfKeys(cfg.seed*1000+int64(i), cfg.keys, (traffic/pipeFlushEvery+2)*pipeReadsPerFlu))
	}
	w.shadow = w.seqs[0].shadowKeys(cfg.seed, w.spec.Size/16+4)
	return nil
}

func pipelineEngineConfig(spec qlove.Window, nShards int) qlove.EngineConfig {
	return qlove.EngineConfig{
		Config:       operatorConfig(spec),
		Shards:       nShards,
		QueueDepth:   queueDepth,
		ResultBuffer: 1 << 14,
		Backpressure: qlove.BackpressureBlock,
	}
}

// loopback serves a handler on an ephemeral loopback port; stop closes it
// and waits for the serve loop to return.
type loopback struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns ErrServerClosed on stop
	}()
	return l, nil
}

func (l *loopback) stop() {
	_ = l.srv.Close()
	<-l.done
}

// conn is one keep-alive HTTP connection: a client that never opens a
// second socket, so "connections <= nproc" is a property of the code.
type conn struct {
	c *http.Client
}

func newConn() *conn {
	return &conn{&http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// push POSTs one blob and returns the acknowledged frame count.
func (c *conn) push(base, worker string, blob []byte) (int, error) {
	resp, err := c.c.Post(base+"/push?worker="+url.QueryEscape(worker), "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("push: %s: %.200s", resp.Status, body)
	}
	var ack aggsrv.PushResult
	if err := json.Unmarshal(body, &ack); err != nil {
		return 0, err
	}
	return ack.Frames, nil
}

// get fetches a path and returns the body; a non-200 is an error.
func (c *conn) get(url string) ([]byte, error) {
	resp, err := c.c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

func (c *conn) query(base, key string) (aggsrv.KeyReport, error) {
	var rep aggsrv.KeyReport
	body, err := c.get(base + "/query?key=" + url.QueryEscape(key))
	if err != nil {
		return rep, err
	}
	return rep, json.Unmarshal(body, &rep)
}

// pipeWorker is one worker's state and what it measured.
type pipeWorker struct {
	id      string
	seq     *reportSeq
	eng     *qlove.Engine
	sink    *resultSink
	cur     qlove.ExportCursor
	conn    *conn
	buf     bytes.Buffer
	flushMs []float64
	queryUs []float64
	exports time.Duration
	bytes   int64
	frames  int64
	flushes int
	failed  int64
}

// flush ships one delta: ExportDelta, POST, ack.
func (p *pipeWorker) flush(base string, tr *tracer, root int, record bool) {
	p.flushes++
	sp := tr.begin("flush", root, p.flushes)
	t := time.Now()
	p.buf.Reset()
	ex := tr.begin("engine.export_delta", sp, p.flushes)
	_, err := p.eng.ExportDelta(&p.buf, &p.cur)
	tr.end(ex, 1)
	exported := time.Since(t)
	frames := 0
	if err == nil {
		po := tr.begin("aggsrv.push", sp, p.flushes)
		frames, err = p.conn.push(base, p.id, p.buf.Bytes())
		tr.end(po, frames)
	}
	tr.end(sp, 1)
	if err != nil {
		p.failed++
		p.cur.Reset() // the cursor advanced past a blob that never arrived
		return
	}
	if record {
		p.flushMs = append(p.flushMs, float64(time.Since(t).Nanoseconds())/1e6)
		p.exports += exported
		p.bytes += int64(p.buf.Len())
		p.frames += int64(frames)
	}
}

func (w *pipelineWorkload) run(tr *tracer, gates bool) (*round, error) {
	t0 := time.Now()
	base := heapLive()
	agg, err := qlove.NewAggregatorConfig(qlove.AggregatorConfig{Store: "striped"})
	if err != nil {
		return nil, err
	}
	srv, err := serveLoopback(aggsrv.New(agg).Handler())
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	workers := make([]*pipeWorker, pipeWorkers)
	for i := range workers {
		eng, err := qlove.NewEngine(pipelineEngineConfig(w.spec, shards))
		if err != nil {
			return nil, err
		}
		p := &pipeWorker{id: workerID(i), seq: w.seqs[i], eng: eng, sink: drainResults(eng, nil), conn: newConn()}
		defer p.conn.close()
		workers[i] = p
		// Warm-up: the enumeration pass and the bootstrap flush that
		// ships every key once; the timed region is steady-state deltas.
		for r := 0; r < len(p.seq.names); r++ {
			if err := eng.Push(p.seq.key(r), p.seq.vals(r)); err != nil {
				return nil, err
			}
		}
		p.flush(srv.url, nil, 0, false)
		if p.failed > 0 {
			return nil, fmt.Errorf("bootstrap flush of %s failed", p.id)
		}
	}
	runtime.GC()
	r := &round{setup: time.Since(t0), layer: map[string]float64{}}

	var wg sync.WaitGroup
	start := time.Now()
	for i, p := range workers {
		wg.Add(1)
		go func(p *pipeWorker, reads []int32) {
			defer wg.Done()
			root := tr.begin("worker", 0, 0)
			seq := p.seq
			first, n := len(seq.names), seq.reports()
			for lo := first; lo < n; lo += pipeFlushEvery {
				hi := min(lo+pipeFlushEvery, n)
				sp := tr.begin("engine.push", root, 0)
				for i := lo; i < hi; i++ {
					if err := p.eng.Push(seq.key(i), seq.vals(i)); err != nil {
						p.failed++
					}
				}
				tr.end(sp, hi-lo)
				if hi == n {
					// The last delta rides the closed-engine path, as
					// a worker shutting down would send it.
					p.eng.Close()
					<-p.sink.done
				}
				p.flush(srv.url, tr, root, true)
				for q := 0; q < pipeReadsPerFlu; q++ {
					key := seq.names[reads[0]]
					reads = reads[1:]
					sp := tr.begin("aggsrv.query", root, 0)
					t := time.Now()
					_, err := p.conn.get(srv.url + "/query?key=" + key)
					p.queryUs = append(p.queryUs, float64(time.Since(t).Nanoseconds())/1e3)
					tr.end(sp, 1)
					if err != nil {
						p.failed++
					}
				}
			}
			tr.end(root, n-first)
		}(p, w.reads[i])
	}
	wg.Wait()
	r.measured = time.Since(start)
	r.heapMB = heapLive() - base

	var flushMs []float64
	var bytes, frames int64
	var exports time.Duration
	var blocked time.Duration
	for _, p := range workers {
		r.values += int64(p.seq.traffic()) * int64(p.seq.report)
		r.queryUs = append(r.queryUs, p.queryUs...)
		flushMs = append(flushMs, p.flushMs...)
		r.failed += p.failed
		r.attempted += int64(p.seq.traffic())
		bytes, frames, exports = bytes+p.bytes, frames+p.frames, exports+p.exports
		tot := p.eng.Stats().Total()
		r.failed += int64(tot.EvalsDropped + tot.FailedBatches)
		blocked += tot.Blocked
		r.layer["engine.batches_enqueued"] += float64(tot.EnqueuedBatches)
		r.layer["engine.evals_dropped"] += float64(tot.EvalsDropped)
		r.layer["engine.queue_high_water"] = max(r.layer["engine.queue_high_water"], float64(tot.QueueHighWater))
		r.layer["engine.shard_skew"] = max(r.layer["engine.shard_skew"], p.eng.Stats().Skew())
		r.layer["engine.export_keys_scanned_per_flush"] += float64(p.cur.Keys()) / pipeWorkers
		r.layer["stream.evals"] += float64(p.sink.count)
	}
	r.attempted += int64(len(flushMs) + len(r.queryUs))
	r.layer["engine.blocked_ms"] = float64(blocked) / 1e6
	r.layer["engine.export_delta_ms"] = float64(exports) / 1e6 / float64(len(flushMs))
	r.layer["aggsrv.flush_p50_ms"] = percentile(flushMs, 0.5)
	r.layer["aggsrv.flush_p99_ms"] = percentile(flushMs, 0.99)
	r.layer["aggsrv.fold_kframes_s"] = float64(frames) / r.measured.Seconds() / 1e3
	r.layer["wire.frames"] = float64(frames)
	r.layer["wire.bytes_per_frame"] = float64(bytes) / float64(frames)
	r.layer["wire.shipped_kb_per_mev"] = float64(bytes) / 1024 / (float64(r.values) / 1e6)
	r.layer["aggregator.keys"] = float64(agg.Keys())
	if fc := agg.Metrics().FoldCache; fc != nil && fc.Hits+fc.Misses > 0 {
		r.layer["aggregator.fold_cache_hit_ratio"] = float64(fc.Hits) / float64(fc.Hits+fc.Misses)
	}
	r.layer["aggsrv.query_p99_us"] = percentile(r.queryUs, 0.99)
	r.layer["gen.flush_samples"] = float64(len(flushMs))
	r.layer["gen.query_samples"] = float64(len(r.queryUs))
	if gates {
		mid, tail, errs := w.gates(srv.url, workers)
		r.gateErrs = errs
		r.layer["core.value_err_mid_pct"], r.layer["core.value_err_tail_pct"] = mid, tail
	}
	runtime.KeepAlive(agg)
	return r, nil
}

// snapshotDoc is the /snapshot document.
type snapshotDoc struct {
	Keys []aggsrv.KeyReport `json:"keys"`
}

// sameView reports whether a served /snapshot answers, key for key and bit
// for bit, what an in-process merged view answers.
func sameView(doc snapshotDoc, want qlove.EngineSnapshot) error {
	if len(doc.Keys) != want.Len() {
		return fmt.Errorf("served view has %d keys, reference has %d", len(doc.Keys), want.Len())
	}
	for _, rep := range doc.Keys {
		sn, ok := want.Get(rep.Key)
		if !ok {
			return fmt.Errorf("served key %q missing from the reference", rep.Key)
		}
		if rep.Streams != sn.Streams() || rep.Elements != sn.Elements() || !bitsEqual(rep.Estimates, sn.Estimates()) {
			return fmt.Errorf("key %q diverged from the reference", rep.Key)
		}
	}
	return nil
}

func (w *pipelineWorkload) gates(base string, workers []*pipeWorker) (mid, tail float64, errs []string) {
	fail := func(format string, a ...any) { errs = append(errs, "pipeline-delta: "+fmt.Sprintf(format, a...)) }
	c := newConn()
	defer c.close()
	// The tier's folded deltas against the batch fold of the workers'
	// full exports.
	ref := qlove.NewAggregator()
	for _, p := range workers {
		var blob bytes.Buffer
		if _, err := p.eng.Export(&blob); err != nil {
			fail("full export of %s: %v", p.id, err)
			return 0, 0, errs
		}
		if _, err := ref.Apply(p.id, &blob); err != nil {
			fail("batch fold of %s: %v", p.id, err)
			return 0, 0, errs
		}
	}
	want, err := ref.Snapshot()
	if err != nil {
		fail("reference snapshot: %v", err)
		return 0, 0, errs
	}
	body, err := c.get(base + "/snapshot")
	var doc snapshotDoc
	if err == nil {
		err = json.Unmarshal(body, &doc)
	}
	if err == nil {
		err = sameView(doc, want)
	}
	if err != nil {
		fail("tier /snapshot vs batch fold of full exports: %v", err)
	}
	// Accuracy at the tier: each shadow key's served estimates against
	// the exact quantiles of the union of the workers' last windows.
	var mids, tails []float64
	for _, k := range w.shadow {
		var union []float64
		for _, p := range workers {
			vals := p.seq.keyValues(k)
			if len(vals) > w.spec.Size {
				vals = vals[len(vals)-w.spec.Size:]
			}
			union = append(union, vals...)
		}
		rep, err := c.query(base, w.seqs[0].names[k])
		if err != nil || rep.Elements != len(union) {
			fail("shadow key %s: query err=%v elements=%d want %d", w.seqs[0].names[k], err, rep.Elements, len(union))
			continue
		}
		exact := stats.Quantiles(union, phis)
		mids = append(mids, 100*stats.RelativeError(rep.Estimates[0], exact[0]))
		tails = append(tails, 100*stats.RelativeError(rep.Estimates[3], exact[3]))
	}
	mid, tail = stats.Mean(mids), stats.Mean(tails)
	if mid > 5 || tail > 5 {
		fail("value error mid %.2f%% tail %.2f%% exceeds the paper's 5%%", mid, tail)
	}
	return mid, tail, errs
}
