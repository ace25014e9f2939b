package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/aggsrv"
)

// tierWorkload is tier-readwrite: the aggregation tier alone, writes
// beside reads. Set-up records the delta chains of tierWorkers logical
// workers; a round replays them in order through a Fanin (R=2, majority
// quorum) over two disk-backed replica servers on one pusher connection
// (closed loop), while one querier connection issues GET /query for Zipf
// keys back to back (closed loop too; run explains why). No Engine runs
// inside a round.
type tierWorkload struct {
	cfg    *config
	names  []string
	boot   [][]byte   // per worker: the bootstrap blob (every key once)
	chain  [][][]byte // per worker, per interval: the delta blob
	frames int        // wire frames in the timed chain
	reads  []int32
	round  int
}

const (
	tierWorkers    = 4
	tierIntervals  = 100 // per worker per round
	tierFlushEvery = 256 // reports per interval
	tierReport     = 16
	tierReopens    = 5
)

func (w *tierWorkload) generate(cfg *config) error {
	w.cfg = cfg
	spec := qlove.Window{Size: 64, Period: 16}
	intervals := scaled(tierIntervals, cfg.scale, 4)
	traffic := intervals * tierFlushEvery
	w.boot, w.chain = make([][]byte, tierWorkers), make([][][]byte, tierWorkers)
	frames := make([]int, tierWorkers)
	// Two recorders at a time: generation, like load, stays within nproc.
	errs := make(chan error, producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			var err error
			for i := p; i < tierWorkers && err == nil; i += producers {
				frames[i], err = w.record(i, spec, traffic)
			}
			errs <- err
		}(p)
	}
	for p := 0; p < producers; p++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	for _, n := range frames {
		w.frames += n
	}
	w.reads = zipfKeys(cfg.seed, cfg.keys, 1<<16) // the querier cycles through them
	return nil
}

// record runs logical worker i's engine over its own seeded stream and
// keeps the blob of every flush: the bootstrap after the enumeration pass,
// then one delta per tierFlushEvery reports. It returns the number of wire
// frames in the deltas.
func (w *tierWorkload) record(i int, spec qlove.Window, traffic int) (int, error) {
	seq, err := genSeq(w.cfg.seed*1000+int64(i), w.cfg.keys, traffic, tierReport, min(traffic, 50_000), nil)
	if err != nil {
		return 0, err
	}
	if i == 0 {
		w.names = seq.names
	}
	eng, err := qlove.NewEngine(pipelineEngineConfig(spec, shards))
	if err != nil {
		return 0, err
	}
	sink := drainResults(eng, nil)
	defer func() {
		eng.Close()
		<-sink.done
	}()
	var cur qlove.ExportCursor
	var chain [][]byte
	frames := 0
	for r := 0; r < seq.reports(); r++ {
		if err := eng.Push(seq.key(r), seq.vals(r)); err != nil {
			return 0, err
		}
		if r+1 == len(seq.names) || (r >= len(seq.names) && (r+1-len(seq.names))%tierFlushEvery == 0) {
			var buf bytes.Buffer
			if _, err := eng.ExportDelta(&buf, &cur); err != nil {
				return 0, err
			}
			if len(chain) > 0 {
				n, err := countFrames(buf.Bytes())
				if err != nil {
					return 0, err
				}
				frames += n
			}
			chain = append(chain, buf.Bytes())
		}
	}
	w.boot[i], w.chain[i] = chain[0], chain[1:]
	return frames, nil
}

// countingTransport counts the fan-in's requests to its replicas from the
// outside: /query attempts, and attempts of any kind that failed.
type countingTransport struct {
	inner   http.RoundTripper
	queries atomic.Int64
	failed  atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasPrefix(req.URL.Path, "/query") {
		c.queries.Add(1)
	}
	resp, err := c.inner.RoundTrip(req)
	if err != nil || resp.StatusCode >= 500 {
		c.failed.Add(1)
	}
	return resp, err
}

// tier is one round's system under test.
type tier struct {
	dirs     []string
	aggs     []*qlove.Aggregator
	replicas []*loopback
	fanin    *aggsrv.Fanin
	front    *loopback
	counts   *countingTransport
}

func (w *tierWorkload) open(instrument bool) (*tier, error) {
	w.round++
	t := &tier{counts: &countingTransport{inner: &http.Transport{MaxIdleConnsPerHost: 8}}}
	root := filepath.Join(w.cfg.tmpDir, fmt.Sprintf("tier-%d-%d", os.Getpid(), w.round))
	var urls []string
	for i := 0; i < 2; i++ {
		dir := filepath.Join(root, fmt.Sprintf("replica-%d", i))
		agg, err := openReplica(dir, instrument)
		if err != nil {
			t.close()
			return nil, err
		}
		t.dirs, t.aggs = append(t.dirs, dir), append(t.aggs, agg)
		srv, err := serveLoopback(aggsrv.New(agg).Handler())
		if err != nil {
			t.close()
			return nil, err
		}
		t.replicas = append(t.replicas, srv)
		urls = append(urls, srv.url)
	}
	fanin, err := aggsrv.NewFaninConfig(aggsrv.FaninConfig{
		Replicas:    urls,
		Replication: 2,
		Client:      &http.Client{Timeout: 10 * time.Second, Transport: t.counts},
	})
	if err != nil {
		t.close()
		return nil, err
	}
	t.fanin = fanin
	if t.front, err = serveLoopback(fanin.Handler()); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// openReplica opens (or recovers) one replica's store. The settings keep
// the sandbox's disk out of the timed region, so that the WAL's code is
// what is measured — record encoding, buffered appends, write calls,
// replay on reopen — and not the device. Fsync "always" syncs per record.
// "interval" syncs every 100 ms under the store's lock, so appends wait for
// the device, and ingest_mev_s fell from 2.1 to 1.6 within ten consecutive
// runs as writeback built up. At the default 8 MiB threshold snapshot
// compaction (a 16 MB write and two fsyncs under the same lock) was 40% of
// a round's wall time. So: no syncs, no auto-compaction; the ladder times
// one compaction on its own (aggstore.compact_ms).
func openReplica(dir string, instrument bool) (*qlove.Aggregator, error) {
	return qlove.NewAggregatorConfig(qlove.AggregatorConfig{
		Store: "disk", Dir: dir, Fsync: "none", CompactBytes: -1, Instrument: instrument,
	})
}

func (t *tier) close() {
	if t.front != nil {
		t.front.stop()
	}
	if t.fanin != nil {
		_ = t.fanin.Close()
	}
	for _, r := range t.replicas {
		r.stop()
	}
	for _, a := range t.aggs {
		_ = a.Close()
	}
	if len(t.dirs) > 0 {
		_ = os.RemoveAll(filepath.Dir(t.dirs[0]))
	}
}

func (w *tierWorkload) run(tr *tracer, gates bool) (*round, error) {
	t0 := time.Now()
	base := heapLive()
	t, err := w.open(tr != nil)
	if err != nil {
		return nil, err
	}
	defer t.close()
	pusher, querier := newConn(), newConn()
	defer pusher.close()
	defer querier.close()
	// Warm-up: every worker's bootstrap blob, which also opens the
	// connections and fills the fold cache's key set.
	bootFrames := 0
	for i, blob := range w.boot {
		n, err := pusher.push(t.front.url, workerID(i), blob)
		if err != nil {
			return nil, fmt.Errorf("bootstrap push: %w", err)
		}
		bootFrames += n
	}
	if _, err := querier.get(t.front.url + "/query?key=" + w.names[0]); err != nil {
		return nil, err
	}
	runtime.GC()
	r := &round{setup: time.Since(t0), layer: map[string]float64{}}
	boot := t.counts.queries.Load()

	// Querier: closed loop, back to back, on its one connection. An open
	// loop would be the better model of independent dashboards, but it is
	// not measurable from inside this process: with both processors busy a
	// Go timer fires ~1 ms late at the median and 25-30 ms late at p99 (see
	// README.md), which is several times the read it would be timing. So
	// the latency is the read path's service time under write load, and a
	// stall shows as one slow sample (aggsrv.query_max_ms), not as a queue.
	stop := make(chan struct{})
	queried := make(chan struct{})
	var queryFailed int64
	start := time.Now()
	go func() {
		defer close(queried)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sp := tr.begin("aggsrv.fanin_query", 0, 0)
			ts := time.Now()
			_, err := querier.get(t.front.url + "/query?key=" + w.names[w.reads[i%len(w.reads)]])
			r.queryUs = append(r.queryUs, float64(time.Since(ts).Nanoseconds())/1e3)
			tr.end(sp, 1)
			if err != nil {
				queryFailed++
			}
		}
	}()

	// Pusher: closed loop, the chains in interval order.
	var flushMs []float64
	var frames, shortfalls int64
	root := tr.begin("pusher", 0, 0)
	for i := range w.chain[0] {
		for wk := range w.chain {
			sp := tr.begin("aggsrv.fanin_push", root, i*len(w.chain)+wk+1)
			ts := time.Now()
			n, err := pusher.push(t.front.url, workerID(wk), w.chain[wk][i])
			flushMs = append(flushMs, float64(time.Since(ts).Nanoseconds())/1e6)
			tr.end(sp, n)
			if err != nil {
				shortfalls++
			}
			frames += int64(n)
		}
	}
	tr.end(root, len(flushMs))
	r.measured = time.Since(start)
	close(stop)
	<-queried

	r.heapMB = heapLive() - base
	r.values = int64(len(flushMs)) * tierFlushEvery * tierReport
	r.attempted = int64(len(flushMs) + len(r.queryUs))
	r.failed = shortfalls + queryFailed
	if frames != int64(w.frames) {
		r.failed++ // an ack that under-counts frames is a lost write
	}
	r.layer["aggsrv.flush_p50_ms"] = percentile(flushMs, 0.5)
	r.layer["aggsrv.flush_p99_ms"] = percentile(flushMs, 0.99)
	r.layer["aggsrv.fold_kframes_s"] = float64(frames) / r.measured.Seconds() / 1e3
	r.layer["aggsrv.quorum_shortfalls"] = float64(shortfalls)
	r.layer["aggsrv.replica_failures"] = float64(t.counts.failed.Load())
	r.layer["aggsrv.fanin_retries"] = float64(t.counts.queries.Load() - boot - int64(len(r.queryUs)))
	r.layer["wire.frames"] = float64(frames)
	r.layer["aggregator.keys"] = float64(t.aggs[0].Keys())
	r.layer["aggsrv.query_p99_us"] = percentile(r.queryUs, 0.99)
	r.layer["aggsrv.query_max_ms"] = percentile(r.queryUs, 1) / 1e3
	r.layer["gen.query_samples"] = float64(len(r.queryUs))
	r.layer["gen.flush_samples"] = float64(len(flushMs))
	m := t.aggs[0].Metrics()
	if fc := m.FoldCache; fc != nil && fc.Hits+fc.Misses > 0 {
		r.layer["aggregator.fold_cache_hit_ratio"] = float64(fc.Hits) / float64(fc.Hits+fc.Misses)
	}
	r.layer["aggstore.lock_wait_ms"] = float64(m.Store.LockWaitReadNanos+m.Store.LockWaitWriteNanos) / 1e6
	r.layer["aggstore.wal_bytes"] = walBytes(t.dirs[0])

	if gates {
		r.gateErrs = w.gates(t, pusher)
	}
	if !gates && tr == nil {
		return r, nil
	}
	// Recovery (per-layer, so only gated and traced rounds pay for it):
	// replica 0's directory back to a serving Aggregator. The router goes
	// first so its prober never sees a closed store.
	t.front.stop()
	_ = t.fanin.Close()
	t.front, t.fanin = nil, nil
	before, err := viewBytes(t.aggs[0])
	if err != nil {
		return nil, err
	}
	var recoverMs []float64
	for i := 0; i < tierReopens; i++ {
		if err := t.aggs[0].Close(); err != nil {
			return nil, err
		}
		ts := time.Now()
		agg, err := openReplica(t.dirs[0], false)
		if err != nil {
			return nil, fmt.Errorf("reopen replica 0: %w", err)
		}
		_, ok, err := agg.Query(w.names[0])
		recoverMs = append(recoverMs, float64(time.Since(ts).Nanoseconds())/1e6)
		t.aggs[0] = agg
		if after, verr := viewBytes(agg); gates && (err != nil || !ok || verr != nil || !bytes.Equal(before, after)) {
			r.gateErrs = append(r.gateErrs, fmt.Sprintf("tier-readwrite: reopening %d of replica 0 diverged from its pre-close view", i+1))
		}
	}
	r.layer["aggstore.recover_ms"] = median(recoverMs)
	r.layer["aggstore.recover_ns_per_frame"] = median(recoverMs) * 1e6 / float64(bootFrames+w.frames)
	return r, nil
}

// viewBytes is an aggregator's merged view in wire form.
func viewBytes(a *qlove.Aggregator) ([]byte, error) {
	snap, err := a.Snapshot()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	_, err = snap.WriteTo(&buf)
	return buf.Bytes(), err
}

// walBytes reads a disk store's directory from outside: the bytes in its
// live WAL segments.
func walBytes(dir string) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n float64
	for _, e := range entries {
		var seq int
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.log", &seq); err == nil {
			if info, err := e.Info(); err == nil {
				n += float64(info.Size())
			}
		}
	}
	return n
}

// gates: the fan-in's /snapshot against one in-memory Aggregator fed the
// same chains directly.
func (w *tierWorkload) gates(t *tier, c *conn) []string {
	ref := qlove.NewAggregator()
	for wk := range w.chain {
		for _, blob := range append([][]byte{w.boot[wk]}, w.chain[wk]...) {
			if _, err := ref.Apply(workerID(wk), bytes.NewReader(blob)); err != nil {
				return []string{fmt.Sprintf("tier-readwrite: reference fold: %v", err)}
			}
		}
	}
	want, err := ref.Snapshot()
	var doc snapshotDoc
	if err == nil {
		var body []byte
		if body, err = c.get(t.front.url + "/snapshot"); err == nil {
			err = json.Unmarshal(body, &doc)
		}
	}
	if err == nil {
		err = sameView(doc, want)
	}
	if err != nil {
		return []string{fmt.Sprintf("tier-readwrite: fan-in /snapshot vs single in-memory aggregator: %v", err)}
	}
	return nil
}
