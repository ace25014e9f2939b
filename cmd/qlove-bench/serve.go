package main

// The serve scenario is the distributed plane run as a LONG-RUNNING
// SERVICE: the K worker processes each push delta exports
// (Engine.ExportDelta) to an HTTP aggregation service on an interval while
// still ingesting, and the parent verifies the service's merged view three
// ways once the workers drain:
//
//   - service vs batch: every key the service answers must match — bit for
//     bit — the batch-mode fold of the workers' final FULL export blobs
//     (the same captures, shipped whole), proving the cursor-folded
//     resident state IS the full-export state;
//   - hot-key identity and cross-worker merge identity against
//     never-serialized references, exactly as in the batch scenario;
//   - bandwidth: the per-interval delta bytes against what a full export
//     at each interval WOULD have cost — the ~N/P steady-state cut delta
//     exports exist for. The last interval must be strictly cheaper.
//
// The service is hosted in-process by default (the workers still push over
// real HTTP across process boundaries); -agg points at an external
// `qlove-agg -serve` instance instead, which is how CI smokes the real
// binary.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro"
	"repro/internal/aggsrv"
)

// serveStats is the serve scenario's half of the perf record.
type serveStats struct {
	Intervals         int   `json:"intervals"`
	DeltaBytesTotal   int64 `json:"delta_bytes_total"`
	FullBytesTotal    int64 `json:"full_bytes_total"`
	DeltaBytesLast    int64 `json:"delta_bytes_last_interval"`
	FullBytesLast     int64 `json:"full_bytes_last_interval"`
	ServiceKeys       int   `json:"service_keys"`
	ServiceConsistent bool  `json:"service_consistent"`
	// BackendsConsistent: the workers' final full blobs folded through
	// every store backend (single-map reference, lock-striped,
	// instrumented) produce bit-identical merged views.
	BackendsConsistent bool `json:"backends_consistent"`
	// FaninConsistent: the same blobs pushed through the HTTP fan-in
	// router over fresh replica servers answer /snapshot byte-identically
	// to the single-process service.
	FaninConsistent bool `json:"fanin_consistent"`
}

// serveWorkerStats is the per-worker measurement each serve-mode worker
// prints as one JSON line on stdout, ahead of its final full export blob.
type serveWorkerStats struct {
	Worker     string  `json:"worker"`
	DeltaBytes []int64 `json:"delta_bytes"`
	FullBytes  []int64 `json:"full_bytes"`
}

// serveWorkerID names one worker towards the service. Zero-padded so the
// aggregator's ascending-worker-ID merge order equals the worker-index
// fold order of the batch path — the bit-identity comparison needs the two
// orders to agree.
func serveWorkerID(worker int) string { return fmt.Sprintf("worker-%03d", worker) }

// runServeWorker is the serve-mode worker body: ingest this worker's
// partition, pushing a delta export to the service at every interval
// boundary (and a final flush after Close), then write the stats line and
// the final full blob to stdout for the parent's batch-path comparison.
func runServeWorker(o distOptions, worker int, pushURL string, stdout io.Writer) error {
	seq, err := materializeReports(o.multiKeyOptions)
	if err != nil {
		return err
	}
	eng, err := qlove.NewEngine(qlove.EngineConfig{
		Config:       qlove.Config{Spec: o.Spec, Phis: o.Phis},
		Shards:       2,
		QueueDepth:   256,
		ResultBuffer: 1 << 14,
	})
	if err != nil {
		return err
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range eng.Results() {
		}
	}()

	intervals := o.Intervals
	if intervals < 1 {
		intervals = 1
	}
	id := serveWorkerID(worker)
	client := &http.Client{Timeout: 60 * time.Second}
	var cursor qlove.ExportCursor // one destination, one cursor
	var stats serveWorkerStats
	stats.Worker = id
	push := func() error {
		// The delta blob is what actually crosses the wire; the full
		// export of the same instant is measured (discarded) purely for
		// the bandwidth comparison.
		var buf bytes.Buffer
		if _, err := eng.ExportDelta(&buf, &cursor); err != nil {
			return fmt.Errorf("delta export: %w", err)
		}
		full, err := eng.Export(io.Discard)
		if err != nil {
			return err
		}
		stats.DeltaBytes = append(stats.DeltaBytes, int64(buf.Len()))
		stats.FullBytes = append(stats.FullBytes, full)
		resp, err := client.Post(pushURL+"/push?worker="+url.QueryEscape(id), "application/octet-stream", &buf)
		if err != nil {
			return fmt.Errorf("push: %w", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			return fmt.Errorf("push: %s: %s", resp.Status, msg)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}

	part := &distPartition{workers: o.Workers, mergeKey: mergeKey}
	reports := len(seq.keys)
	seen, nextBoundary := 0, 1
	err = seq.each(func(key string, vs []float64) error {
		if part.assign(key) == worker {
			if err := eng.Push(key, vs); err != nil {
				return err
			}
		}
		seen++
		// Interval boundaries in GLOBAL report-index space, so every
		// worker pushes at the same workload positions; the last interval
		// is the post-Close flush below.
		if nextBoundary < intervals && seen >= nextBoundary*reports/intervals {
			if err := push(); err != nil {
				return err
			}
			nextBoundary++
		}
		return nil
	})
	if err != nil {
		return err
	}
	eng.Close()
	<-drained
	if err := push(); err != nil { // final flush rides the closed-engine path
		return err
	}

	line, err := json.Marshal(stats)
	if err != nil {
		return err
	}
	out := bufio.NewWriter(stdout)
	out.Write(line)
	out.WriteByte('\n')
	if _, err := eng.Export(out); err != nil {
		return err
	}
	return out.Flush()
}

// parseServeWorkerOutput splits one serve-mode worker's stdout into its
// validated stats line and the final full export blob.
func parseServeWorkerOutput(raw []byte) (serveWorkerStats, []byte, error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return serveWorkerStats{}, nil, fmt.Errorf("no stats line on stdout")
	}
	var st serveWorkerStats
	if err := json.Unmarshal(raw[:nl], &st); err != nil {
		return serveWorkerStats{}, nil, fmt.Errorf("stats: %w", err)
	}
	if len(st.DeltaBytes) == 0 || len(st.DeltaBytes) != len(st.FullBytes) {
		return serveWorkerStats{}, nil, fmt.Errorf("malformed interval stats %+v", st)
	}
	return st, raw[nl+1:], nil
}

// runDistributedServe spawns the service (in-process unless o.AggURL
// points at an external one) and the worker processes, folds the final
// full blobs through the batch path, and verifies the service's merged
// view against it and against the never-serialized references.
func runDistributedServe(o distOptions) (distRun, error) {
	if o.Workers < 1 {
		return distRun{}, fmt.Errorf("distributed -serve: %d workers", o.Workers)
	}
	if o.Keys < 2 {
		return distRun{}, fmt.Errorf("distributed -serve: needs -keys >= 2, got %d", o.Keys)
	}
	base := o.AggURL
	if base == "" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return distRun{}, err
		}
		defer ln.Close()
		go http.Serve(ln, aggsrv.New(nil).Handler())
		base = "http://" + ln.Addr().String()
	}
	if err := waitHealthy(base, 10*time.Second); err != nil {
		return distRun{}, err
	}

	exe, err := os.Executable()
	if err != nil {
		return distRun{}, err
	}
	args := func(i int) []string {
		return []string{
			workerCmd,
			"-seed", strconv.FormatInt(o.Seed, 10),
			"-keys", strconv.Itoa(o.Keys),
			"-skew", strconv.FormatFloat(o.Skew, 'g', -1, 64),
			"-elements", strconv.Itoa(o.Elements),
			"-report", strconv.Itoa(o.Report),
			"-workers", strconv.Itoa(o.Workers),
			"-worker", strconv.Itoa(i),
			"-push", base,
			"-intervals", strconv.Itoa(o.Intervals),
		}
	}
	cmds := make([]*exec.Cmd, o.Workers)
	outs := make([]bytes.Buffer, o.Workers)
	start := time.Now()
	for i := range cmds {
		cmds[i] = exec.Command(exe, args(i)...)
		cmds[i].Stdout = &outs[i]
		cmds[i].Stderr = os.Stderr
		if err := cmds[i].Start(); err != nil {
			return distRun{}, fmt.Errorf("worker %d: %w", i, err)
		}
	}
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			return distRun{}, fmt.Errorf("worker %d: %w", i, err)
		}
	}
	wall := time.Since(start)

	// Split each worker's stdout into the stats line and the final full
	// blob, then fold the blobs through the batch path.
	blobs := make([][]byte, o.Workers)
	serve := serveStats{Intervals: o.Intervals}
	for i := range outs {
		st, blob, err := parseServeWorkerOutput(outs[i].Bytes())
		if err != nil {
			return distRun{}, fmt.Errorf("worker %d: %w", i, err)
		}
		for j := range st.DeltaBytes {
			serve.DeltaBytesTotal += st.DeltaBytes[j]
			serve.FullBytesTotal += st.FullBytes[j]
		}
		serve.DeltaBytesLast += st.DeltaBytes[len(st.DeltaBytes)-1]
		serve.FullBytesLast += st.FullBytes[len(st.FullBytes)-1]
		blobs[i] = blob
	}
	agg, ws, err := foldAndMeasure(blobs)
	if err != nil {
		return distRun{}, err
	}

	run := distRun{
		Workers:     o.Workers,
		Keys:        o.Keys,
		MergedKeys:  agg.Len(),
		Skew:        o.Skew,
		WallSeconds: wall.Seconds(),
		Wire:        ws,
		Serve:       &serve,
	}
	seq, err := materializeReports(o.multiKeyOptions)
	if err != nil {
		return distRun{}, err
	}
	run.Elements = seq.elements()
	run.ThroughputMevS = float64(seq.elements()) / wall.Seconds() / 1e6

	consistent, serviceKeys, err := verifyService(base, agg)
	if err != nil {
		return distRun{}, err
	}
	serve.ServiceConsistent = consistent
	serve.ServiceKeys = serviceKeys
	if serve.BackendsConsistent, err = backendsConsistent(blobs); err != nil {
		return distRun{}, fmt.Errorf("store backends: %w", err)
	}
	if serve.FaninConsistent, err = faninConsistent(blobs); err != nil {
		return distRun{}, fmt.Errorf("fan-in: %w", err)
	}

	if err := verifyDistributed(&run, agg, seq, o); err != nil {
		return distRun{}, err
	}
	return run, nil
}

// backendsConsistent folds the workers' final full blobs — per worker, in
// worker order, exactly as the service received its pushes — through
// every store backend, and requires the merged views to be bit-identical
// to the single-map reference's wire encoding.
func backendsConsistent(blobs [][]byte) (bool, error) {
	render := func(a *qlove.Aggregator) ([]byte, error) {
		for w, blob := range blobs {
			if _, err := a.Apply(serveWorkerID(w), bytes.NewReader(blob)); err != nil {
				return nil, err
			}
		}
		snap, err := a.Snapshot()
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if _, err := snap.WriteTo(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	var want []byte
	for _, b := range aggBenchBackends {
		agg, err := qlove.NewAggregatorConfig(b.cfg)
		if err != nil {
			return false, err
		}
		got, err := render(agg)
		if err != nil {
			return false, fmt.Errorf("backend %s: %w", b.name, err)
		}
		if want == nil {
			want = got // the single-map reference comes first
		} else if !bytes.Equal(got, want) {
			return false, nil
		}
	}
	return true, nil
}

// faninConsistent stands up fresh replica servers and the HTTP fan-in
// router over them, pushes the workers' final full blobs through the
// router, and compares the router's /snapshot byte-for-byte against a
// fresh single-process service fed the same blobs directly.
func faninConsistent(blobs [][]byte) (bool, error) {
	const replicas = 3
	var servers []*http.Server
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	serve := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := &http.Server{Handler: h}
		servers = append(servers, srv)
		go srv.Serve(ln)
		return "http://" + ln.Addr().String(), nil
	}
	urls := make([]string, replicas)
	for i := range urls {
		u, err := serve(aggsrv.New(nil).Handler())
		if err != nil {
			return false, err
		}
		urls[i] = u
	}
	fanin, err := aggsrv.NewFanin(urls, nil)
	if err != nil {
		return false, err
	}
	faninURL, err := serve(fanin.Handler())
	if err != nil {
		return false, err
	}
	refURL, err := serve(aggsrv.New(nil).Handler())
	if err != nil {
		return false, err
	}

	client := &http.Client{Timeout: 60 * time.Second}
	fetch := func(base string) ([]byte, error) {
		for w, blob := range blobs {
			resp, err := client.Post(base+"/push?worker="+url.QueryEscape(serveWorkerID(w)),
				"application/octet-stream", bytes.NewReader(blob))
			if err != nil {
				return nil, err
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("push worker %d: %s: %s", w, resp.Status, msg)
			}
		}
		resp, err := client.Get(base + "/snapshot")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("snapshot: %s", resp.Status)
		}
		return io.ReadAll(resp.Body)
	}
	got, err := fetch(faninURL)
	if err != nil {
		return false, fmt.Errorf("via router: %w", err)
	}
	want, err := fetch(refURL)
	if err != nil {
		return false, fmt.Errorf("single-process: %w", err)
	}
	return bytes.Equal(got, want), nil
}

// waitHealthy polls /healthz until the service answers (an external
// service may still be binding when the bench starts).
func waitHealthy(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("aggregation service at %s not healthy after %v: %v", base, timeout, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// verifyService fetches the service's full merged view and compares it —
// bit for bit, across the JSON float round trip (Go emits shortest
// round-trippable float64s) — against the batch-path fold of the same
// workers' full blobs.
func verifyService(base string, agg qlove.EngineSnapshot) (bool, int, error) {
	client := &http.Client{Timeout: 60 * time.Second}
	resp, err := client.Get(base + "/snapshot")
	if err != nil {
		return false, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return false, 0, fmt.Errorf("snapshot: %s: %s", resp.Status, msg)
	}
	var doc struct {
		Keys []aggsrv.KeyReport `json:"keys"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return false, 0, err
	}
	if len(doc.Keys) != agg.Len() {
		return false, len(doc.Keys), fmt.Errorf("service aggregates %d keys, batch fold has %d", len(doc.Keys), agg.Len())
	}
	for _, rep := range doc.Keys {
		sn, ok := agg.Get(rep.Key)
		if !ok {
			return false, len(doc.Keys), fmt.Errorf("service key %q missing from batch fold", rep.Key)
		}
		if rep.Streams != sn.Streams() || rep.Elements != sn.Elements() {
			return false, len(doc.Keys), nil
		}
		if !bitsEqual(rep.Estimates, sn.Estimates()) {
			return false, len(doc.Keys), nil
		}
	}
	return true, len(doc.Keys), nil
}

// serveDistributedExperiment prints one serve-mode run as text, failing
// unless every verdict holds AND the steady-state delta interval was
// strictly cheaper than a full export.
func serveDistributedExperiment(w io.Writer, o distOptions) error {
	where := o.AggURL
	if where == "" {
		where = "in-process service"
	}
	fmt.Fprintf(w, "distributed service: %d worker processes pushing %d delta intervals to %s, %d keys (zipf %.2f), %d elements\n",
		o.Workers, o.Intervals, where, o.Keys, o.Skew, o.Elements)
	run, err := runDistributedServe(o)
	if err != nil {
		return err
	}
	verdict := func(ok bool) string {
		if ok {
			return "bit-identical"
		}
		return "MISMATCH"
	}
	s := run.Serve
	fmt.Fprintf(w, "  workers=%d merged-keys=%d wall=%.2fs pipeline=%.2f Mev/s\n",
		run.Workers, run.MergedKeys, run.WallSeconds, run.ThroughputMevS)
	fmt.Fprintf(w, "  bandwidth: delta %d B total vs full %d B total; steady-state interval delta %d B vs full %d B (%.1f%%)\n",
		s.DeltaBytesTotal, s.FullBytesTotal, s.DeltaBytesLast, s.FullBytesLast,
		100*float64(s.DeltaBytesLast)/math.Max(float64(s.FullBytesLast), 1))
	fmt.Fprintf(w, "  service (%d keys) vs batch fold of full exports: %s\n", s.ServiceKeys, verdict(s.ServiceConsistent))
	fmt.Fprintf(w, "  hot-key vs single monitor: %s\n", verdict(run.HotKeyConsistent))
	fmt.Fprintf(w, "  cross-worker merge (streams=%d) vs in-process merge: %s\n",
		run.CrossMergeStreams, verdict(run.CrossMergeConsistent))
	fmt.Fprintf(w, "  store backends (map/striped/instrumented) folding the same blobs: %s\n", verdict(s.BackendsConsistent))
	fmt.Fprintf(w, "  HTTP fan-in router /snapshot vs single-process service: %s\n", verdict(s.FaninConsistent))
	if !s.ServiceConsistent || !run.HotKeyConsistent || !run.CrossMergeConsistent ||
		!s.BackendsConsistent || !s.FaninConsistent {
		return fmt.Errorf("service aggregation diverged from reference")
	}
	if s.DeltaBytesLast >= s.FullBytesLast {
		return fmt.Errorf("delta export did not beat full export at steady state (%d >= %d bytes)", s.DeltaBytesLast, s.FullBytesLast)
	}
	return nil
}
