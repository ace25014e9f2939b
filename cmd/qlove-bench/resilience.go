package main

// The resilience scenario exercises the aggregation tier's two failure
// paths end to end, with real processes and real sockets:
//
//   - Crash restart: a DISK-BACKED aggregation service child (this binary
//     re-exec'd) takes delta-chain pushes from live worker engines, is
//     SIGKILLed mid-chain, and restarts on the same state directory. The
//     recovered /snapshot must be bit-identical to the pre-crash one, and
//     — because the store persists each worker's export cursor — the
//     workers' NEXT deltas must fold without re-bootstrapping, landing the
//     restarted service bit-identical to an uninterrupted reference
//     service fed the same blobs.
//   - Degraded fan-in: two replica servers behind the HTTP fan-in
//     router; one replica dies mid-serve. The router must keep answering
//     the live partition, report the dead replica in /healthz and the
//     /snapshot degraded list, fail pushes loudly (naming the dead
//     replica), and — once the replica comes back on the same address —
//     reinstate it via the background probe without a restart.
//
// Both phases are verification gates, not throughput measurements: the
// printed latencies (restart-to-healthy, probe reinstatement) are
// informational, the bit-identity and availability verdicts are what
// fail the run.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"time"

	"repro"
	"repro/internal/aggsrv"
)

// aggServeCmd is the hidden argv[1] the parent uses to re-exec itself as
// the aggregation-service child of the restart phase.
const aggServeCmd = "__agg-server"

// aggServeChild is the re-exec'd service process: an aggsrv server over a
// disk-backed (or map, for the uninterrupted reference) aggregator,
// announcing its base URL on stdout and serving until killed.
func aggServeChild(args []string) error {
	fs := flag.NewFlagSet(aggServeCmd, flag.ContinueOnError)
	store := fs.String("store", "disk", "aggregator store backend (map | disk)")
	dir := fs.String("dir", "", "disk store state directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	agg, err := qlove.NewAggregatorConfig(qlove.AggregatorConfig{Store: *store, Dir: *dir})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	// The parent parses this line; stdout is otherwise unused.
	fmt.Printf("AGG http://%s\n", ln.Addr().String())
	return http.Serve(ln, aggsrv.New(agg).Handler())
}

// resilienceOptions parameterizes the scenario. The workload is tiny on
// purpose — the phases gate on identity and availability, not throughput.
type resilienceOptions struct {
	Seed    int64
	Workers int // worker engines pushing delta chains (restart phase)
	Rounds  int // delta pushes per worker; the crash lands mid-chain
	Keys    int // logical keys, partitioned across the workers
}

func defaultResilienceOptions(seed int64) resilienceOptions {
	return resilienceOptions{Seed: seed, Workers: 2, Rounds: 6, Keys: 8}
}

// aggChild is one re-exec'd service process and its announced base URL.
type aggChild struct {
	cmd  *exec.Cmd
	base string
}

// startAggChild re-execs this binary as an aggregation-service child and
// waits for it to announce its address and answer /healthz.
func startAggChild(store, dir string) (*aggChild, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{aggServeCmd, "-store", store}
	if dir != "" {
		args = append(args, "-dir", dir)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(out)
	if !sc.Scan() {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("agg child exited before announcing its address")
	}
	var base string
	if _, err := fmt.Sscanf(sc.Text(), "AGG %s", &base); err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("agg child announced %q: %w", sc.Text(), err)
	}
	if err := waitHealthy(base, 10*time.Second); err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, err
	}
	return &aggChild{cmd: cmd, base: base}, nil
}

// waitHealthy polls /healthz until the child answers (it announces its
// address before http.Serve is accepting).
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

// kill SIGKILLs the child — no shutdown hooks, no final fsync beyond what
// the store already did per write. This is the crash the disk store's
// recovery path exists for.
func (c *aggChild) kill() {
	if c.cmd.Process != nil {
		c.cmd.Process.Kill()
	}
	c.cmd.Wait()
}

// resilienceRestartStats is the restart phase's half of the report.
type resilienceRestartStats struct {
	Workers            int           `json:"workers"`
	Rounds             int           `json:"rounds"`
	CrashAfter         int           `json:"crash_after_round"`
	RecoveredIdentical bool          `json:"recovered_identical"`
	ResumedIdentical   bool          `json:"resumed_identical"`
	RestartToHealthy   time.Duration `json:"-"`
}

// resilienceWorker is one live worker engine pushing a delta chain: a
// single export cursor per worker, because the SAME delta blob goes to
// both the victim and the reference service.
type resilienceWorker struct {
	id     string
	eng    *qlove.Engine
	cursor qlove.ExportCursor
	rnd    *rand.Rand
	keys   []string
}

func httpPushBlob(client *http.Client, base, worker string, blob []byte) error {
	resp, err := client.Post(base+"/push?worker="+url.QueryEscape(worker),
		"application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		return fmt.Errorf("push %s: %w", worker, err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("push %s: %s: %s", worker, resp.Status, msg)
	}
	return nil
}

func httpSnapshotBytes(client *http.Client, base string) ([]byte, error) {
	resp, err := client.Get(base + "/snapshot")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("snapshot: %s: %s", resp.Status, body)
	}
	return body, nil
}

// resilienceRestart runs the crash-restart phase: delta chains into a
// disk-backed child and an uninterrupted reference child, SIGKILL the
// victim mid-chain, restart it on the same directory, verify the
// recovered snapshot bit-identically matches the pre-crash one, then
// finish the chains on both and require the final views identical.
func resilienceRestart(o resilienceOptions) (resilienceRestartStats, error) {
	st := resilienceRestartStats{Workers: o.Workers, Rounds: o.Rounds, CrashAfter: o.Rounds / 2}
	dir, err := os.MkdirTemp("", "qlove-resilience-*")
	if err != nil {
		return st, err
	}
	defer os.RemoveAll(dir)

	victim, err := startAggChild("disk", dir)
	if err != nil {
		return st, fmt.Errorf("victim: %w", err)
	}
	defer victim.kill()
	ref, err := startAggChild("map", "")
	if err != nil {
		return st, fmt.Errorf("reference: %w", err)
	}
	defer ref.kill()

	workers := make([]*resilienceWorker, o.Workers)
	for w := range workers {
		eng, err := qlove.NewEngine(qlove.EngineConfig{
			Config:       qlove.Config{Spec: qlove.Window{Size: 512, Period: 128}, Phis: []float64{0.5, 0.9, 0.99}},
			Shards:       2,
			ResultBuffer: 1 << 14,
		})
		if err != nil {
			return st, err
		}
		go func() {
			for range eng.Results() {
			}
		}()
		rw := &resilienceWorker{
			id:  fmt.Sprintf("worker-%03d", w),
			eng: eng,
			rnd: rand.New(rand.NewSource(o.Seed + int64(w)*7919)),
		}
		for k := w; k < o.Keys; k += o.Workers {
			rw.keys = append(rw.keys, fmt.Sprintf("key-%03d", k))
		}
		workers[w] = rw
		defer eng.Close()
	}

	client := &http.Client{Timeout: 30 * time.Second}
	// One round: every worker ingests a report per key, exports ONE delta
	// blob, and pushes the same bytes to every destination — so the two
	// services and the workers' cursors stay in lockstep.
	round := func(targets ...string) error {
		for _, rw := range workers {
			for _, key := range rw.keys {
				vs := make([]float64, 128)
				for i := range vs {
					vs[i] = rw.rnd.Float64() * 1000
				}
				if err := rw.eng.Push(key, vs); err != nil {
					return err
				}
			}
			var buf bytes.Buffer
			if _, err := rw.eng.ExportDelta(&buf, &rw.cursor); err != nil {
				return err
			}
			for _, base := range targets {
				if err := httpPushBlob(client, base, rw.id, buf.Bytes()); err != nil {
					return err
				}
			}
		}
		return nil
	}

	for r := 0; r < st.CrashAfter; r++ {
		if err := round(victim.base, ref.base); err != nil {
			return st, err
		}
	}
	preCrash, err := httpSnapshotBytes(client, victim.base)
	if err != nil {
		return st, err
	}

	victim.kill()
	restart := time.Now()
	revived, err := startAggChild("disk", dir)
	if err != nil {
		return st, fmt.Errorf("restart: %w", err)
	}
	defer revived.kill()
	st.RestartToHealthy = time.Since(restart)

	recovered, err := httpSnapshotBytes(client, revived.base)
	if err != nil {
		return st, err
	}
	st.RecoveredIdentical = bytes.Equal(recovered, preCrash)

	// Resume the delta chains where they left off: the recovered cursors
	// must accept these without forcing a re-bootstrap, or the final views
	// diverge (a re-bootstrapping service would ALSO converge, but only
	// after the workers' next FULL export — these pushes are deltas only).
	for r := st.CrashAfter; r < o.Rounds; r++ {
		if err := round(revived.base, ref.base); err != nil {
			return st, err
		}
	}
	final, err := httpSnapshotBytes(client, revived.base)
	if err != nil {
		return st, err
	}
	want, err := httpSnapshotBytes(client, ref.base)
	if err != nil {
		return st, err
	}
	st.ResumedIdentical = bytes.Equal(final, want)
	return st, nil
}

// resilienceFaninStats is the degraded fan-in phase's half of the report.
type resilienceFaninStats struct {
	LiveKeyServed    bool          `json:"live_key_served"`
	DeadKeyRejected  bool          `json:"dead_key_rejected"`
	HealthzDegraded  bool          `json:"healthz_degraded"`
	SnapshotDegraded bool          `json:"snapshot_degraded"`
	PushNamedDead    bool          `json:"push_named_dead"`
	Reinstated       bool          `json:"reinstated"`
	RestoredByRepush bool          `json:"restored_by_repush"`
	ReinstateLatency time.Duration `json:"-"`
}

// resilienceFanin runs the degraded-replica phase in-process (the router
// and replicas are in this process; the sockets are real): kill one of
// two replicas, verify partial serving + loud degradation, revive it on
// the SAME address, and wait for the probe loop to reinstate it.
func resilienceFanin(o resilienceOptions) (resilienceFaninStats, error) {
	var st resilienceFaninStats
	type replica struct {
		addr string
		srv  *http.Server
	}
	serve := func(addr string, h http.Handler) (replica, error) {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return replica{}, err
		}
		srv := &http.Server{Handler: h}
		go srv.Serve(ln)
		return replica{addr: ln.Addr().String(), srv: srv}, nil
	}
	reps := make([]replica, 2)
	for i := range reps {
		r, err := serve("127.0.0.1:0", aggsrv.New(nil).Handler())
		if err != nil {
			return st, err
		}
		reps[i] = r
		defer r.srv.Close()
	}
	fanin, err := aggsrv.NewFaninConfig(aggsrv.FaninConfig{
		Replicas:      []string{"http://" + reps[0].addr, "http://" + reps[1].addr},
		Timeout:       2 * time.Second,
		Retries:       1,
		RetryBackoff:  time.Millisecond,
		FailThreshold: 2,
		ProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		return st, err
	}
	defer fanin.Close()
	router, err := serve("127.0.0.1:0", fanin.Handler())
	if err != nil {
		return st, err
	}
	defer router.srv.Close()
	base := "http://" + router.addr

	// One worker blob with keys on BOTH partitions, pushed through the
	// router so each replica owns its share.
	eng, err := qlove.NewEngine(qlove.EngineConfig{
		Config:       qlove.Config{Spec: qlove.Window{Size: 512, Period: 128}, Phis: []float64{0.5, 0.9, 0.99}},
		Shards:       2,
		ResultBuffer: 1 << 14,
	})
	if err != nil {
		return st, err
	}
	go func() {
		for range eng.Results() {
		}
	}()
	defer eng.Close()
	var deadKey, liveKey string
	rnd := rand.New(rand.NewSource(o.Seed))
	for k := 0; deadKey == "" || liveKey == ""; k++ {
		key := fmt.Sprintf("key-%03d", k)
		switch qlove.SlotOf(key) % 2 {
		case 0:
			deadKey = key // replica 0 is the one we kill
		case 1:
			liveKey = key
		}
		vs := make([]float64, 128)
		for i := range vs {
			vs[i] = rnd.Float64() * 1000
		}
		if err := eng.Push(key, vs); err != nil {
			return st, err
		}
	}
	var blob bytes.Buffer
	if _, err := eng.Export(&blob); err != nil {
		return st, err
	}
	client := &http.Client{Timeout: 10 * time.Second}
	if err := httpPushBlob(client, base, "worker-000", blob.Bytes()); err != nil {
		return st, err
	}
	get := func(path string) (int, []byte, error) {
		resp, err := client.Get(base + path)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}
	for _, key := range []string{deadKey, liveKey} {
		if status, body, err := get("/query?key=" + url.QueryEscape(key)); err != nil || status != http.StatusOK {
			return st, fmt.Errorf("healthy query %q: status %d err %v body %s", key, status, err, body)
		}
	}

	// Kill replica 0 (Close tears the listener down; the ADDRESS stays
	// ours to re-bind for the revival below).
	reps[0].srv.Close()

	status, _, err := get("/query?key=" + url.QueryEscape(liveKey))
	if err != nil {
		return st, err
	}
	st.LiveKeyServed = status == http.StatusOK
	status, _, err = get("/query?key=" + url.QueryEscape(deadKey))
	if err != nil {
		return st, err
	}
	st.DeadKeyRejected = status == http.StatusBadGateway

	// /healthz probes every replica each call, so polling it both drives
	// the consecutive-failure ejection and observes it.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && !st.HealthzDegraded {
		_, body, err := get("/healthz")
		if err != nil {
			return st, err
		}
		var h aggsrv.FaninHealth
		if err := json.Unmarshal(body, &h); err != nil {
			return st, fmt.Errorf("healthz: %w: %s", err, body)
		}
		st.HealthzDegraded = h.Status == "degraded" && len(h.Replicas) == 2 && h.Replicas[0].Status == "down"
		time.Sleep(10 * time.Millisecond)
	}

	status, body, err := get("/snapshot")
	if err != nil {
		return st, err
	}
	if status == http.StatusOK {
		var snap struct {
			Keys     []json.RawMessage `json:"keys"`
			Degraded []string          `json:"degraded"`
		}
		if err := json.Unmarshal(body, &snap); err != nil {
			return st, fmt.Errorf("snapshot: %w", err)
		}
		st.SnapshotDegraded = len(snap.Keys) >= 1 && len(snap.Degraded) == 1 &&
			snap.Degraded[0] == "http://"+reps[0].addr
	}

	resp, err := client.Post(base+"/push?worker=worker-000", "application/octet-stream",
		bytes.NewReader(blob.Bytes()))
	if err != nil {
		return st, err
	}
	pushBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusBadGateway {
		var pe aggsrv.FaninPushError
		if err := json.Unmarshal(pushBody, &pe); err == nil {
			st.PushNamedDead = len(pe.Failed) == 1 && pe.Failed[0] == "http://"+reps[0].addr
		}
	}

	// Revive replica 0 on the SAME address (fresh and empty — exactly a
	// replaced replica host) and wait for the probe loop to notice.
	revived, err := serve(reps[0].addr, aggsrv.New(nil).Handler())
	if err != nil {
		return st, fmt.Errorf("revive replica 0: %w", err)
	}
	defer revived.srv.Close()
	reinstate := time.Now()
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && !st.Reinstated {
		_, body, err := get("/healthz")
		if err != nil {
			return st, err
		}
		var h aggsrv.FaninHealth
		if json.Unmarshal(body, &h) == nil && h.Status == "ok" {
			st.Reinstated = true
		}
		time.Sleep(10 * time.Millisecond)
	}
	st.ReinstateLatency = time.Since(reinstate)

	// The revived replica is empty; a worker re-push (the bootstrap path
	// workers fall back to whenever a replica loses their state) restores
	// its partition through the now-healthy router.
	if st.Reinstated {
		if err := httpPushBlob(client, base, "worker-000", blob.Bytes()); err != nil {
			return st, err
		}
		status, _, err := get("/query?key=" + url.QueryEscape(deadKey))
		if err != nil {
			return st, err
		}
		st.RestoredByRepush = status == http.StatusOK
	}
	return st, nil
}

// resilienceExperiment prints both phases as text, failing unless every
// verdict holds.
func resilienceExperiment(w io.Writer, o resilienceOptions) error {
	verdict := func(ok bool) string {
		if ok {
			return "ok"
		}
		return "FAIL"
	}
	bitVerdict := func(ok bool) string {
		if ok {
			return "bit-identical"
		}
		return "MISMATCH"
	}
	fmt.Fprintf(w, "resilience: crash-restart durability and degraded fan-in (seed %d)\n", o.Seed)
	fmt.Fprintf(w, "  restart: %d workers x %d delta rounds into a disk-backed service child, SIGKILL after round %d\n",
		o.Workers, o.Rounds, o.Rounds/2)
	rst, err := resilienceRestart(o)
	if err != nil {
		return fmt.Errorf("restart phase: %w", err)
	}
	fmt.Fprintf(w, "    recovered /snapshot vs pre-crash: %s\n", bitVerdict(rst.RecoveredIdentical))
	fmt.Fprintf(w, "    resumed delta chains vs uninterrupted reference: %s\n", bitVerdict(rst.ResumedIdentical))
	fmt.Fprintf(w, "    restart-to-healthy: %v\n", rst.RestartToHealthy.Round(time.Millisecond))
	fmt.Fprintf(w, "  fanin: 2 replicas behind the router, replica 0 killed mid-serve\n")
	fst, err := resilienceFanin(o)
	if err != nil {
		return fmt.Errorf("fanin phase: %w", err)
	}
	fmt.Fprintf(w, "    live-partition query while degraded: %s\n", verdict(fst.LiveKeyServed))
	fmt.Fprintf(w, "    dead-partition query rejected (502): %s\n", verdict(fst.DeadKeyRejected))
	fmt.Fprintf(w, "    /healthz degraded, replica 0 down: %s\n", verdict(fst.HealthzDegraded))
	fmt.Fprintf(w, "    /snapshot served with degraded list: %s\n", verdict(fst.SnapshotDegraded))
	fmt.Fprintf(w, "    push 502 naming the dead replica: %s\n", verdict(fst.PushNamedDead))
	fmt.Fprintf(w, "    probe reinstatement after same-address revival: %s (%v)\n",
		verdict(fst.Reinstated), fst.ReinstateLatency.Round(time.Millisecond))
	fmt.Fprintf(w, "    partition restored by worker re-push: %s\n", verdict(fst.RestoredByRepush))
	if !rst.RecoveredIdentical || !rst.ResumedIdentical {
		return fmt.Errorf("crash restart diverged from reference")
	}
	if !fst.LiveKeyServed || !fst.DeadKeyRejected || !fst.HealthzDegraded ||
		!fst.SnapshotDegraded || !fst.PushNamedDead || !fst.Reinstated || !fst.RestoredByRepush {
		return fmt.Errorf("degraded fan-in did not behave as specified")
	}
	return nil
}
