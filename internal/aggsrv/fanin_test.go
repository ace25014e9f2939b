package aggsrv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/wire"
	"repro/internal/workload"
)

// memTransport is the in-process replica transport: an http.RoundTripper
// that dispatches each router request by URL host to a replica's
// Handler(), with no socket between the router and its replicas.
type memTransport map[string]http.Handler

func (m memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := m[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no in-memory replica at %q", req.URL.Host)
	}
	in := req.Clone(req.Context())
	if in.Body == nil {
		in.Body = http.NoBody
	}
	defer in.Body.Close()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, in)
	return rec.Result(), nil
}

// faninFixture stands up N replica servers plus the fan-in router over
// them, and one single-process reference server fed the same pushes.
type faninFixture struct {
	fanin    *httptest.Server
	router   *Fanin
	servers  []*Server          // the replicas, whichever transport reaches them
	replicas []*httptest.Server // their loopback listeners; nil over a memTransport
	ref      *httptest.Server
}

// newFaninFixture reaches the replicas over loopback sockets when mem is
// nil; otherwise it registers their handlers in mem, which becomes the
// router's transport unless cfg.Client already wraps it.
func newFaninFixture(t *testing.T, n int, cfg FaninConfig, mem memTransport) *faninFixture {
	t.Helper()
	fx := &faninFixture{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		srv := New(nil)
		fx.servers = append(fx.servers, srv)
		if mem != nil {
			host := fmt.Sprintf("replica-%d.mem", i)
			mem[host] = srv.Handler()
			urls[i] = "http://" + host
			continue
		}
		sock := httptest.NewServer(srv.Handler())
		t.Cleanup(sock.Close)
		fx.replicas = append(fx.replicas, sock)
		urls[i] = sock.URL
	}
	if mem != nil && cfg.Client == nil {
		cfg.Client = &http.Client{Transport: mem}
	}
	cfg.Replicas = urls
	f, err := NewFaninConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fx.router = f
	t.Cleanup(func() { f.Close() })
	fx.fanin = httptest.NewServer(f.Handler())
	t.Cleanup(fx.fanin.Close)
	fx.ref = httptest.NewServer(New(nil).Handler())
	t.Cleanup(fx.ref.Close)
	return fx
}

// push sends the blob to the fan-in AND the reference server, requiring
// identical acks.
func (fx *faninFixture) push(t *testing.T, worker string, blob []byte) {
	t.Helper()
	resp, body := post(t, fx.fanin, "/push?worker="+worker, blob)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fan-in push: %s: %s", resp.Status, body)
	}
	var got PushResult
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	resp, body = post(t, fx.ref, "/push?worker="+worker, blob)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference push: %s: %s", resp.Status, body)
	}
	var want PushResult
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("fan-in push ack %+v != reference %+v", got, want)
	}
}

// TestFaninEndToEnd: multi-worker, multi-key (including a salted
// sub-stream group) pushes through the router answer /query, /snapshot
// and /healthz byte-identically to one single-process server folding the
// same pushes — whether the router reaches its replicas over loopback
// sockets or in-process through FaninConfig.Client.
func TestFaninEndToEnd(t *testing.T) {
	t.Run("sockets", func(t *testing.T) { testFaninEndToEnd(t, nil) })
	t.Run("in-memory", func(t *testing.T) { testFaninEndToEnd(t, memTransport{}) })
}

func testFaninEndToEnd(t *testing.T, mem memTransport) {
	fx := newFaninFixture(t, 3, FaninConfig{}, mem)

	keys := []string{"api/latency", "db/qps", "cache/hits", "gc/pause", "net/rtt"}
	// Workers 0 and 1 report every key; worker 2 only the first, so the
	// replicas owning none of its blob's slots are forwarded an empty one.
	const workers = 3
	for w := 0; w < workers; w++ {
		// Salted workers ship "key\x00<j>" internal names in their delta
		// exports — the fan-in must keep each group together.
		h := newFaninEngine(t, int64(60+w), 0)
		h.keys = keys
		if w == 2 {
			h.keys = keys[:1]
		}
		for round := 0; round < 2; round++ {
			fx.push(t, fmt.Sprintf("w%d", w), h.round(t))
		}
	}

	// Each key lives on its slot's owner only, its salted sub-streams all
	// with it; every replica registered every worker, empty blob or not.
	table := fx.router.SlotTable()
	for _, k := range keys {
		var want KeyReport
		_, br := get(t, fx.ref, "/query?key="+k)
		if err := json.Unmarshal(br, &want); err != nil {
			t.Fatal(err)
		}
		if want.Streams < 4 {
			t.Fatalf("key %q folds %d streams: two workers' salt groups are not exercised", k, want.Streams)
		}
		for i, srv := range fx.servers {
			sn, ok, err := srv.Aggregator().Query(k)
			if err != nil {
				t.Fatal(err)
			}
			if owner := table.IsOwner(qlove.SlotOf(k), i); ok != owner {
				t.Fatalf("key %q on replica %d: resident=%v, owner=%v", k, i, ok, owner)
			}
			if ok && sn.Streams() != want.Streams {
				t.Fatalf("key %q on replica %d holds %d streams, reference %d: salt group split", k, i, sn.Streams(), want.Streams)
			}
		}
	}
	for i, srv := range fx.servers {
		if n := srv.Aggregator().Workers(); n != workers {
			t.Fatalf("replica %d registered %d workers, want %d", i, n, workers)
		}
	}

	// /query through the router: byte-identical to the reference server.
	for _, k := range append(keys, "no/such/key") {
		rf, bf := get(t, fx.fanin, "/query?key="+k)
		rr, br := get(t, fx.ref, "/query?key="+k)
		if rf.StatusCode != rr.StatusCode {
			t.Fatalf("query %q: fan-in %s, reference %s", k, rf.Status, rr.Status)
		}
		if !bytes.Equal(bf, br) {
			t.Fatalf("query %q: fan-in body diverges from reference:\n%s\nvs\n%s", k, bf, br)
		}
	}

	// /snapshot through the router: parses to the same sorted key reports,
	// each element byte-identical (the router relays raw JSON elements).
	_, bf := get(t, fx.fanin, "/snapshot")
	_, br := get(t, fx.ref, "/snapshot")
	if !bytes.Equal(bf, br) {
		t.Fatalf("fan-in snapshot diverges from reference:\n%s\nvs\n%s", bf, br)
	}

	// /healthz: same worker and key totals as the reference.
	var hf, hr Health
	_, bh := get(t, fx.fanin, "/healthz")
	if err := json.Unmarshal(bh, &hf); err != nil {
		t.Fatal(err)
	}
	_, bh = get(t, fx.ref, "/healthz")
	if err := json.Unmarshal(bh, &hr); err != nil {
		t.Fatal(err)
	}
	if hf != hr {
		t.Fatalf("fan-in health %+v != reference %+v", hf, hr)
	}
	if hf.Workers != workers || hf.Keys != len(keys) {
		t.Fatalf("health %+v, want %d workers / %d keys", hf, workers, len(keys))
	}

	// /metrics relays one document per replica.
	resp, bm := get(t, fx.fanin, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fan-in metrics: %s", resp.Status)
	}
	var fm FaninMetrics
	if err := json.Unmarshal(bm, &fm); err != nil {
		t.Fatal(err)
	}
	if len(fm.Replicas) != len(fx.servers) {
		t.Fatalf("metrics for %d replicas, want %d", len(fm.Replicas), len(fx.servers))
	}
}

// TestFaninErrors covers the router's request-validation surface: bad
// construction (including duplicate replicas) and malformed blobs rejected
// before any replica sees a frame.
func TestFaninErrors(t *testing.T) {
	if _, err := NewFaninConfig(FaninConfig{}); err == nil {
		t.Fatal("empty URL list accepted")
	}
	if _, err := NewFaninConfig(FaninConfig{Replicas: []string{"not a url"}}); err == nil {
		t.Fatal("bad URL accepted")
	}
	if _, err := NewFaninConfig(FaninConfig{Replicas: []string{"/just/a/path"}}); err == nil {
		t.Fatal("schemeless URL accepted")
	}
	// Duplicates — even differing only by a trailing slash — would
	// silently split one partition across two identical owners.
	if _, err := NewFaninConfig(FaninConfig{Replicas: []string{"http://10.0.0.1:7171", "http://10.0.0.1:7171/"}}); err == nil {
		t.Fatal("duplicate replica URLs accepted")
	}
	// Replication / quorum / slot-map validation.
	if _, err := NewFaninConfig(FaninConfig{
		Replicas:    []string{"http://a:1", "http://b:1"},
		Replication: 3,
	}); err == nil {
		t.Fatal("replication > replica count accepted")
	}
	if _, err := NewFaninConfig(FaninConfig{
		Replicas:    []string{"http://a:1", "http://b:1"},
		Replication: 2,
		Quorum:      3,
	}); err == nil {
		t.Fatal("quorum > replication accepted")
	}
	wide, err := qlove.NewSlotMap(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFaninConfig(FaninConfig{
		Replicas: []string{"http://a:1", "http://b:1"},
		Slots:    wide,
	}); err == nil {
		t.Fatal("slot map referencing replica 2 accepted with 2 replicas")
	}
	if _, err := NewFaninConfig(FaninConfig{
		Replicas:    []string{"http://a:1", "http://b:1"},
		Replication: 2,
		Slots:       wide, // replication 1 map vs config 2
	}); err == nil {
		t.Fatal("slot map replication mismatch accepted")
	}

	fx := newFaninFixture(t, 2, FaninConfig{}, nil)
	if resp, _ := post(t, fx.fanin, "/push", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("push without worker: %s", resp.Status)
	}
	if resp, _ := get(t, fx.fanin, "/push?worker=w"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET push: %s", resp.Status)
	}
	if resp, _ := get(t, fx.fanin, "/query"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("query without key: %s", resp.Status)
	}
	// A malformed blob dies in the router's whole-blob scan, before
	// anything is forwarded: even the valid frames ahead of the garbage
	// reach no replica, and none registers the worker.
	eng := mkEngine(t, qlove.Config{Spec: qlove.Window{Size: 256, Period: 64}, Phis: []float64{0.5}, FewK: true})
	defer eng.Close()
	for _, k := range []string{"a", "b", "c", "d"} {
		if err := eng.Push(k, workload.Generate(workload.NewNetMon(5), 300)); err != nil {
			t.Fatal(err)
		}
	}
	var blob bytes.Buffer
	if _, err := eng.Export(&blob); err != nil {
		t.Fatal(err)
	}
	blob.WriteString("garbage")
	if resp, _ := post(t, fx.fanin, "/push?worker=w", blob.Bytes()); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed blob: %s", resp.Status)
	}
	// So does a well-formed frame whose key carries a misplaced NUL: slot
	// routing and the replicas' stores both split names, and must never be
	// handed one the engine could not have minted.
	blob.Truncate(blob.Len() - len("garbage"))
	for _, key := range []string{"abc\x00", "\x00", "a\x00bc"} {
		bad := wire.AppendTombstoneFrame(append([]byte(nil), blob.Bytes()...), key)
		if resp, body := post(t, fx.fanin, "/push?worker=w", bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("key %q: %s: %s", key, resp.Status, body)
		}
	}
	for i, srv := range fx.servers {
		if agg := srv.Aggregator(); agg.Workers() != 0 || agg.Keys() != 0 {
			t.Fatalf("malformed blob reached replica %d: %d workers, %d keys", i, agg.Workers(), agg.Keys())
		}
	}
}

// TestFaninDegradedReplica is the availability contract: with one replica
// dead the router keeps serving /query and /snapshot for the live
// replicas' keys, names the dead replica in /healthz and in the /push 502
// body, ejects it after the failure threshold, and reinstates it
// automatically — via the background probe — once it is back on the SAME
// address, after which pushes succeed again end-to-end and a worker's
// re-push restores the revived replica's partition.
func TestFaninDegradedReplica(t *testing.T) {
	cfg := qlove.Config{Spec: qlove.Window{Size: 256, Period: 64}, Phis: []float64{0.5}, FewK: true}
	fx := newFaninFixture(t, 2, FaninConfig{Timeout: 2 * time.Second}, nil)

	// Find one key owned by each replica.
	keyFor := func(owner int) string {
		for i := 0; ; i++ {
			k := fmt.Sprintf("key-%d", i)
			if qlove.SlotOf(k)%2 == owner {
				return k
			}
		}
	}
	k0, k1 := keyFor(0), keyFor(1)
	eng, err := qlove.NewEngine(qlove.EngineConfig{Config: cfg, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range eng.Results() {
		}
	}()
	for _, k := range []string{k0, k1} {
		if err := eng.Push(k, workload.Generate(workload.NewNetMon(3), 300)); err != nil {
			t.Fatal(err)
		}
	}
	var blob bytes.Buffer
	if _, err := eng.Export(&blob); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if resp, body := post(t, fx.fanin, "/push?worker=w", blob.Bytes()); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy push: %s: %s", resp.Status, body)
	}

	// Kill replica 0 but remember its address for the comeback.
	addr := fx.replicas[0].Listener.Addr().String()
	fx.replicas[0].Close()

	// Live-replica keys still answer; dead-replica keys 502.
	if resp, body := get(t, fx.fanin, "/query?key="+k1); resp.StatusCode != http.StatusOK {
		t.Fatalf("live-replica query: %s: %s", resp.Status, body)
	}
	if resp, _ := get(t, fx.fanin, "/query?key="+k0); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("dead-replica query: %s, want 502", resp.Status)
	}

	// /snapshot degrades to the reachable keys and says so.
	resp, body := get(t, fx.fanin, "/snapshot")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded snapshot: %s: %s", resp.Status, body)
	}
	var snap struct {
		Keys []struct {
			Key string `json:"key"`
		} `json:"keys"`
		Degraded []string `json:"degraded"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("degraded snapshot parse: %v\n%s", err, body)
	}
	if len(snap.Keys) != 1 || snap.Keys[0].Key != k1 {
		t.Fatalf("degraded snapshot keys: %s", body)
	}
	if len(snap.Degraded) != 1 || snap.Degraded[0] != fx.router.Replicas()[0] {
		t.Fatalf("degraded snapshot does not name the dead replica: %s", body)
	}

	// /healthz stays 200 and reports exactly which replica is down.
	resp, body = get(t, fx.fanin, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded healthz: %s", resp.Status)
	}
	var fh FaninHealth
	if err := json.Unmarshal(body, &fh); err != nil {
		t.Fatal(err)
	}
	if fh.Status != "degraded" || len(fh.Replicas) != 2 ||
		fh.Replicas[0].Status != "down" || fh.Replicas[1].Status != "ok" {
		t.Fatalf("degraded healthz: %s", body)
	}

	// /push fans out to the live replica and 502s naming the dead one.
	resp, body = post(t, fx.fanin, "/push?worker=w", blob.Bytes())
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("degraded push: %s, want 502", resp.Status)
	}
	var pe FaninPushError
	if err := json.Unmarshal(body, &pe); err != nil {
		t.Fatalf("degraded push body: %v\n%s", err, body)
	}
	if len(pe.Failed) != 1 || pe.Failed[0] != fx.router.Replicas()[0] {
		t.Fatalf("push 502 does not name the dead replica: %s", body)
	}
	live := false
	for _, out := range pe.Outcomes {
		if out.URL == fx.router.Replicas()[1] && out.OK {
			live = true
		}
	}
	if !live {
		t.Fatalf("live replica did not receive the degraded push: %s", body)
	}

	// The replica returns on its old address (fresh empty state — the
	// worker would re-bootstrap, as after any lost state). The probe must
	// reinstate it without any help.
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	revived := httptest.NewUnstartedServer(New(nil).Handler())
	revived.Listener.Close()
	revived.Listener = l
	revived.Start()
	t.Cleanup(revived.Close)

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body = get(t, fx.fanin, "/healthz")
		var h FaninHealth
		if err := json.Unmarshal(body, &h); err == nil && h.Status == "ok" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never reinstated: %s", body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if resp, body := post(t, fx.fanin, "/push?worker=w2", blob.Bytes()); resp.StatusCode != http.StatusOK {
		t.Fatalf("push after reinstatement: %s: %s", resp.Status, body)
	}
	// That bootstrap push restored the revived replica's partition.
	if resp, body := get(t, fx.fanin, "/query?key="+k0); resp.StatusCode != http.StatusOK {
		t.Fatalf("revived-replica query after re-push: %s: %s", resp.Status, body)
	}
}

// TestFaninTimeout pins the no-DefaultClient satellite: a wedged replica
// costs the configured deadline, not forever.
func TestFaninTimeout(t *testing.T) {
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Second)
	}))
	defer stall.Close()
	f, err := NewFaninConfig(FaninConfig{
		Replicas: []string{stall.URL},
		Timeout:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	start := time.Now()
	resp, _ := get(t, srv, "/query?key=k")
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("wedged replica: %s, want 502", resp.Status)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("wedged replica held the query for %v", d)
	}
}

// TestFaninQueryRetry pins the idempotent-read retry: a replica that 500s
// on every attempt but the last is retried through to the answer,
// invisibly to the client.
func TestFaninQueryRetry(t *testing.T) {
	var calls atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= readRetries {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Key string `json:"key"`
		}{"k"})
	}))
	defer flaky.Close()
	f, err := NewFaninConfig(FaninConfig{
		Replicas: []string{flaky.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	resp, body := get(t, srv, "/query?key=k")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retried query: %s: %s", resp.Status, body)
	}
	if calls.Load() != readRetries+1 {
		t.Fatalf("replica saw %d calls, want %d (%d failures + success)", calls.Load(), readRetries+1, readRetries)
	}
}

// TestFaninHedgedQuery pins the replicated-read hedge: with the key's
// primary owner wedged, the query answers from the slot's secondary owner
// within roughly the hedge delay — not the primary's full timeout.
func TestFaninHedgedQuery(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(3 * time.Second)
	}))
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Key string `json:"key"`
		}{"k"})
	}))
	defer fast.Close()
	// At replication 2 over 2 replicas, every slot is owned by both; the
	// default map's primary for "k" is SlotOf("k") % 2 — put the slow
	// server there so the hedge must rescue the read.
	urls := []string{slow.URL, fast.URL}
	if qlove.SlotOf("k")%2 == 1 {
		urls = []string{fast.URL, slow.URL}
	}
	f, err := NewFaninConfig(FaninConfig{
		Replicas:    urls,
		Replication: 2,
		Timeout:     5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	start := time.Now()
	resp, body := get(t, srv, "/query?key=k")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged query: %s: %s", resp.Status, body)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("hedged query took %v — served by the wedged primary, not the secondary", d)
	}
}

// TestServiceMetricsEndpoint pins the server-side /metrics document for
// an instrumented aggregator.
func TestServiceMetricsEndpoint(t *testing.T) {
	agg, err := qlove.NewAggregatorConfig(qlove.AggregatorConfig{Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(agg).Handler())
	defer srv.Close()
	if resp, _ := post(t, srv, "/metrics", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST metrics: %s", resp.Status)
	}
	if resp, body := post(t, srv, "/push?worker=w", wire.AppendTombstoneFrame(nil, "k")); resp.StatusCode != http.StatusOK {
		t.Fatalf("push: %s: %s", resp.Status, body)
	}
	resp, body := get(t, srv, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %s", resp.Status)
	}
	var m MetricsReport
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Replicas) != 1 || m.Replicas[0].Store.Backend != "striped+instrumented" {
		t.Fatalf("metrics %s", body)
	}
	if bytes.Contains(body, []byte(`"fold_cache"`)) {
		t.Fatalf("metrics carry a fold_cache field: %s", body)
	}
	if len(m.Replicas[0].Store.Ops) == 0 {
		t.Fatalf("instrumented store reported no op metrics: %s", body)
	}
}
