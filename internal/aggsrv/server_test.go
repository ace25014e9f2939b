package aggsrv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/wire"
	"repro/internal/workload"
)

// worker builds one engine, ingests the given keyed batches and returns
// (engine, bootstrap-or-delta blob for the cursor).
func mkEngine(t *testing.T, cfg qlove.Config) *qlove.Engine {
	t.Helper()
	eng, err := qlove.NewEngine(qlove.EngineConfig{Config: cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range eng.Results() {
		}
	}()
	return eng
}

func post(t *testing.T, srv *httptest.Server, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestServiceEndToEnd drives the full push/query/snapshot/healthz surface:
// a bootstrap delta, an incremental delta, and bit-identical answers
// against the library-side aggregator.
func TestServiceEndToEnd(t *testing.T) {
	cfg := qlove.Config{Spec: qlove.Window{Size: 256, Period: 64}, Phis: []float64{0.5, 0.99}, FewK: true}
	server := New(nil)
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()

	eng := mkEngine(t, cfg)
	defer eng.Close()
	gen := workload.NewNetMon(21)
	if err := eng.Push("api/latency", workload.Generate(gen, 600)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Push("db/qps", workload.Generate(gen, 300)); err != nil {
		t.Fatal(err)
	}

	var cur qlove.ExportCursor
	var blob bytes.Buffer
	if _, err := eng.ExportDelta(&blob, &cur); err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, srv, "/push?worker=w0", blob.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("push: %s: %s", resp.Status, body)
	}
	var pr PushResult
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Worker != "w0" || pr.Frames == 0 || pr.Keys != 2 {
		t.Fatalf("push result %+v", pr)
	}

	// Incremental push after more traffic.
	if err := eng.Push("api/latency", workload.Generate(gen, 200)); err != nil {
		t.Fatal(err)
	}
	blob.Reset()
	if _, err := eng.ExportDelta(&blob, &cur); err != nil {
		t.Fatal(err)
	}
	if resp, body := post(t, srv, "/push?worker=w0", blob.Bytes()); resp.StatusCode != http.StatusOK {
		t.Fatalf("delta push: %s: %s", resp.Status, body)
	}

	// /query answers bit-identically to the engine's own capture (JSON
	// floats round-trip exactly).
	want, ok := eng.Query("api/latency")
	if !ok {
		t.Fatal("engine lost the key")
	}
	resp, body = get(t, srv, "/query?key=api/latency")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %s: %s", resp.Status, body)
	}
	var rep KeyReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	wantEst := want.Estimates()
	if len(rep.Estimates) != len(wantEst) {
		t.Fatalf("estimates %v, want %v", rep.Estimates, wantEst)
	}
	for i := range wantEst {
		if math.Float64bits(rep.Estimates[i]) != math.Float64bits(wantEst[i]) {
			t.Fatalf("ϕ[%d]: service %v != engine %v", i, rep.Estimates[i], wantEst[i])
		}
	}

	// Single-ϕ form, and the interpolation guard.
	resp, body = get(t, srv, "/query?key=api/latency&phi=0.99")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("phi query: %s: %s", resp.Status, body)
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Estimates) != 1 || math.Float64bits(rep.Estimates[0]) != math.Float64bits(wantEst[1]) {
		t.Fatalf("phi query answered %v, want %v", rep.Estimates, wantEst[1])
	}
	if resp, _ := get(t, srv, "/query?key=api/latency&phi=0.95"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unconfigured ϕ: %s", resp.Status)
	}

	// /snapshot lists both keys sorted.
	resp, body = get(t, srv, "/snapshot")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %s", resp.Status)
	}
	var doc struct {
		Keys []KeyReport `json:"keys"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Keys) != 2 || doc.Keys[0].Key != "api/latency" || doc.Keys[1].Key != "db/qps" {
		t.Fatalf("snapshot keys %+v", doc.Keys)
	}

	// /healthz.
	resp, body = get(t, srv, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 1 || h.Keys != 2 {
		t.Fatalf("health %+v", h)
	}
}

// TestServiceErrors covers the failure surface: missing worker, bad
// methods, unknown keys, corrupt blobs.
func TestServiceErrors(t *testing.T) {
	srv := httptest.NewServer(New(nil).Handler())
	defer srv.Close()

	if resp, _ := post(t, srv, "/push", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("push without worker: %s", resp.Status)
	}
	if resp, _ := get(t, srv, "/push?worker=w"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET push: %s", resp.Status)
	}
	if resp, _ := post(t, srv, "/query?key=x", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST query: %s", resp.Status)
	}
	if resp, _ := get(t, srv, "/query"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("query without key: %s", resp.Status)
	}
	if resp, _ := get(t, srv, "/query?key=missing"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key: %s", resp.Status)
	}
	resp, body := post(t, srv, "/push?worker=w", []byte("not a wire blob"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt blob: %s", resp.Status)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("corrupt blob error body: %s (%v)", body, err)
	}
}

// TestServiceMultiWorkerMerge: two workers pushing the same key answer the
// merged view, bit-identical to the in-process merge of their captures.
func TestServiceMultiWorkerMerge(t *testing.T) {
	cfg := qlove.Config{Spec: qlove.Window{Size: 200, Period: 50}, Phis: []float64{0.5, 0.9}}
	agg := qlove.NewAggregator()
	srv := httptest.NewServer(New(agg).Handler())
	defer srv.Close()

	var snaps []qlove.Snapshot
	for w := 0; w < 2; w++ {
		eng := mkEngine(t, cfg)
		gen := workload.NewNetMon(int64(31 + w))
		if err := eng.Push("svc", workload.Generate(gen, 400)); err != nil {
			t.Fatal(err)
		}
		eng.Close()
		sn, ok := eng.Query("svc")
		if !ok {
			t.Fatal("capture missing")
		}
		snaps = append(snaps, sn)
		var cur qlove.ExportCursor
		var blob bytes.Buffer
		if _, err := eng.ExportDelta(&blob, &cur); err != nil {
			t.Fatal(err)
		}
		if resp, body := post(t, srv, fmt.Sprintf("/push?worker=w%d", w), blob.Bytes()); resp.StatusCode != http.StatusOK {
			t.Fatalf("push: %s: %s", resp.Status, body)
		}
	}
	ref, err := qlove.MergeSnapshots(snaps)
	if err != nil {
		t.Fatal(err)
	}
	_, body := get(t, srv, "/query?key=svc")
	var rep KeyReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Streams != 2 {
		t.Fatalf("streams %d, want 2", rep.Streams)
	}
	want := ref.Estimates()
	for i := range want {
		if math.Float64bits(rep.Estimates[i]) != math.Float64bits(want[i]) {
			t.Fatalf("merged ϕ[%d]: service %v != in-process %v", i, rep.Estimates[i], want[i])
		}
	}
}

// TestServiceWorkerGC: with a push deadline armed on the served
// aggregator, /snapshot and /healthz shrink after a worker goes silent —
// and never drop a worker that keeps pushing.
func TestServiceWorkerGC(t *testing.T) {
	cfg := qlove.Config{Spec: qlove.Window{Size: 256, Period: 64}, Phis: []float64{0.5}}
	now := time.Unix(4_000_000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	agg := qlove.NewAggregator()
	agg.SetPushDeadline(time.Minute, clock)
	server := New(agg)
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()

	export := func(seed int64, key string) []byte {
		eng := mkEngine(t, cfg)
		defer eng.Close()
		if err := eng.Push(key, workload.Generate(workload.NewNetMon(seed), 512)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := eng.Export(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	silent := export(1, "silent/latency")
	active := export(2, "active/latency")

	push := func(worker string, blob []byte) {
		t.Helper()
		resp, body := post(t, srv, "/push?worker="+worker, blob)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("push %s: %s (%s)", worker, resp.Status, body)
		}
	}
	keys := func() int {
		t.Helper()
		_, body := get(t, srv, "/snapshot")
		var doc struct {
			Keys []KeyReport `json:"keys"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		return len(doc.Keys)
	}
	workers := func() int {
		t.Helper()
		_, body := get(t, srv, "/healthz")
		var h Health
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatal(err)
		}
		return h.Workers
	}

	push("silent", silent)
	push("active", active)
	if keys() != 2 || workers() != 2 {
		t.Fatalf("keys=%d workers=%d, want 2/2", keys(), workers())
	}

	// The active worker keeps pushing within the deadline; the silent one
	// stops. The service's view shrinks to the active worker only.
	for i := 0; i < 3; i++ {
		advance(45 * time.Second)
		push("active", active)
	}
	if keys() != 1 || workers() != 1 {
		t.Fatalf("after silence: keys=%d workers=%d, want 1/1", keys(), workers())
	}
	if resp, _ := get(t, srv, "/query?key=silent/latency"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("silent worker's key still served: %s", resp.Status)
	}
	if resp, _ := get(t, srv, "/query?key=active/latency"); resp.StatusCode != http.StatusOK {
		t.Fatalf("active worker's key dropped: %s", resp.Status)
	}
}

// TestServiceHealthzDurability: /healthz stays 200 (the in-memory view
// still serves) but flips to status "degraded" with the persistence error
// spelled out once the disk store reports one. The fault is real: the
// state directory disappears under a store set to compact on every
// mutation, so the push after it cannot write its snapshot.
func TestServiceHealthzDurability(t *testing.T) {
	dir := t.TempDir()
	agg, err := qlove.NewAggregatorConfig(qlove.AggregatorConfig{Store: "disk", Dir: dir, CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	srv := httptest.NewServer(New(agg).Handler())
	defer srv.Close()

	resp, body := get(t, srv, "/healthz")
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Error != "" {
		t.Fatalf("healthy service: %s %+v", resp.Status, h)
	}

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	cfg := qlove.Config{Spec: qlove.Window{Size: 256, Period: 64}, Phis: []float64{0.5}, FewK: true}
	eng := mkEngine(t, cfg)
	defer eng.Close()
	if err := eng.Push("k", workload.Generate(workload.NewNetMon(3), 300)); err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if _, err := eng.Export(&blob); err != nil {
		t.Fatal(err)
	}
	if resp, body := post(t, srv, "/push?worker=w", blob.Bytes()); resp.StatusCode != http.StatusOK {
		t.Fatalf("push after the directory vanished must still fold in memory: %s: %s", resp.Status, body)
	}
	resp, body = get(t, srv, "/healthz")
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded service must still answer 200 (liveness): %s", resp.Status)
	}
	if h.Status != "degraded" || h.Error == "" || h.Error != agg.DurabilityErr().Error() {
		t.Fatalf("degraded healthz = %+v", h)
	}
}

// TestServiceMalformedKeyDisk: a disk-backed service sent a frame whose key
// carries a misplaced NUL answers 400 and goes on serving. net/http recovers
// a panicking handler, so when the store indexed past such a name with its
// lock held and the record already logged, the connection dropped, every
// later push blocked on the lock, and the directory panicked on reopen.
func TestServiceMalformedKeyDisk(t *testing.T) {
	acfg := qlove.AggregatorConfig{Store: "disk", Dir: t.TempDir()}
	agg, err := qlove.NewAggregatorConfig(acfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(agg).Handler())
	defer srv.Close()
	srv.Client().Timeout = 10 * time.Second // a wedged store fails the test, it does not hang it

	eng := mkEngine(t, qlove.Config{Spec: qlove.Window{Size: 256, Period: 64}, Phis: []float64{0.5}, FewK: true})
	defer eng.Close()
	export := func(key string) []byte {
		if err := eng.Push(key, workload.Generate(workload.NewNetMon(3), 300)); err != nil {
			t.Fatal(err)
		}
		var blob bytes.Buffer
		if _, err := eng.Export(&blob); err != nil {
			t.Fatal(err)
		}
		return blob.Bytes()
	}
	if resp, body := post(t, srv, "/push?worker=w", export("k")); resp.StatusCode != http.StatusOK {
		t.Fatalf("push: %s: %s", resp.Status, body)
	}
	for _, key := range []string{"abc\x00", "\x00", "a\x00bc"} {
		resp, body := post(t, srv, "/push?worker=w", wire.AppendTombstoneFrame(nil, key))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("tombstone for %q: %s: %s", key, resp.Status, body)
		}
	}
	if resp, body := post(t, srv, "/push?worker=w", export("k2")); resp.StatusCode != http.StatusOK {
		t.Fatalf("push after the refusals: %s: %s", resp.Status, body)
	}
	_, want := get(t, srv, "/snapshot")
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := qlove.NewAggregatorConfig(acfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	resrv := httptest.NewServer(New(re).Handler())
	defer resrv.Close()
	if _, got := get(t, resrv, "/snapshot"); !bytes.Equal(got, want) {
		t.Fatalf("reopened /snapshot diverges:\n%s\n%s", got, want)
	}
}
