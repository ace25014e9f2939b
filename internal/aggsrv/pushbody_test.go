package aggsrv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"repro"
	"repro/internal/race"
	"repro/internal/wire"
	"repro/internal/workload"
)

// scribblePushBodies overwrites, to their full capacity, the buffers
// pushBodies hands back right now (the ones the handlers that just returned
// Put there) and returns how many of them still held body.
func scribblePushBodies(body []byte) (held int) {
	var got []*bytes.Buffer
	for i := 0; i < 16; i++ {
		b := pushBodies.Get().(*bytes.Buffer)
		got = append(got, b)
		if b.Cap() == 0 {
			break // fresh from New: nothing left to take
		}
		if bytes.Equal(b.Bytes(), body) {
			held++
		}
		full := b.Bytes()[:cap(b.Bytes())]
		for j := range full {
			full[j] = 0xFF
		}
	}
	for _, b := range got {
		pushBodies.Put(b)
	}
	return held
}

func serve(t *testing.T, h http.Handler, method, path string, body []byte) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: %d: %s", method, path, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// TestPushBodyIsNotRetained holds the condition under which /push may read
// its body into a recycled buffer: nothing keeps the bytes once the handler
// has returned. A delta chain is pushed into a disk-backed server and through
// a fan-in (replication 2, in-process replicas), every handler runs on this
// goroutine so the buffer it returns to the pool is the one the pool hands
// back, and that buffer is overwritten with 0xFF after every push. /snapshot
// of both, and of the disk store reopened, must still equal — byte for byte —
// the /snapshot of an aggregator that Applied private copies of the blobs.
func TestPushBodyIsNotRetained(t *testing.T) {
	cfg := qlove.Config{Spec: qlove.Window{Size: 256, Period: 64}, Phis: []float64{0.5, 0.99, 0.999}, FewK: true}
	dir := t.TempDir()
	openDisk := func() *qlove.Aggregator {
		agg, err := qlove.NewAggregatorConfig(qlove.AggregatorConfig{Store: "disk", Dir: dir, Fsync: "none"})
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}
	disk := openDisk()
	server := New(disk).Handler()
	fx := newFaninFixture(t, 2, FaninConfig{Replication: 2}, memTransport{})
	fanin := fx.router.Handler()
	ref := qlove.NewAggregator()

	eng := mkEngine(t, cfg)
	defer eng.Close()
	gen := workload.NewNetMon(31)
	var cur qlove.ExportCursor
	const pushes = 8
	heldServer, heldFanin := 0, 0
	for round := 0; round < pushes; round++ {
		for k := 0; k < 40; k++ {
			if (k+round)%3 == 0 {
				continue // not every key changes every round
			}
			if err := eng.Push(fmt.Sprintf("svc-%02d/latency", k), workload.Generate(gen, 64+k)); err != nil {
				t.Fatal(err)
			}
		}
		var blob bytes.Buffer
		if _, err := eng.ExportDelta(&blob, &cur); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Apply("w0", bytes.NewReader(bytes.Clone(blob.Bytes()))); err != nil {
			t.Fatal(err)
		}
		serve(t, server, http.MethodPost, "/push?worker=w0", blob.Bytes())
		heldServer += scribblePushBodies(blob.Bytes())
		serve(t, fanin, http.MethodPost, "/push?worker=w0", blob.Bytes())
		heldFanin += scribblePushBodies(blob.Bytes())
	}
	if heldServer < pushes/2 || heldFanin < pushes/2 {
		if !race.Enabled {
			t.Fatalf("the pool handed back the body's buffer after %d of %d server pushes and %d of %d fan-in pushes: the overwrite proves nothing", heldServer, pushes, heldFanin, pushes)
		}
		t.Logf("race detector dropped pooled buffers: overwrote %d/%d server and %d/%d fan-in bodies", heldServer, pushes, heldFanin, pushes)
	}

	want := serve(t, New(ref).Handler(), http.MethodGet, "/snapshot", nil)
	if got := serve(t, server, http.MethodGet, "/snapshot", nil); !bytes.Equal(got, want) {
		t.Fatal("server /snapshot differs from the reference after its push bodies were overwritten")
	}
	if got := serve(t, fanin, http.MethodGet, "/snapshot", nil); !bytes.Equal(got, want) {
		t.Fatal("fan-in /snapshot differs from the reference after its push bodies were overwritten")
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := openDisk()
	defer reopened.Close()
	if got := serve(t, New(reopened).Handler(), http.MethodGet, "/snapshot", nil); !bytes.Equal(got, want) {
		t.Fatal("reopened disk store differs from the reference: the log kept bytes of a recycled push body")
	}
}

// routedParts returns the bytes the fan-in owes each replica for blob under
// table: every frame whose slot the replica owns, in blob order.
func routedParts(t *testing.T, table *qlove.SlotMap, replicas int, blob []byte) [][]byte {
	t.Helper()
	parts := make([][]byte, replicas)
	sc := wire.NewRawScanner(bytes.NewReader(blob))
	for {
		_, key, frame, err := sc.Next()
		if err == io.EOF {
			return parts
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range table.Owners(qlove.SlotOf(key)) {
			parts[o] = append(parts[o], frame...)
		}
	}
}

// TestFaninPushBodyOutlivesRoundTrip holds the fan-in's half of the pooled
// push body: net/http may read a request body after RoundTrip has returned,
// so a buffer the router forwards must not return to the pool until the
// transport closes the body that reads it. The router's transport acks every
// push without reading it, and reads each body on its own goroutine only
// after every push has been handled — each handler has returned and released
// its buffers, later pushes have taken buffers from the pool, and whatever
// the pool hands back has been overwritten. Every body must still read
// exactly the bytes routed to its replica: the blob as it arrived where the
// replica owns every frame (N = R), a part of the owned frames where it does
// not (N > R).
func TestFaninPushBodyOutlivesRoundTrip(t *testing.T) {
	for _, tc := range []struct{ n, r int }{{2, 2}, {3, 2}} {
		t.Run(fmt.Sprintf("N%d-R%d", tc.n, tc.r), func(t *testing.T) {
			type late struct {
				push, replica int
				got           []byte
			}
			var (
				mu    sync.Mutex
				lates []*late
				push  int // the push being handled; set between pushes only
				reads sync.WaitGroup
			)
			release := make(chan struct{})
			mem := memTransport{}
			hosts := map[string]int{}
			ackLater := roundTripFunc(func(req *http.Request) (*http.Response, error) {
				mu.Lock()
				l := &late{push: push, replica: hosts[req.URL.Host]}
				lates = append(lates, l)
				mu.Unlock()
				reads.Add(1)
				go func(body io.ReadCloser) {
					defer reads.Done()
					<-release
					if body != nil {
						l.got, _ = io.ReadAll(body)
						body.Close()
					}
				}(req.Body)
				ack, _ := json.Marshal(PushResult{Worker: "w"})
				return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(ack)), Request: req}, nil
			})
			fx := newFaninFixture(t, tc.n, FaninConfig{Replication: tc.r, Client: &http.Client{Transport: ackLater}}, mem)
			for i, u := range fx.router.Replicas() {
				hosts[u[len("http://"):]] = i
			}
			table := fx.router.SlotTable()
			h := newFaninEngine(t, 45, 12)
			const pushes = 6
			var want [pushes][][]byte
			for p := 0; p < pushes; p++ {
				push = p
				blob := h.round(t)
				want[p] = routedParts(t, table, tc.n, blob)
				serve(t, fx.router.Handler(), http.MethodPost, "/push?worker=w", blob)
				scribblePushBodies(nil)
			}
			close(release)
			reads.Wait()
			if len(lates) != pushes*tc.n {
				t.Fatalf("%d forwarded pushes, want %d", len(lates), pushes*tc.n)
			}
			whole := 0
			for _, l := range lates {
				w := want[l.push][l.replica]
				if !bytes.Equal(l.got, w) {
					t.Fatalf("push %d to replica %d read %d bytes after its handler returned, not the %d routed there: its buffer was recycled under it",
						l.push, l.replica, len(l.got), len(w))
				}
				if len(w) > 0 && tc.n == tc.r {
					whole++
				}
			}
			if tc.n == tc.r && whole != pushes*tc.n {
				t.Fatalf("only %d of %d forwarded bodies carried frames", whole, pushes*tc.n)
			}
		})
	}
}

// TestFaninPushAllocsAtFullReplication pins the point of forwarding the body
// that arrived: at R = N every replica owns every frame, so a push allocates
// less than one copy of its blob — routing, the requests and the acks —
// where building a part per replica cost a copy each.
func TestFaninPushAllocsAtFullReplication(t *testing.T) {
	faninPushAllocs(t, 2, 2)
}

// TestFaninPushAllocsSplitParts is the same bound at R < N, the default
// -fanin deployment: each replica owns some of the frames and gets a part of
// its own, built in one scan of the blob into pooled buffers that the
// transport's Close returns, so a steady stream of pushes reuses them.
func TestFaninPushAllocsSplitParts(t *testing.T) {
	faninPushAllocs(t, 2, 1)
}

// faninPushAllocs pushes a 1 000-frame delta blob through a fan-in over n
// replicas at replication r, whose transport drains and acks every request,
// and fails if a push allocates a full copy of the blob.
func faninPushAllocs(t *testing.T, n, r int) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own behalf and drops pooled buffers")
	}
	ack, _ := json.Marshal(PushResult{Worker: "w", Frames: 1000})
	drain := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(ack)), Request: req}, nil
	})
	fx := newFaninFixture(t, n, FaninConfig{Replication: r, Client: &http.Client{Transport: drain}}, memTransport{})

	// A 1 000-frame blob of one-summary deltas: every key's window is full
	// before the exported round seals one more period.
	cfg := qlove.Config{Spec: qlove.Window{Size: 256, Period: 64}, Phis: []float64{0.5, 0.99, 0.999}, FewK: true}
	eng := mkEngine(t, cfg)
	defer eng.Close()
	gen := workload.NewNetMon(47)
	var cur qlove.ExportCursor
	var blob bytes.Buffer
	for _, size := range []int{cfg.Spec.Size, cfg.Spec.Period} {
		for k := 0; k < 1000; k++ {
			if err := eng.Push(fmt.Sprintf("svc-%04d/latency", k), workload.Generate(gen, size)); err != nil {
				t.Fatal(err)
			}
		}
		blob.Reset()
		if _, err := eng.ExportDelta(&blob, &cur); err != nil {
			t.Fatal(err)
		}
	}

	h := fx.router.Handler()
	push := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/push?worker=w", bytes.NewReader(blob.Bytes())))
		if rec.Code != http.StatusOK {
			t.Fatalf("push: %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	const runs = 20
	allocs := testing.AllocsPerRun(runs, push)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		push()
	}
	runtime.ReadMemStats(&after)
	perPush := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("a %d-byte, 1000-frame push over %d replicas at R = %d: %d B and %.0f allocations", blob.Len(), n, r, perPush, allocs)
	if perPush >= uint64(blob.Len()) {
		t.Fatalf("a push over %d replicas at R = %d allocated %d B, at least one copy of its %d-byte blob", n, r, perPush, blob.Len())
	}
}
