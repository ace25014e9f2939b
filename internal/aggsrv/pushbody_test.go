package aggsrv

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro"
	"repro/internal/race"
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
