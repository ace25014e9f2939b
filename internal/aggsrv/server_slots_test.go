package aggsrv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro"
	"repro/internal/workload"
)

// TestServiceSlotEndpoints pins the per-server slot migration surface:
// /slots/export lifts exactly the requested slots' state as re-pushable
// worker blobs, /slots/drop removes exactly those slots, and parameters
// are validated.
func TestServiceSlotEndpoints(t *testing.T) {
	cfg := qlove.Config{Spec: qlove.Window{Size: 256, Period: 64}, Phis: []float64{0.5}, FewK: true}

	// Two keys in distinct slots (the hash is deterministic; scan for a
	// pair rather than hard-coding hash values).
	ka := "key-0"
	kb := ""
	for i := 1; kb == ""; i++ {
		if k := fmt.Sprintf("key-%d", i); qlove.SlotOf(k) != qlove.SlotOf(ka) {
			kb = k
		}
	}
	sa, sb := qlove.SlotOf(ka), qlove.SlotOf(kb)

	eng := mkEngine(t, cfg)
	for _, k := range []string{ka, kb} {
		if err := eng.Push(k, workload.Generate(workload.NewNetMon(7), 300)); err != nil {
			t.Fatal(err)
		}
	}
	var blob bytes.Buffer
	if _, err := eng.Export(&blob); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	srv := httptest.NewServer(New(nil).Handler())
	t.Cleanup(srv.Close)
	if resp, body := post(t, srv, "/push?worker=w", blob.Bytes()); resp.StatusCode != http.StatusOK {
		t.Fatalf("push: %s: %s", resp.Status, body)
	}

	// Export one slot; replaying its blobs onto an empty server moves
	// exactly that slot's key, byte-identically.
	resp, body := get(t, srv, fmt.Sprintf("/slots/export?slot=%d", sa))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export: %s: %s", resp.Status, body)
	}
	var exp SlotExport
	if err := json.Unmarshal(body, &exp); err != nil {
		t.Fatal(err)
	}
	if len(exp.Slots) != 1 || exp.Slots[0] != sa || len(exp.Workers) != 1 || exp.Workers[0].Worker != "w" {
		t.Fatalf("export document: %s", body)
	}
	dst := httptest.NewServer(New(nil).Handler())
	t.Cleanup(dst.Close)
	for _, wb := range exp.Workers {
		if resp, body := post(t, dst, "/push?worker="+wb.Worker, wb.Blob); resp.StatusCode != http.StatusOK {
			t.Fatalf("replay: %s: %s", resp.Status, body)
		}
	}
	_, qa := get(t, srv, "/query?key="+ka)
	if resp, qd := get(t, dst, "/query?key="+ka); resp.StatusCode != http.StatusOK || !bytes.Equal(qd, qa) {
		t.Fatalf("replayed key diverges: %s: %s", resp.Status, qd)
	}
	if resp, _ := get(t, dst, "/query?key="+kb); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unexported key present on destination: %s", resp.Status)
	}

	// Multi-slot export carries both keys in one blob per worker.
	resp, body = get(t, srv, fmt.Sprintf("/slots/export?slots=%d,%d", sa, sb))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("multi export: %s: %s", resp.Status, body)
	}
	var multi SlotExport
	if err := json.Unmarshal(body, &multi); err != nil {
		t.Fatal(err)
	}
	dst2 := httptest.NewServer(New(nil).Handler())
	t.Cleanup(dst2.Close)
	for _, wb := range multi.Workers {
		if resp, body := post(t, dst2, "/push?worker="+wb.Worker, wb.Blob); resp.StatusCode != http.StatusOK {
			t.Fatalf("multi replay: %s: %s", resp.Status, body)
		}
	}
	for _, k := range []string{ka, kb} {
		_, want := get(t, srv, "/query?key="+k)
		if resp, got := get(t, dst2, "/query?key="+k); resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("multi-replayed key %q diverges: %s", k, resp.Status)
		}
	}

	// Drop removes exactly the requested slot.
	resp, body = post(t, srv, fmt.Sprintf("/slots/drop?slot=%d", sa), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drop: %s: %s", resp.Status, body)
	}
	var dropped struct {
		Slots   []int `json:"slots"`
		Dropped int   `json:"dropped"`
	}
	if err := json.Unmarshal(body, &dropped); err != nil {
		t.Fatal(err)
	}
	if dropped.Dropped < 1 {
		t.Fatalf("drop ack: %s", body)
	}
	if resp, _ := get(t, srv, "/query?key="+ka); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("dropped key still present: %s", resp.Status)
	}
	if resp, _ := get(t, srv, "/query?key="+kb); resp.StatusCode != http.StatusOK {
		t.Fatalf("undropped key lost: %s", resp.Status)
	}

	// Parameter and method validation.
	for _, bad := range []struct {
		name string
		do   func() *http.Response
		want int
	}{
		{"export no slots", func() *http.Response { r, _ := get(t, srv, "/slots/export"); return r }, http.StatusBadRequest},
		{"export both params", func() *http.Response { r, _ := get(t, srv, "/slots/export?slot=1&slots=2"); return r }, http.StatusBadRequest},
		{"export bad slot", func() *http.Response { r, _ := get(t, srv, "/slots/export?slot=256"); return r }, http.StatusBadRequest},
		{"export not a number", func() *http.Response { r, _ := get(t, srv, "/slots/export?slots=1,x"); return r }, http.StatusBadRequest},
		{"export wrong method", func() *http.Response { r, _ := post(t, srv, "/slots/export?slot=1", nil); return r }, http.StatusMethodNotAllowed},
		{"drop wrong method", func() *http.Response { r, _ := get(t, srv, "/slots/drop?slot=1"); return r }, http.StatusMethodNotAllowed},
		{"drop bad slot", func() *http.Response { r, _ := post(t, srv, "/slots/drop?slot=-1", nil); return r }, http.StatusBadRequest},
	} {
		if resp := bad.do(); resp.StatusCode != bad.want {
			t.Fatalf("%s: %s, want %d", bad.name, resp.Status, bad.want)
		}
	}
}
