package qlove

import (
	"bytes"
	"io"
	"slices"
	"testing"

	"repro/internal/wire"
)

// frameKeys lists the key of every frame in a wire blob, in blob order.
func frameKeys(t *testing.T, blob []byte) []string {
	t.Helper()
	var keys []string
	dec := wire.NewDecoder(bytes.NewReader(blob))
	for {
		f, err := dec.DecodeFrame()
		if err == io.EOF {
			return keys
		}
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, f.Key)
	}
}

// TestParkedNameIsInvisibleUntilInstalled pins the window a migration opens
// between ctlPrepare and ctlInstall: the destination shard holds a parking
// entry — a name with batches queued under it and NO operator — and every
// read that walks or probes the key map has to step over it. The prepare
// runs outside the engine's write lock, so Snapshot, Export, Query,
// ExportKeys and a scanning ExportDelta can all land in that window; each
// dereferences the entry's operator, so a missing guard is a nil
// dereference on the shard goroutine. Install then delivers what was parked.
func TestParkedNameIsInvisibleUntilInstalled(t *testing.T) {
	cfg := Config{Spec: Window{Size: 64, Period: 16}, Phis: []float64{0.5, 0.99}, FewK: true}
	e, err := NewEngine(EngineConfig{Config: cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	done := drainResults(e)
	defer func() { e.Close(); <-done }()
	report := make([]float64, 16)
	for i := range report {
		report[i] = float64(i)
	}
	resident := []string{"a", "b", "c", "d", "e", "f"}
	for _, k := range resident {
		if err := e.Push(k, report); err != nil {
			t.Fatal(err)
		}
	}
	var cur ExportCursor
	var blob bytes.Buffer
	if _, err := e.ExportDelta(&blob, &cur); err != nil {
		t.Fatal(err)
	}

	const parked = "parked"
	home := e.shardOf(parked)
	if r, ok := e.sendCtl(home, &engineCtl{op: ctlPrepare, key: parked}); !ok || !r.ok {
		t.Fatal("prepare refused")
	}
	for i := 0; i < 3; i++ {
		if err := e.Push(parked, report); err != nil {
			t.Fatal(err)
		}
	}

	if keys := e.Snapshot().Keys(); !slices.Equal(keys, resident) {
		t.Fatalf("Snapshot captured %q, want %q", keys, resident)
	}
	blob.Reset()
	if _, err := e.Export(&blob); err != nil {
		t.Fatal(err)
	}
	if keys := frameKeys(t, blob.Bytes()); !slices.Equal(keys, resident) {
		t.Fatalf("Export shipped %q, want %q", keys, resident)
	}
	if _, ok := e.Query(parked); ok {
		t.Fatal("Query answered for a name with no operator")
	}
	blob.Reset()
	if _, err := e.ExportKeys(&blob, parked, "a"); err != nil {
		t.Fatal(err)
	}
	if keys := frameKeys(t, blob.Bytes()); !slices.Equal(keys, []string{"a"}) {
		t.Fatalf("ExportKeys shipped %q, want only \"a\"", keys)
	}
	// A fresh cursor scans every shard's key map; the current one walks the
	// journals, which never link a parking entry.
	blob.Reset()
	if _, err := e.ExportDelta(&blob, new(ExportCursor)); err != nil {
		t.Fatal(err)
	}
	if keys := frameKeys(t, blob.Bytes()); !slices.Equal(keys, resident) {
		t.Fatalf("bootstrap ExportDelta shipped %q, want %q", keys, resident)
	}
	blob.Reset()
	if _, err := e.ExportDelta(&blob, &cur); err != nil {
		t.Fatal(err)
	}
	if blob.Len() != 0 {
		t.Fatalf("current-cursor ExportDelta shipped %q, want nothing", frameKeys(t, blob.Bytes()))
	}
	// The parking spot is a slot in the key map, which is what Keys and
	// ShardStats.ResidentKeys count.
	if got, want := e.Keys(), int(e.Stats().Total().ResidentKeys); got != want || got != len(resident)+1 {
		t.Fatalf("Keys() = %d, ResidentKeys = %d, want %d", got, want, len(resident)+1)
	}
	if !e.Evict("f") || e.Evict("never-pushed") {
		t.Fatal("Evict beside a parked name: resident key not found, or unknown key found")
	}

	if _, ok := e.sendCtl(home, &engineCtl{op: ctlInstall, key: parked}); !ok {
		t.Fatal("install refused")
	}
	sn, ok := e.Query(parked)
	if !ok || sn.Elements() != 3*len(report) {
		t.Fatalf("after install: resident %v with %d elements, want the %d parked", ok, sn.Elements(), 3*len(report))
	}
	blob.Reset()
	if _, err := e.ExportDelta(&blob, &cur); err != nil {
		t.Fatal(err)
	}
	if keys := frameKeys(t, blob.Bytes()); !slices.Equal(keys, []string{"f", parked}) {
		t.Fatalf("ExportDelta after install shipped %q, want f's tombstone and the parked key", keys)
	}
}
