package qlove

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/wire"
	"repro/internal/workload"
)

func TestExportCursorMarshalRoundTrip(t *testing.T) {
	// Empty cursor round-trips to the equivalent of the zero cursor.
	var empty ExportCursor
	blob, err := empty.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back ExportCursor
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if back.have || len(back.shards) != 0 || len(back.keys) != 0 {
		t.Fatalf("empty cursor round-tripped to %+v", back)
	}

	// A filled cursor round-trips field for field, and marshaling is
	// deterministic (sorted key order).
	eng, err := NewEngine(EngineConfig{
		Config: Config{Spec: Window{Size: 128, Period: 64}, Phis: []float64{0.5, 0.99}},
		Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := drainResults(eng)
	defer func() { eng.Close(); <-done }()
	gen := workload.NewNetMon(11)
	for _, key := range []string{"a", "b", "c", "d", "e"} {
		if err := eng.Push(key, workload.Generate(gen, 256)); err != nil {
			t.Fatal(err)
		}
	}
	var cur ExportCursor
	var sink bytes.Buffer
	if _, err := eng.ExportDelta(&sink, &cur); err != nil {
		t.Fatal(err)
	}
	blob, err = cur.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	blob2, err := cur.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("MarshalBinary is not deterministic")
	}
	var got ExportCursor
	if err := got.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if got.have != cur.have || got.engine != cur.engine ||
		!reflect.DeepEqual(got.shards, cur.shards) || !reflect.DeepEqual(got.keys, cur.keys) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, cur)
	}
}

func TestExportCursorUnmarshalErrors(t *testing.T) {
	var cur ExportCursor
	good, err := cur.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("XXXX"),
		"truncated":   good[:len(good)-1],
		"trailing":    append(append([]byte(nil), good...), 0xff),
		"bad version": append(append([]byte(nil), good[:4]...), 99),
	}
	for name, blob := range cases {
		c := ExportCursor{have: true, shards: []uint64{7}}
		if err := c.UnmarshalBinary(blob); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if c.have || c.shards != nil || c.keys != nil {
			t.Fatalf("%s: receiver not reset after error: %+v", name, c)
		}
	}
}

// TestExportCursorResumesDeltas is the restart scenario the serialized
// form exists for: an exporter dies after its cursor was persisted; the
// restarted exporter deserializes it and its next ExportDelta carries NO
// re-bootstrap frames — only true deltas anchored at the cursor's
// generations (and nothing at all for untouched keys) — and the
// destination's fold stays bit-identical to a full export.
func TestExportCursorResumesDeltas(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Config: Config{Spec: Window{Size: 128, Period: 64}, Phis: []float64{0.5, 0.99}, FewK: true},
		Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := drainResults(eng)
	defer func() { eng.Close(); <-done }()

	gen := workload.NewNetMon(21)
	keys := []string{"api/a", "api/b", "api/c", "api/d"}
	for _, key := range keys {
		if err := eng.Push(key, workload.Generate(gen, 256)); err != nil {
			t.Fatal(err)
		}
	}

	// First exporter session: bootstrap everything, persist the cursor.
	agg := NewAggregator()
	var cur ExportCursor
	var buf bytes.Buffer
	if _, err := eng.ExportDelta(&buf, &cur); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Apply("w", bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	persisted, err := cur.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// The exporter "restarts": a fresh cursor deserialized from disk.
	var restored ExportCursor
	if err := restored.UnmarshalBinary(persisted); err != nil {
		t.Fatal(err)
	}

	// More traffic for SOME keys; api/c and api/d stay untouched.
	for _, key := range keys[:2] {
		if err := eng.Push(key, workload.Generate(gen, 192)); err != nil {
			t.Fatal(err)
		}
	}

	buf.Reset()
	if _, err := eng.ExportDelta(&buf, &restored); err != nil {
		t.Fatal(err)
	}
	dec := wire.NewDecoder(bytes.NewReader(buf.Bytes()))
	frames := 0
	for {
		f, err := dec.DecodeFrame()
		if err != nil {
			break // io.EOF ends the blob
		}
		frames++
		switch f.Kind {
		case wire.KindFull:
			t.Fatalf("key %q re-shipped as a full frame after cursor restore", f.Key)
		case wire.KindTombstone:
			t.Fatalf("spurious tombstone for %q", f.Key)
		case wire.KindDelta:
			if f.Delta.FromGen() == 0 {
				t.Fatalf("key %q re-bootstrapped (from-generation-0) after cursor restore", f.Key)
			}
		}
	}
	if frames != 2 {
		t.Fatalf("resumed export shipped %d frames, want 2 (only the touched keys)", frames)
	}
	if _, err := agg.Apply("w", bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	requireSameView(t, agg, eng)
}

// TestExportCursorRejectsRebuiltEngine: a persisted cursor restored
// against a REBUILT engine must not anchor deltas on the new engine's
// counters — per-shard incarnations restart at 1, so the first key on a
// shard collides with the old engine's and a naive resume would fold
// new-engine summaries onto old-engine state at the destination. The
// engine binding forces a tombstone+bootstrap re-ship instead, and the
// destination ends bit-identical to the new engine's full export.
func TestExportCursorRejectsRebuiltEngine(t *testing.T) {
	cfg := Config{Spec: Window{Size: 256, Period: 64}, Phis: []float64{0.5, 0.99}}
	agg := NewAggregator()

	// Old engine: 2 seals for "k", exported and persisted.
	old, err := NewEngine(EngineConfig{Config: cfg, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	oldDone := drainResults(old)
	if err := old.Push("k", workload.Generate(workload.NewNetMon(31), 128)); err != nil {
		t.Fatal(err)
	}
	var cur ExportCursor
	var buf bytes.Buffer
	if _, err := old.ExportDelta(&buf, &cur); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Apply("w", bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	persisted, err := cur.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	old.Close()
	<-oldDone

	// The worker restarts: a rebuilt engine whose "k" is again incarnation
	// 1 on its shard, sealing 3 generations — ONE past the cursor's 2, the
	// shape where a colliding resume ships a 1-summary delta that splices
	// old and new windows at the destination.
	rebuilt, err := NewEngine(EngineConfig{Config: cfg, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := drainResults(rebuilt)
	defer func() { rebuilt.Close(); <-done }()
	if err := rebuilt.Push("k", workload.Generate(workload.NewNetMon(99), 192)); err != nil {
		t.Fatal(err)
	}

	var restored ExportCursor
	if err := restored.UnmarshalBinary(persisted); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := rebuilt.ExportDelta(&buf, &restored); err != nil {
		t.Fatal(err)
	}
	// The blob must re-ship, not resume: tombstone + from-generation-0.
	dec := wire.NewDecoder(bytes.NewReader(buf.Bytes()))
	sawTombstone, sawBootstrap := false, false
	for {
		f, err := dec.DecodeFrame()
		if err != nil {
			break
		}
		switch f.Kind {
		case wire.KindTombstone:
			sawTombstone = true
		case wire.KindDelta:
			if f.Delta.FromGen() != 0 {
				t.Fatalf("rebuilt engine resumed a delta from generation %d", f.Delta.FromGen())
			}
			sawBootstrap = true
		case wire.KindFull:
			sawBootstrap = true
		}
	}
	if !sawTombstone || !sawBootstrap {
		t.Fatalf("expected tombstone+bootstrap re-ship, got tombstone=%v bootstrap=%v", sawTombstone, sawBootstrap)
	}
	if _, err := agg.Apply("w", bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	requireSameView(t, agg, rebuilt)
}

// FuzzExportCursorUnmarshal: a persisted cursor is bytes from outside the
// program. No input may panic the decoder; a cursor that decodes must
// re-marshal to bytes that decode to an equal cursor; and ExportDelta must
// succeed with it on a 4-shard engine whose departures logs have outrun
// older clocks — once as decoded (a foreign cursor, unless it names this
// engine), once bound to this engine, so fuzzed clocks reach the journal
// walk and the per-shard tombstone fallback that hashes every cursor key.
// Seeded with TestExportCursorUnmarshalErrors' inputs and a real cursor.
func FuzzExportCursorUnmarshal(f *testing.F) {
	eng, err := NewEngine(EngineConfig{
		Config: Config{Spec: Window{Size: 64, Period: 16}, Phis: []float64{0.5, 0.99}, FewK: true},
		Shards: 4,
	})
	if err != nil {
		f.Fatal(err)
	}
	done := drainResults(eng)
	f.Cleanup(func() { eng.Close(); <-done })
	vs := workload.Generate(workload.NewNetMon(3), 16)
	const keys = 400
	for i := range keys {
		if err := eng.Push(fmt.Sprintf("key-%d", i), vs); err != nil {
			f.Fatal(err)
		}
	}
	var cur ExportCursor
	if _, err := eng.ExportDelta(io.Discard, &cur); err != nil {
		f.Fatal(err)
	}
	// ~95 departures against ~5 resident keys per shard: past every log's cap.
	for i := range keys - 20 {
		eng.Evict(fmt.Sprintf("key-%d", i))
	}
	filled, err := cur.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	good, err := new(ExportCursor).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		filled, good, {}, []byte("XXXX"), good[:len(good)-1],
		append(append([]byte(nil), good...), 0xff),
		append(append([]byte(nil), good[:4]...), 99),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var c ExportCursor
		if c.UnmarshalBinary(data) != nil {
			return
		}
		again, err := c.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded cursor does not marshal: %v", err)
		}
		var d ExportCursor
		if err := d.UnmarshalBinary(again); err != nil {
			t.Fatalf("re-marshaled cursor does not decode: %v", err)
		}
		if d.have != c.have || d.engine != c.engine || !slices.Equal(d.shards, c.shards) || !maps.Equal(d.keys, c.keys) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", d, c)
		}
		if _, err := eng.ExportDelta(io.Discard, &c); err != nil {
			t.Fatalf("export with the decoded cursor: %v", err)
		}
		d.engine = eng.id
		if _, err := eng.ExportDelta(io.Discard, &d); err != nil {
			t.Fatalf("export with the cursor bound to the engine: %v", err)
		}
	})
}
