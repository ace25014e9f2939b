package aggstore_test

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	qlove "repro"
	"repro/internal/aggstore"
	"repro/internal/core"
	"repro/internal/wire"
)

// chain returns one worker's push blobs: an ExportDelta after each of
// rounds rounds of pushes to three keys. Key "b" is evicted in round 2 and
// pushed again from round 3, so a chain of four or more rounds holds
// bootstrap, delta and tombstone frames.
func chain(t testing.TB, seed int64, rounds int) [][]byte {
	t.Helper()
	eng, err := qlove.NewEngine(qlove.EngineConfig{
		Config: qlove.Config{Spec: qlove.Window{Size: 64, Period: 16}, Phis: []float64{0.5, 0.99}, FewK: true},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range eng.Results() {
		}
	}()
	defer func() { eng.Close(); <-done }()
	rng := rand.New(rand.NewSource(seed))
	var cur qlove.ExportCursor
	var blobs [][]byte
	for r := 0; r < rounds; r++ {
		for _, k := range []string{"a", "b", "c"} {
			if r == 2 && k == "b" {
				continue
			}
			vs := make([]float64, 16+rng.Intn(48))
			for i := range vs {
				vs[i] = rng.NormFloat64()
			}
			if err := eng.Push(k, vs); err != nil {
				t.Fatal(err)
			}
		}
		if r == 2 && !eng.Evict("b") {
			t.Fatal("evict b")
		}
		var buf bytes.Buffer
		if _, err := eng.ExportDelta(&buf, &cur); err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, buf.Bytes())
	}
	return blobs
}

// eachFrame decodes blob, calling fn with every frame and the bytes the
// decoder lends for it.
func eachFrame(t testing.TB, blob []byte, fn func(f wire.Frame, raw []byte)) {
	t.Helper()
	dec := wire.NewDecoder(bytes.NewReader(blob))
	for {
		f, err := dec.DecodeFrame()
		if err == io.EOF {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		fn(f, dec.Raw())
	}
}

// applyBlob folds blob into s the way qlove.Aggregator.Apply does with no
// push deadline armed: one Touch, then ApplyFrame per frame.
func applyBlob(t testing.TB, s aggstore.Store, worker string, blob []byte) {
	t.Helper()
	s.Touch(worker, time.Time{})
	eachFrame(t, blob, func(f wire.Frame, raw []byte) {
		if err := s.ApplyFrame(worker, f, raw); err != nil {
			t.Fatal(err)
		}
	})
}

func openAgg(t testing.TB, dir string) *qlove.Aggregator {
	t.Helper()
	agg, err := qlove.NewAggregatorConfig(qlove.AggregatorConfig{Store: "disk", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

func openDisk(t testing.TB, dir string) *aggstore.Disk {
	t.Helper()
	d, err := aggstore.OpenDisk(aggstore.DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func closeOK(t testing.TB, c io.Closer) {
	t.Helper()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskMixedEraRecovery: a directory whose WAL holds state records (the
// only records written before folds were logged as frames), then frame
// records from a disk aggregator, then a compaction, then more frame
// records, reopens to exactly the state a Map reference folded — the delta
// chains continuing across each change of record format.
//
// No store writes state records any more, so the first era is a checked-in
// WAL, testdata/state_records.wal. A Disk that still had the writers made
// it: for each of the blobs chain(1, 7)[:3] it logged Touch("wa", zero
// time), then folded each frame into a Map and logged the resulting state
// through ReplaceGroup (full frames and bootstraps), Put (deltas) or Drop
// (b's tombstone). Then, all with c's state, it logged BootstrapSub of
// "s\x00\x01"; ReplaceGroup of "t" and BootstrapSub of "t\x00\x02", which
// retires base t; BootstrapSub of "u\x00\x01" and ReplaceGroup of "u",
// which retires the sub-stream. Its 17 records hold every state-record op,
// each where it differs from a plain put.
func TestDiskMixedEraRecovery(t *testing.T) {
	wa, wb := chain(t, 1, 7), chain(t, 2, 5)
	dir := t.TempDir()
	legacy, err := os.ReadFile(filepath.Join("testdata", "state_records.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.log"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	// The reference folds the same history as frames; the bootstraps of
	// c's state are from-generation-0 deltas.
	ref := aggstore.NewMap()
	for _, blob := range wa[:3] {
		applyBlob(t, ref, "wa", blob)
	}
	c := ref.Group("wa", "c")
	if len(c) != 1 {
		t.Fatalf("wa holds %d states for c, want 1", len(c))
	}
	sn, err := core.NewSnapshot(c[0].State.Parts)
	if err != nil {
		t.Fatal(err)
	}
	boot, err := wire.NewDelta(sn, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		wire.SaltedName("s", 1), "t", wire.SaltedName("t", 2), wire.SaltedName("u", 1), "u",
	} {
		eachFrame(t, wire.AppendDeltaFrame(nil, name, boot), func(f wire.Frame, raw []byte) {
			if err := ref.ApplyFrame("wa", f, raw); err != nil {
				t.Fatal(err)
			}
		})
	}
	if got, want := aggstore.ResidentNames(ref, "wa"), []string{"a", "c", "s\x00\x01", "t\x00\x02", "u"}; !slices.Equal(got, want) {
		t.Fatalf("reference holds %q, want %q", got, want)
	}
	d := openDisk(t, dir)
	aggstore.RequireSameState(t, d, ref, "state records")
	closeOK(t, d)

	// Frame records on top, from a disk aggregator: wa's chain continues
	// from its state records, wb's starts.
	agg := openAgg(t, dir)
	push := func(worker string, blobs [][]byte) {
		t.Helper()
		for _, blob := range blobs {
			if _, err := agg.Apply(worker, bytes.NewReader(blob)); err != nil {
				t.Fatal(err)
			}
			applyBlob(t, ref, worker, blob)
		}
	}
	push("wa", wa[3:5])
	push("wb", wb[:3])
	closeOK(t, agg)

	d = openDisk(t, dir)
	aggstore.RequireSameState(t, d, ref, "state records then frame records")
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	closeOK(t, d)

	agg = openAgg(t, dir)
	push("wa", wa[5:])
	push("wb", wb[3:])
	closeOK(t, agg)

	d = openDisk(t, dir)
	defer d.Close()
	aggstore.RequireSameState(t, d, ref, "snapshot then frame records")
}

// TestDiskAggregatorLogsReceivedFrames: a blob applied through a disk
// aggregator adds its push's one touch record plus one frame record per
// frame, each holding the frame byte for byte as the worker sent it, and no
// state record. A delta the fold rejects logs nothing.
func TestDiskAggregatorLogsReceivedFrames(t *testing.T) {
	blobs := chain(t, 3, 3)
	dir := t.TempDir()
	agg := openAgg(t, dir)
	defer agg.Close()
	for _, blob := range blobs[:2] {
		if _, err := agg.Apply("w", bytes.NewReader(blob)); err != nil {
			t.Fatal(err)
		}
	}
	_, before := aggstore.ReadWAL(t, dir)
	n, err := agg.Apply("w", bytes.NewReader(blobs[2]))
	if err != nil {
		t.Fatal(err)
	}
	var sent [][]byte
	sc := wire.NewRawScanner(bytes.NewReader(blobs[2]))
	for {
		_, _, frame, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, append([]byte(nil), frame...))
	}
	var kinds []wire.Kind
	eachFrame(t, blobs[2], func(f wire.Frame, _ []byte) { kinds = append(kinds, f.Kind) })
	if n != len(sent) || !containsKind(kinds, wire.KindDelta) || !containsKind(kinds, wire.KindTombstone) {
		t.Fatalf("applied %d of %d frames, kinds %v; want deltas and a tombstone", n, len(sent), kinds)
	}

	_, after := aggstore.ReadWAL(t, dir)
	added := after[len(before):]
	if len(added) != 1+len(sent) || added[0].Op != aggstore.RecTouch {
		t.Fatalf("the push added %d records (first op %d), want a touch and %d frame records", len(added), added[0].Op, len(sent))
	}
	for i, r := range added[1:] {
		if r.Op != aggstore.RecFrame || r.Worker != "w" || !bytes.Equal(r.Rest, sent[i]) {
			t.Fatalf("record %d: op %d worker %q, %d bytes; want frame %d as sent (%d bytes)", i, r.Op, r.Worker, len(r.Rest), i, len(sent[i]))
		}
	}

	// blobs[1] again: its first delta's cursor is behind the resident state.
	if _, err := agg.Apply("w", bytes.NewReader(blobs[1])); err == nil {
		t.Fatal("a stale delta folded")
	}
	_, again := aggstore.ReadWAL(t, dir)
	if len(again) != len(after)+1 || again[len(after)].Op != aggstore.RecTouch {
		t.Fatalf("the rejected push added %d records, want its touch alone", len(again)-len(after))
	}
}

func containsKind(kinds []wire.Kind, k wire.Kind) bool {
	for _, got := range kinds {
		if got == k {
			return true
		}
	}
	return false
}

// digest renders a store's observable state — workers, their internal
// names, each state as a full frame — as one comparable string.
func digest(t testing.TB, s aggstore.Store) string {
	t.Helper()
	var b []byte
	for _, w := range s.Workers(nil) {
		b = append(append(b, w...), 0)
		for _, ns := range s.NamesMatching(w, func(string) bool { return true }) {
			sn, err := core.NewSnapshot(ns.State.Parts)
			if err != nil {
				t.Fatal(err)
			}
			b = wire.AppendFrame(b, ns.Name, sn)
		}
	}
	return string(b)
}

// FuzzDiskReplay damages a small WAL of frame records — cut to its first
// cut bytes, the byte at offset at XORed with flip — and reopens it.
// Recovery must neither panic nor fail, and must yield the live store's
// state after exactly the records that end before the first damaged byte: a
// prefix of the applied history.
func FuzzDiskReplay(f *testing.F) {
	dir := f.TempDir()
	d := openDisk(f, dir)
	history := []string{digest(f, d)} // history[i]: the state after i records
	for i, blob := range chain(f, 4, 4) {
		d.Touch("w", time.Unix(int64(i), 0))
		history = append(history, digest(f, d))
		eachFrame(f, blob, func(fr wire.Frame, raw []byte) {
			if err := d.ApplyFrame("w", fr, raw); err != nil {
				f.Fatal(err)
			}
			history = append(history, digest(f, d))
		})
	}
	closeOK(f, d)
	path, recs := aggstore.ReadWAL(f, dir)
	wal, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	if len(recs) != len(history)-1 || recs[len(recs)-1].End != len(wal) || len(wal) > 1<<16-1 {
		f.Fatalf("%d records over %d bytes for %d applied ops", len(recs), len(wal), len(history)-1)
	}
	// intact counts the records that end at or before offset x.
	intact := func(x int) int {
		n := 0
		for n < len(recs) && recs[n].End <= x {
			n++
		}
		return n
	}

	f.Add(uint16(len(wal)), uint16(0), byte(0))
	f.Add(uint16(recs[len(recs)-1].Start+5), uint16(0), byte(0))
	f.Add(uint16(len(wal)), uint16(recs[2].Start+20), byte(0x10))
	f.Fuzz(func(t *testing.T, cut, at uint16, flip byte) {
		data := append([]byte(nil), wal...)
		want := len(recs)
		if flip != 0 {
			i := int(at) % len(data)
			data[i] ^= flip
			want = min(want, intact(i))
		}
		if int(cut) < len(data) {
			data = data[:cut]
			want = min(want, intact(int(cut)))
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(path)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := aggstore.OpenDisk(aggstore.DiskConfig{Dir: dir, Fsync: aggstore.FsyncNone})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer d.Close()
		if digest(t, d) != history[want] {
			t.Fatalf("recovered state is not the state after the %d records before the damage", want)
		}
	})
}
