package qlove

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/wire"
)

// malformedKeys are internal names no engine can mint: the NUL separator
// anywhere but the second-to-last byte.
var malformedKeys = []string{"abc\x00", "\x00", "a\x00bc"}

// malformedKeyFrames is every frame kind under every malformed key: well
// formed as wire frames, so they decode, and refused only for the name.
func malformedKeyFrames(tb testing.TB, sn Snapshot) map[string][]byte {
	tb.Helper()
	d, err := sn.Delta(0)
	if err != nil {
		tb.Fatal(err)
	}
	frames := make(map[string][]byte)
	for _, k := range malformedKeys {
		frames[fmt.Sprintf("tombstone %q", k)] = wire.AppendTombstoneFrame(nil, k)
		frames[fmt.Sprintf("full %q", k)] = wire.AppendFrame(nil, k, sn)
		frames[fmt.Sprintf("delta %q", k)] = wire.AppendDeltaFrame(nil, k, d)
	}
	return frames
}

// applyWithin fails the test when one Apply outlives the deadline: a store
// that kept its lock over a panic blocks here, it does not return.
func applyWithin(t *testing.T, a *Aggregator, worker string, blob []byte) (int, error) {
	t.Helper()
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := a.Apply(worker, bytes.NewReader(blob))
		done <- result{n, err}
	}()
	select {
	case r := <-done:
		return r.n, r.err
	case <-time.After(10 * time.Second):
		t.Fatal("Apply did not return: the store is wedged")
		return 0, nil
	}
}

// TestAggregatorRejectsMalformedKeys: a pushed frame whose key carries a
// misplaced NUL is refused with wire.ErrCorrupt before any store sees the
// name — nothing folded, nothing logged — on every backend and for every
// frame kind; the aggregator keeps folding later pushes, and a disk backend
// reopens to the same bytes. Once the stores split on the FIRST NUL and read
// the byte after it: "abc\x00" panicked a store that had already logged the
// record, so the directory panicked on every reopen as well.
func TestAggregatorRejectsMalformedKeys(t *testing.T) {
	cfg := Config{Spec: Window{Size: 256, Period: 64}, Phis: []float64{0.5, 0.99}, FewK: true}
	sn := mkKeySnapshot(t, cfg, 3, 400)
	good := wire.AppendFrame(nil, "good", sn)
	later := wire.AppendFrame(wire.AppendFrame(nil, "later", sn), wire.SaltedName("hot", 0), sn)
	bad := malformedKeyFrames(t, sn)

	for _, store := range []string{"map", "striped", "disk"} {
		t.Run(store, func(t *testing.T) {
			acfg := AggregatorConfig{Store: store}
			agg := mapAgg()
			switch store {
			case "disk":
				acfg.Dir = t.TempDir()
				agg = mkAgg(t, acfg)
			case "striped":
				agg = mkAgg(t, acfg)
			}
			defer func() { agg.Close() }()
			if _, err := applyWithin(t, agg, "w", good); err != nil {
				t.Fatal(err)
			}
			before := snapshotBytes(t, agg)
			// A push logs its worker stamp before any frame is read; a
			// refused frame must add nothing to that.
			grew := func(blob []byte) (int64, int, error) {
				if store != "disk" {
					n, err := applyWithin(t, agg, "w", blob)
					return 0, n, err
				}
				size := dirBytes(t, acfg.Dir)
				n, err := applyWithin(t, agg, "w", blob)
				return dirBytes(t, acfg.Dir) - size, n, err
			}
			stamp, _, err := grew(nil)
			if err != nil || (store == "disk") != (stamp > 0) {
				t.Fatalf("an empty push logged %d bytes, err %v", stamp, err)
			}
			for name, frame := range bad {
				logged, n, err := grew(frame)
				if !errors.Is(err, wire.ErrCorrupt) || n != 0 {
					t.Fatalf("%s: applied %d frames, err %v; want 0 and ErrCorrupt", name, n, err)
				}
				if logged != stamp {
					t.Fatalf("%s: the refused push logged %d bytes, an empty one %d", name, logged, stamp)
				}
				if got := snapshotBytes(t, agg); !bytes.Equal(got, before) {
					t.Fatalf("%s changed the merged view", name)
				}
			}
			if n, err := applyWithin(t, agg, "w2", later); err != nil || n != 2 {
				t.Fatalf("push after the refusals: %d frames, %v", n, err)
			}
			want := snapshotBytes(t, agg)
			if store == "disk" {
				agg = reopenDisk(t, agg, acfg)
				if got := snapshotBytes(t, agg); !bytes.Equal(got, want) {
					t.Fatal("reopened disk aggregator diverges from the state it closed with")
				}
			}
		})
	}
}

// dirBytes sums the sizes of a disk store's files.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// FuzzAggregatorApply drives arbitrary bytes through Apply into a map, a
// striped and a disk aggregator: whatever the input, none may panic or
// wedge, all three must fold the same number of frames into the same merged
// bytes, and the disk backend must reopen to what it closed with. Seeds are
// the wire package's golden blobs of both format versions plus every frame
// kind under every malformed key, so the class of defect
// TestAggregatorRejectsMalformedKeys closed stays closed.
func FuzzAggregatorApply(f *testing.F) {
	for _, name := range []string{"golden_v1.bin", "golden_v2.bin"} {
		blob, err := os.ReadFile(filepath.Join("internal", "wire", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	cfg := Config{Spec: Window{Size: 64, Period: 16}, Phis: []float64{0.5, 0.99}, FewK: true}
	for _, frame := range malformedKeyFrames(f, mkKeySnapshot(f, cfg, 3, 100)) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		dcfg := AggregatorConfig{Store: "disk", Dir: t.TempDir(), Fsync: "none"}
		aggs := []*Aggregator{mapAgg(), mkAgg(t, AggregatorConfig{}), mkAgg(t, dcfg)}
		var frames int
		var view []byte
		var viewErr error
		for i, a := range aggs {
			n, _ := a.Apply("w", bytes.NewReader(blob))
			snap, err := a.Snapshot()
			var buf bytes.Buffer
			if err == nil {
				_, err = snap.WriteTo(&buf)
			}
			if i == 0 {
				frames, view, viewErr = n, buf.Bytes(), err
				continue
			}
			if n != frames || (err == nil) != (viewErr == nil) || (err == nil && !bytes.Equal(buf.Bytes(), view)) {
				t.Fatalf("backend %d folded %d frames (snapshot err %v), the map %d (%v), or their bytes differ", i, n, err, frames, viewErr)
			}
		}
		if err := aggs[2].Close(); err != nil {
			t.Fatal(err)
		}
		re, err := NewAggregatorConfig(dcfg)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer re.Close()
		if viewErr == nil {
			if got := snapshotBytes(t, re); !bytes.Equal(got, view) {
				t.Fatal("reopened disk aggregator diverges from the state it closed with")
			}
		}
	})
}
