package qlove

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/internal/workload"
)

// reopenDisk closes a disk-backed aggregator and reopens its directory,
// returning the recovered instance.
func reopenDisk(t *testing.T, a *Aggregator, cfg AggregatorConfig) *Aggregator {
	t.Helper()
	if a != nil {
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
	}
	re, err := NewAggregatorConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { re.Close() })
	return re
}

// TestAggregatorDiskRecoveryCursorResume is the library-level restart
// contract: a disk-backed aggregator reopened mid delta chain holds state
// bit-identical to an uninterrupted in-memory reference, and — because the
// persisted states carry the workers' seal generations — the NEXT delta in
// each worker's chain folds cleanly against the recovered state, no
// re-bootstrap needed.
func TestAggregatorDiskRecoveryCursorResume(t *testing.T) {
	cfg := Config{Spec: Window{Size: 256, Period: 64}, Phis: []float64{0.5, 0.9, 0.99}, FewK: true}
	const workers = 3

	// Pre-build each worker's push sequence: bootstrap + 5 delta blobs.
	blobs := make([][][]byte, workers)
	for w := 0; w < workers; w++ {
		eng, err := NewEngine(EngineConfig{Config: cfg, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		done := drainResults(eng)
		gen := workload.NewNetMon(int64(60 + w))
		var cur ExportCursor
		for round := 0; round < 6; round++ {
			pushAll(t, eng, map[string][]float64{
				"a": workload.Generate(gen, 200),
				"b": workload.Generate(gen, 120),
			})
			var buf bytes.Buffer
			if _, err := eng.ExportDelta(&buf, &cur); err != nil {
				t.Fatal(err)
			}
			blobs[w] = append(blobs[w], buf.Bytes())
		}
		eng.Close()
		<-done
	}
	worker := func(w int) string { return []string{"wa", "wb", "wc"}[w] }

	dir := t.TempDir()
	dcfg := AggregatorConfig{Store: "disk", Dir: dir}
	disk, err := NewAggregatorConfig(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewAggregator()

	// Interrupted run: apply the first 3 blobs of each chain, then reopen
	// (the Close-less abandon shape is covered by the aggstore-level crash
	// tests and the subprocess kill -9 test; FsyncAlways makes them equal).
	for w := 0; w < workers; w++ {
		for _, blob := range blobs[w][:3] {
			if _, err := disk.Apply(worker(w), bytes.NewReader(blob)); err != nil {
				t.Fatal(err)
			}
		}
	}
	disk = reopenDisk(t, disk, dcfg)

	// Resume each worker's EXISTING delta chain on the recovered state.
	for w := 0; w < workers; w++ {
		for _, blob := range blobs[w][3:] {
			if n, err := disk.Apply(worker(w), bytes.NewReader(blob)); err != nil {
				t.Fatalf("delta resume after restart rejected (applied %d): %v", n, err)
			}
		}
		for _, blob := range blobs[w] {
			if _, err := ref.Apply(worker(w), bytes.NewReader(blob)); err != nil {
				t.Fatal(err)
			}
		}
	}

	refSnap, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	gotSnap, err := disk.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if _, err := refSnap.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if _, err := gotSnap.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("recovered+resumed view diverges from uninterrupted reference (%d vs %d bytes)",
			got.Len(), want.Len())
	}
	if disk.Workers() != workers {
		t.Fatalf("recovered %d workers, want %d", disk.Workers(), workers)
	}

	// A second restart with NO resumed pushes still answers identically.
	disk = reopenDisk(t, disk, dcfg)
	gotSnap, err = disk.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got.Reset()
	if _, err := gotSnap.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("idle restart changed the recovered view")
	}
	if err := disk.DurabilityErr(); err != nil {
		t.Fatal(err)
	}
}

// TestAggregatorDiskRecoveryPushDeadline pins that worker-liveness state
// (the per-worker last-push stamps driving the push-deadline GC) survives
// a restart: a worker already silent before the crash is still the one
// the recovered aggregator retires.
func TestAggregatorDiskRecoveryPushDeadline(t *testing.T) {
	cfg := Config{Spec: Window{Size: 256, Period: 64}, Phis: []float64{0.5}}
	mkBlob := func(seed int64, key string) []byte {
		eng, err := NewEngine(EngineConfig{Config: cfg, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		done := drainResults(eng)
		pushAll(t, eng, map[string][]float64{key: workload.Generate(workload.NewNetMon(seed), 256)})
		eng.Close()
		<-done
		var buf bytes.Buffer
		if _, err := eng.Export(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	dir := t.TempDir()
	dcfg := AggregatorConfig{Store: "disk", Dir: dir}
	agg, err := NewAggregatorConfig(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock(time.Unix(6_000_000, 0))
	agg.SetPushDeadline(time.Minute, clk.now)
	if _, err := agg.Apply("silent", bytes.NewReader(mkBlob(1, "k-silent"))); err != nil {
		t.Fatal(err)
	}
	clk.advance(45 * time.Second)
	if _, err := agg.Apply("active", bytes.NewReader(mkBlob(2, "k-active"))); err != nil {
		t.Fatal(err)
	}

	// Restart. The recovered stamps preserve the ORDER of last pushes, so
	// re-arming with a clock 45s past the active push puts only the silent
	// worker past the minute deadline.
	agg = reopenDisk(t, agg, dcfg)
	agg.SetPushDeadlineFromStored(time.Minute, clk.now)
	clk.advance(45 * time.Second)
	if agg.Workers() != 1 {
		t.Fatalf("recovered aggregator sees %d live workers, want 1 (silent retired)", agg.Workers())
	}
	if _, ok, _ := agg.Query("k-silent"); ok {
		t.Fatal("silent worker's key served after recovered deadline passed")
	}
	if _, ok, _ := agg.Query("k-active"); !ok {
		t.Fatal("active worker's key lost across restart")
	}
	if n := agg.Sweep(); n != 1 {
		t.Fatalf("recovered sweep dropped %d workers, want 1", n)
	}
}

// TestAggregatorDiskRecoveryUnarmedStamps: a worker that pushed while the
// worker GC was unarmed is stamped with the real time, so a restart that
// arms the GC from the stored stamps keeps it live. Once an unarmed push
// stamped the zero time, which the log recovered as 1754 and the armed
// restart retired at once.
func TestAggregatorDiskRecoveryUnarmedStamps(t *testing.T) {
	cfg := Config{Spec: Window{Size: 256, Period: 64}, Phis: []float64{0.5}}
	dcfg := AggregatorConfig{Store: "disk", Dir: t.TempDir()}
	agg, err := NewAggregatorConfig(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	blob := wire.AppendFrame(nil, "k", mkKeySnapshot(t, cfg, 1, 256))
	if _, err := agg.Apply("w", bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	agg = reopenDisk(t, agg, dcfg)
	agg.SetPushDeadlineFromStored(time.Minute, nil)
	if n := agg.Workers(); n != 1 {
		t.Fatalf("recovered aggregator sees %d live workers, want 1", n)
	}
	if _, ok, _ := agg.Query("k"); !ok {
		t.Fatal("a worker that pushed a moment before the restart was retired")
	}
}
