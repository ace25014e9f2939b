package qlove

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/aggstore"
	"repro/internal/core"
	"repro/internal/wire"
	"repro/internal/workload"
)

// pushAll drains results in the background and pushes every report.
func pushAll(t testing.TB, eng *Engine, reports map[string][]float64) {
	t.Helper()
	for key, vs := range reports {
		if err := eng.Push(key, vs); err != nil {
			t.Fatal(err)
		}
	}
}

func drainResults(eng *Engine) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range eng.Results() {
		}
	}()
	return done
}

// fullFold reads an engine's full export through the batch path.
func fullFold(t testing.TB, eng *Engine) EngineSnapshot {
	t.Helper()
	var buf bytes.Buffer
	if _, err := eng.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var snap EngineSnapshot
	if _, err := snap.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	return snap
}

// requireSameView asserts the aggregator's merged view for one worker is
// bit-for-bit the engine's full export: same key set, same estimates, same
// stream/element shape.
func requireSameView(t *testing.T, agg *Aggregator, eng *Engine) {
	t.Helper()
	want := fullFold(t, eng)
	got, err := agg.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("aggregator holds %d keys %v, full export has %d %v",
			got.Len(), got.Keys(), want.Len(), want.Keys())
	}
	for _, k := range want.Keys() {
		w, _ := want.Get(k)
		g, ok := got.Get(k)
		if !ok {
			t.Fatalf("key %q missing from aggregator (lost tombstone inverse: never arrived)", k)
		}
		if g.Streams() != w.Streams() || g.Elements() != w.Elements() || g.SealGen() != w.SealGen() {
			t.Fatalf("key %q shape: aggregator streams=%d elements=%d gen=%d, export streams=%d elements=%d gen=%d",
				k, g.Streams(), g.Elements(), g.SealGen(), w.Streams(), w.Elements(), w.SealGen())
		}
		a, b := g.Estimates(), w.Estimates()
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("key %q ϕ[%d]: aggregator %v != full export %v", k, j, a[j], b[j])
			}
		}
	}
}

// TestAggregatorDeltaFoldMatchesFull: pushing deltas phase by phase, the
// aggregator's cursor-folded state stays bit-for-bit equal to a fresh full
// export — through window growth, expiry, key churn (evictions produce
// tombstones) and recreation.
func TestAggregatorDeltaFoldMatchesFull(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Config: Config{Spec: Window{Size: 256, Period: 64}, Phis: []float64{0.5, 0.9, 0.99}, FewK: true},
		Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := drainResults(eng)
	defer func() { eng.Close(); <-done }()

	agg := NewAggregator()
	var cur ExportCursor
	sync := func() {
		t.Helper()
		var buf bytes.Buffer
		if _, err := eng.ExportDelta(&buf, &cur); err != nil {
			t.Fatal(err)
		}
		if _, err := agg.Apply("w0", bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		requireSameView(t, agg, eng)
	}

	gen := workload.NewNetMon(1)
	batch := func(n int) []float64 { return workload.Generate(gen, n) }

	// Phase 1: partial windows (some keys not yet sealed anything).
	pushAll(t, eng, map[string][]float64{"a": batch(100), "b": batch(40), "c": batch(500)})
	sync()
	// Phase 2: growth + an untouched key (b gets nothing: no frame for it).
	pushAll(t, eng, map[string][]float64{"a": batch(300), "c": batch(700), "d": batch(64)})
	sync()
	// Phase 3: the window slides fully past the cursor for c.
	pushAll(t, eng, map[string][]float64{"c": batch(2000)})
	sync()
	// Phase 4: eviction produces a tombstone.
	if !eng.Evict("b") {
		t.Fatal("evict b")
	}
	sync()
	if _, ok, _ := agg.Query("b"); ok {
		t.Fatal("tombstoned key still aggregated")
	}
	// Phase 5: recreation after eviction (new incarnation, fewer seals
	// than the cursor saw — the incarnation check must catch it).
	if !eng.Evict("a") {
		t.Fatal("evict a")
	}
	pushAll(t, eng, map[string][]float64{"a": batch(64)})
	sync()
	// Phase 6: idempotent no-op export: nothing changed, zero frames.
	var buf bytes.Buffer
	if n, err := eng.ExportDelta(&buf, &cur); err != nil || n != 0 {
		t.Fatalf("no-change delta export wrote %d bytes (err %v), want 0", n, err)
	}
}

// TestAggregatorMultiWorker: per-key cross-worker merging happens at read
// time in ascending worker-ID order — bit-identical to the batch fold of
// the workers' full blobs in the same order.
func TestAggregatorMultiWorker(t *testing.T) {
	cfg := Config{Spec: Window{Size: 400, Period: 100}, Phis: []float64{0.5, 0.99}, FewK: true}
	agg := NewAggregator()
	var batchAgg EngineSnapshot
	for w := 0; w < 3; w++ {
		eng, err := NewEngine(EngineConfig{Config: cfg, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		done := drainResults(eng)
		gen := workload.NewNetMon(int64(100 + w))
		pushAll(t, eng, map[string][]float64{
			"shared":                  workload.Generate(gen, 900),
			fmt.Sprintf("only-%d", w): workload.Generate(gen, 300),
		})
		eng.Close()
		<-done
		// Delta path into the service-style aggregator...
		var cur ExportCursor
		var buf bytes.Buffer
		if _, err := eng.ExportDelta(&buf, &cur); err != nil {
			t.Fatal(err)
		}
		if _, err := agg.Apply(fmt.Sprintf("worker-%03d", w), bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		// ...and the batch fold of full blobs in worker order.
		var full bytes.Buffer
		if _, err := eng.Export(&full); err != nil {
			t.Fatal(err)
		}
		var one EngineSnapshot
		if _, err := one.ReadFrom(bytes.NewReader(full.Bytes())); err != nil {
			t.Fatal(err)
		}
		if batchAgg, err = batchAgg.Merge(one); err != nil {
			t.Fatal(err)
		}
	}
	got, err := agg.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != batchAgg.Len() {
		t.Fatalf("aggregator %d keys, batch fold %d", got.Len(), batchAgg.Len())
	}
	for _, k := range batchAgg.Keys() {
		w, _ := batchAgg.Get(k)
		g, ok := got.Get(k)
		if !ok {
			t.Fatalf("key %q missing", k)
		}
		if g.Streams() != w.Streams() {
			t.Fatalf("key %q: %d streams, want %d", k, g.Streams(), w.Streams())
		}
		a, b := g.Estimates(), w.Estimates()
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("key %q: aggregator %v != batch fold %v", k, a, b)
			}
		}
	}
	// Per-key query agrees with the whole-view snapshot.
	sn, ok, err := agg.Query("shared")
	if err != nil || !ok {
		t.Fatalf("query shared: %v ok=%v", err, ok)
	}
	if sn.Streams() != 3 {
		t.Fatalf("shared merged %d streams, want 3", sn.Streams())
	}
	if agg.Workers() != 3 || agg.Keys() != batchAgg.Len() {
		t.Fatalf("workers=%d keys=%d", agg.Workers(), agg.Keys())
	}
}

// TestAggregatorRejectsBadDeltas: cursor mismatches are loud errors, never
// silent misfolds.
func TestAggregatorRejectsBadDeltas(t *testing.T) {
	cfg := Config{Spec: Window{Size: 256, Period: 64}, Phis: []float64{0.5}}
	eng, err := NewEngine(EngineConfig{Config: cfg, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := drainResults(eng)
	defer func() { eng.Close(); <-done }()
	gen := workload.NewNetMon(9)
	pushAll(t, eng, map[string][]float64{"k": workload.Generate(gen, 320)})

	var bootstrap, next bytes.Buffer
	var cur ExportCursor
	if _, err := eng.ExportDelta(&bootstrap, &cur); err != nil {
		t.Fatal(err)
	}
	pushAll(t, eng, map[string][]float64{"k": workload.Generate(gen, 320)})
	if _, err := eng.ExportDelta(&next, &cur); err != nil {
		t.Fatal(err)
	}

	// A non-bootstrap delta for a worker that never bootstrapped.
	agg := NewAggregator()
	if _, err := agg.Apply("w", bytes.NewReader(next.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "never bootstrapped") {
		t.Fatalf("orphan delta: %v", err)
	}
	// Applying the bootstrap twice then the delta: the second bootstrap
	// replaces (idempotent), so the delta still folds.
	agg = NewAggregator()
	for i := 0; i < 2; i++ {
		if _, err := agg.Apply("w", bytes.NewReader(bootstrap.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := agg.Apply("w", bytes.NewReader(next.Bytes())); err != nil {
		t.Fatal(err)
	}
	// Replaying the same delta is a cursor mismatch.
	if _, err := agg.Apply("w", bytes.NewReader(next.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "cursor") {
		t.Fatalf("replayed delta: %v", err)
	}
	// DropWorker forgets everything.
	if !agg.DropWorker("w") || agg.Workers() != 0 || agg.Keys() != 0 {
		t.Fatal("DropWorker left state behind")
	}
}

// TestAggregatorPushDeadline: the service-plane worker GC. A worker that
// goes silent past the push deadline disappears from the merged view (and
// is physically dropped by the next sweep), while a worker that keeps
// pushing is never touched — however far the clock advances.
func TestAggregatorPushDeadline(t *testing.T) {
	cfg := Config{Spec: Window{Size: 256, Period: 64}, Phis: []float64{0.5, 0.99}}
	clk := newFakeClock(time.Unix(5_000_000, 0))
	agg := NewAggregator()
	agg.SetPushDeadline(time.Minute, clk.now)

	mkBlob := func(seed int64, key string) []byte {
		eng, err := NewEngine(EngineConfig{Config: cfg, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		done := drainResults(eng)
		pushAll(t, eng, map[string][]float64{
			key:      workload.Generate(workload.NewNetMon(seed), 512),
			"shared": workload.Generate(workload.NewNetMon(seed+50), 256),
		})
		eng.Close()
		<-done
		var buf bytes.Buffer
		if _, err := eng.Export(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	silentBlob := mkBlob(1, "only-silent")
	activeBlob := mkBlob(2, "only-active")
	apply := func(worker string, blob []byte) {
		t.Helper()
		if _, err := agg.Apply(worker, bytes.NewReader(blob)); err != nil {
			t.Fatal(err)
		}
	}
	apply("silent", silentBlob)
	apply("active", activeBlob)
	if agg.Workers() != 2 || agg.Keys() != 3 {
		t.Fatalf("workers=%d keys=%d, want 2/3", agg.Workers(), agg.Keys())
	}
	shared, ok, err := agg.Query("shared")
	if err != nil || !ok || shared.Streams() != 2 {
		t.Fatalf("shared: ok=%v streams=%d err=%v", ok, shared.Streams(), err)
	}

	// The active worker keeps pushing while the silent one stops; each
	// re-push is within the deadline, so the active worker survives any
	// total elapsed time.
	for i := 0; i < 4; i++ {
		clk.advance(45 * time.Second)
		apply("active", activeBlob)
	}

	// The silent worker is past the deadline: reads exclude it (the
	// snapshot "shrinks") even before any sweep ran.
	if agg.Workers() != 1 {
		t.Fatalf("workers=%d, want 1 after deadline", agg.Workers())
	}
	if _, ok, _ := agg.Query("only-silent"); ok {
		t.Fatal("silent worker's key still served")
	}
	shared, ok, err = agg.Query("shared")
	if err != nil || !ok || shared.Streams() != 1 {
		t.Fatalf("shared after silence: ok=%v streams=%d err=%v", ok, shared.Streams(), err)
	}
	snap, err := agg.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len() != 2 {
		t.Fatalf("snapshot holds %d keys %v, want 2", snap.Len(), snap.Keys())
	}
	if _, ok := snap.Get("only-active"); !ok {
		t.Fatal("active worker's key was dropped")
	}

	// The Apply-piggybacked sweep already reclaimed the silent worker's
	// state; an explicit Sweep finds nothing left.
	if n := agg.Sweep(); n != 0 {
		t.Fatalf("Sweep dropped %d workers, want 0 (already swept on Apply)", n)
	}

	// A worker swept while silent re-bootstraps cleanly.
	apply("silent", silentBlob)
	if agg.Workers() != 2 || agg.Keys() != 3 {
		t.Fatalf("after re-bootstrap: workers=%d keys=%d", agg.Workers(), agg.Keys())
	}

	// Explicit Sweep without interleaved pushes also reclaims.
	clk.advance(2 * time.Minute)
	if n := agg.Sweep(); n != 2 {
		t.Fatalf("Sweep dropped %d workers, want 2", n)
	}
	if agg.Workers() != 0 || agg.Keys() != 0 {
		t.Fatalf("after sweep: workers=%d keys=%d", agg.Workers(), agg.Keys())
	}
}

// TestAggregatorPushDeadlineArmsLate: workers folded before the GC was
// armed get dated at arming time, so they are retired one deadline later,
// not instantly.
func TestAggregatorPushDeadlineArmsLate(t *testing.T) {
	cfg := Config{Spec: Window{Size: 128, Period: 64}, Phis: []float64{0.5}}
	eng, err := NewEngine(EngineConfig{Config: cfg, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := drainResults(eng)
	pushAll(t, eng, map[string][]float64{"k": workload.Generate(workload.NewNetMon(3), 256)})
	eng.Close()
	<-done
	var blob bytes.Buffer
	if _, err := eng.Export(&blob); err != nil {
		t.Fatal(err)
	}

	agg := NewAggregator() // GC not armed yet: real clock stamps are fine
	if _, err := agg.Apply("w", bytes.NewReader(blob.Bytes())); err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock(time.Unix(9_000_000, 0))
	agg.SetPushDeadline(time.Minute, clk.now)
	if agg.Workers() != 1 {
		t.Fatal("pre-armed worker retired instantly")
	}
	clk.advance(2 * time.Minute)
	if agg.Workers() != 0 {
		t.Fatal("pre-armed worker survived the deadline")
	}
}

// TestAggregatorSnapshotListsEachWorkerOnce: Snapshot lists each live
// worker's states once (one names_matching op, no per-key group reads) and
// folds them in one pass, yet answers every key — a salt group, and one whose
// run another key's legacy name splits — bit-identically to Query. The values
// are fractions, so Level-2 sums that merged in another association would
// differ in their last bits.
func TestAggregatorSnapshotListsEachWorkerOnce(t *testing.T) {
	cfg := Config{Spec: Window{Size: 256, Period: 64}, Phis: []float64{0.5, 0.99}, FewK: true}
	capture := func(seed int64, n int) Snapshot {
		return mkSnapshotOf(t, cfg, workload.Generate(workload.NewUniform(seed, 0, 1), n))
	}
	agg := mkAgg(t, AggregatorConfig{Instrument: true})
	workers := []string{"w0", "w1", "w2"}
	for i, w := range workers {
		var blob []byte
		for j, name := range []string{"a", wire.SaltedName("hot", 0), wire.SaltedName("hot", 1), "z" + w} {
			sn := capture(int64(10*i+j), 300+100*j)
			if _, _, salted := wire.SplitName(name); salted {
				d, err := wire.NewDelta(sn, 0)
				if err != nil {
					t.Fatal(err)
				}
				blob = wire.AppendDeltaFrame(blob, name, d)
				continue
			}
			blob = wire.AppendFrame(blob, name, sn)
		}
		if _, err := agg.Apply(w, bytes.NewReader(blob)); err != nil {
			t.Fatal(err)
		}
		// A name Apply refuses, as a WAL written before that check may hold
		// one: logical key "hot\x00", sorting between "hot"'s sub-streams.
		legacy := wire.SaltedName("hot"+string(wire.SaltSep), 'z')
		dec := agg.shapes.NewDecoder(bytes.NewReader(wire.AppendFrame(nil, legacy, capture(int64(10*i+9), 500))))
		f, err := dec.DecodeFrame()
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.store.ApplyFrame(w, f, dec.Raw()); err != nil {
			t.Fatal(err)
		}
	}
	counts := func() map[string]int64 {
		out := map[string]int64{}
		for _, op := range agg.Metrics().Store.Ops {
			out[op.Op] = op.Count
		}
		return out
	}
	before := counts()
	snap, err := agg.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	after := counts()
	if n := after["names_matching"] - before["names_matching"]; n != int64(len(workers)) {
		t.Fatalf("Snapshot over %d workers made %d names_matching ops", len(workers), n)
	}
	if n := after["group"] - before["group"]; n != 0 {
		t.Fatalf("Snapshot made %d group ops, want none", n)
	}
	keys := snap.Keys()
	if want := []string{"a", "hot", "hot\x00", "zw0", "zw1", "zw2"}; !slices.Equal(keys, want) {
		t.Fatalf("Snapshot keys %q, want %q", keys, want)
	}
	for _, k := range keys {
		got, _ := snap.Get(k)
		want, ok, err := agg.Query(k)
		if err != nil || !ok {
			t.Fatalf("Query(%q): ok=%v err=%v", k, ok, err)
		}
		if !bytes.Equal(wire.AppendFrame(nil, k, got), wire.AppendFrame(nil, k, want)) {
			t.Fatalf("Snapshot's %q differs from Query's", k)
		}
	}
}

// TestAggregatorSharesShapes: every state of one configuration points at one
// core.Shape — across blobs, which each decode with a decoder of their own,
// and across workers — and so does every state a disk store recovers, from
// its snapshot (worker w1) and from its log (w2's bootstrap and deltas).
func TestAggregatorSharesShapes(t *testing.T) {
	boot, deltas := deltaChain(t, 8, 3)
	shapes := func(a *Aggregator) map[*core.Shape]int {
		seen := map[*core.Shape]int{}
		for _, w := range a.store.Workers(nil) {
			for _, ns := range a.store.NamesMatching(w, allKeys) {
				seen[ns.State.Parts.Shape]++
			}
		}
		return seen
	}
	for _, cfg := range []AggregatorConfig{{Store: "striped"}, {Store: "disk", Dir: t.TempDir(), Fsync: "none", CompactBytes: -1}} {
		t.Run(cfg.Store, func(t *testing.T) {
			agg := mkAgg(t, cfg)
			for _, w := range []string{"w1", "w2"} {
				for _, blob := range append([][]byte{boot}, deltas...) {
					if _, err := agg.Apply(w, bytes.NewReader(blob)); err != nil {
						t.Fatal(err)
					}
				}
				if d, ok := agg.store.(*aggstore.Disk); ok && w == "w1" {
					if err := d.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got := shapes(agg); len(got) != 1 {
				t.Fatalf("16 states of one configuration hold %d shapes", len(got))
			}
			if err := agg.Close(); err != nil {
				t.Fatal(err)
			}
			if cfg.Store != "disk" {
				return
			}
			agg = mkAgg(t, cfg)
			defer agg.Close()
			if got := shapes(agg); len(got) != 1 {
				t.Fatalf("16 recovered states of one configuration hold %d shapes", len(got))
			}
		})
	}
}
