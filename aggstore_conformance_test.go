package qlove

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aggstore"
	"repro/internal/wire"
	"repro/internal/workload"
)

// aggStoreCase names one backend configuration under conformance test.
type aggStoreCase struct {
	name string
	mk   func(t *testing.T) *Aggregator
}

func mkAgg(t *testing.T, cfg AggregatorConfig) *Aggregator {
	t.Helper()
	a, err := NewAggregatorConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// mapAgg returns an aggregator on the single-lock Map store, the parity
// reference; no AggregatorConfig selects it.
func mapAgg() *Aggregator {
	return &Aggregator{store: aggstore.NewMap(), now: time.Now}
}

// aggStoreCases is the conformance matrix: the Map reference first, every
// configurable backend, the instrumented wrapper and a degenerate stripe
// count.
func aggStoreCases() []aggStoreCase {
	return []aggStoreCase{
		{"map", func(t *testing.T) *Aggregator { return mapAgg() }},
		{"striped", func(t *testing.T) *Aggregator { return mkAgg(t, AggregatorConfig{}) }},
		{"striped-1", func(t *testing.T) *Aggregator {
			return &Aggregator{store: aggstore.NewStriped(1), now: time.Now}
		}},
		{"striped-instrumented", func(t *testing.T) *Aggregator {
			return mkAgg(t, AggregatorConfig{Instrument: true})
		}},
		{"disk", func(t *testing.T) *Aggregator {
			a := mkAgg(t, AggregatorConfig{Store: "disk", Dir: t.TempDir()})
			t.Cleanup(func() { a.Close() })
			return a
		}},
	}
}

// snapshotBytes renders the backend's merged view to the deterministic
// wire encoding — the cross-backend bit-equality currency.
func snapshotBytes(t *testing.T, a *Aggregator) []byte {
	t.Helper()
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireBitEqualViews asserts every backend's snapshot bytes and sampled
// query bits match the first backend's.
func requireBitEqualViews(t *testing.T, backends []aggStoreCase, surfaces []*Aggregator, step string, queryKeys []string) {
	t.Helper()
	ref := snapshotBytes(t, surfaces[0])
	for i := 1; i < len(surfaces); i++ {
		if got := snapshotBytes(t, surfaces[i]); !bytes.Equal(got, ref) {
			t.Fatalf("%s: backend %q snapshot bytes diverge from %q (%d vs %d bytes)",
				step, backends[i].name, backends[0].name, len(got), len(ref))
		}
	}
	for _, key := range queryKeys {
		refSn, refOK, err := surfaces[0].Query(key)
		if err != nil {
			t.Fatalf("%s: %q query %q: %v", step, backends[0].name, key, err)
		}
		for i := 1; i < len(surfaces); i++ {
			sn, ok, err := surfaces[i].Query(key)
			if err != nil {
				t.Fatalf("%s: %q query %q: %v", step, backends[i].name, key, err)
			}
			if ok != refOK {
				t.Fatalf("%s: query %q: %q ok=%v, %q ok=%v",
					step, key, backends[i].name, ok, backends[0].name, refOK)
			}
			if !ok {
				continue
			}
			if sn.Streams() != refSn.Streams() || sn.Elements() != refSn.Elements() {
				t.Fatalf("%s: query %q shape diverges on %q", step, key, backends[i].name)
			}
			a, b := sn.Estimates(), refSn.Estimates()
			for j := range a {
				if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
					t.Fatalf("%s: query %q ϕ[%d]: %q %v != %q %v",
						step, key, j, backends[i].name, a[j], backends[0].name, b[j])
				}
			}
		}
	}
}

// TestAggregatorStoreConformanceDeltaFold drives the full delta lifecycle
// — bootstrap, growth, window slide, tombstone, recreation — through
// every backend at once, requiring each step's view to be bit-for-bit the
// engine's own full export AND bit-identical across backends.
func TestAggregatorStoreConformanceDeltaFold(t *testing.T) {
	backends := aggStoreCases()
	surfaces := make([]*Aggregator, len(backends))
	for i, b := range backends {
		surfaces[i] = b.mk(t)
	}
	eng, err := NewEngine(EngineConfig{
		Config: Config{Spec: Window{Size: 256, Period: 64}, Phis: []float64{0.5, 0.9, 0.99}, FewK: true},
		Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := drainResults(eng)
	defer func() { eng.Close(); <-done }()

	var cur ExportCursor
	queryKeys := []string{"a", "b", "c", "d", "nope"}
	sync := func(step string) {
		t.Helper()
		var buf bytes.Buffer
		if _, err := eng.ExportDelta(&buf, &cur); err != nil {
			t.Fatal(err)
		}
		for i, s := range surfaces {
			if _, err := s.Apply("w0", bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("%s: %q: %v", step, backends[i].name, err)
			}
		}
		want := fullFold(t, eng)
		var wantBuf bytes.Buffer
		if _, err := want.WriteTo(&wantBuf); err != nil {
			t.Fatal(err)
		}
		if got := snapshotBytes(t, surfaces[0]); !bytes.Equal(got, wantBuf.Bytes()) {
			t.Fatalf("%s: %q snapshot diverges from the engine's full export", step, backends[0].name)
		}
		requireBitEqualViews(t, backends, surfaces, step, queryKeys)
	}

	gen := workload.NewNetMon(1)
	batch := func(n int) []float64 { return workload.Generate(gen, n) }
	pushAll(t, eng, map[string][]float64{"a": batch(100), "b": batch(40), "c": batch(500)})
	sync("bootstrap")
	pushAll(t, eng, map[string][]float64{"a": batch(300), "c": batch(700), "d": batch(64)})
	sync("growth")
	pushAll(t, eng, map[string][]float64{"c": batch(2000)})
	sync("slide")
	if !eng.Evict("b") {
		t.Fatal("evict b")
	}
	sync("tombstone")
	if !eng.Evict("a") {
		t.Fatal("evict a")
	}
	pushAll(t, eng, map[string][]float64{"a": batch(64)})
	sync("recreate")
	for i, s := range surfaces {
		if s.Workers() != 1 {
			t.Fatalf("%q: workers=%d, want 1", backends[i].name, s.Workers())
		}
		if s.Keys() != 3 {
			t.Fatalf("%q: keys=%d, want 3", backends[i].name, s.Keys())
		}
	}
}

// mkKeySnapshot builds one deterministic single-stream capture (to be
// re-encoded under arbitrary internal names).
func mkKeySnapshot(t testing.TB, cfg Config, seed int64, n int) Snapshot {
	t.Helper()
	return mkSnapshotOf(t, cfg, workload.Generate(workload.NewNetMon(seed), n))
}

// mkSnapshotOf captures one key fed the given values.
func mkSnapshotOf(t testing.TB, cfg Config, values []float64) Snapshot {
	t.Helper()
	eng, err := NewEngine(EngineConfig{Config: cfg, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := drainResults(eng)
	pushAll(t, eng, map[string][]float64{"x": values})
	eng.Close()
	<-done
	snap := fullFold(t, eng)
	sn, ok := snap.Get("x")
	if !ok {
		t.Fatal("capture missing")
	}
	return sn
}

// TestAggregatorStoreConformanceSaltGroups exercises the salt-group
// algebra with hand-crafted frames on every backend: salted sub-stream
// bootstraps build a group that folds in [sub 0, sub 1, …] order; a full
// frame — under ANY name in the group — replaces the whole group (a full
// frame is the worker's complete folded view of the logical key); a
// sub-stream bootstrap retires only the base; a base bootstrap retires
// the whole group; tombstones retire exact names.
func TestAggregatorStoreConformanceSaltGroups(t *testing.T) {
	cfg := Config{Spec: Window{Size: 256, Period: 64}, Phis: []float64{0.5, 0.99}, FewK: true}
	base := mkKeySnapshot(t, cfg, 11, 512)
	sub0 := mkKeySnapshot(t, cfg, 12, 448)
	sub1 := mkKeySnapshot(t, cfg, 13, 384)

	salted := func(j byte) string { return "k" + string([]byte{0, j}) }
	full := func(name string, sn Snapshot) []byte { return wire.AppendFrame(nil, name, sn) }
	bootstrap := func(name string, sn Snapshot) []byte {
		d, err := sn.Delta(0)
		if err != nil {
			t.Fatal(err)
		}
		return wire.AppendDeltaFrame(nil, name, d)
	}
	tomb := func(name string) []byte { return wire.AppendTombstoneFrame(nil, name) }

	merge := func(sns ...Snapshot) Snapshot {
		var out Snapshot
		var err error
		for _, sn := range sns {
			if out, err = out.Merge(sn); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}

	backends := aggStoreCases()
	surfaces := make([]*Aggregator, len(backends))
	for i, b := range backends {
		surfaces[i] = b.mk(t)
	}
	applyAll := func(step string, blob []byte) {
		t.Helper()
		for i, s := range surfaces {
			if _, err := s.Apply("w", bytes.NewReader(blob)); err != nil {
				t.Fatalf("%s: %q: %v", step, backends[i].name, err)
			}
		}
	}
	requireK := func(step string, want Snapshot, wantStreams int) {
		t.Helper()
		requireBitEqualViews(t, backends, surfaces, step, []string{"k"})
		sn, ok, err := surfaces[0].Query("k")
		if err != nil || !ok {
			t.Fatalf("%s: query k: ok=%v err=%v", step, ok, err)
		}
		if sn.Streams() != wantStreams {
			t.Fatalf("%s: k has %d streams, want %d", step, sn.Streams(), wantStreams)
		}
		a, b := sn.Estimates(), want.Estimates()
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("%s: ϕ[%d] %v != reference fold %v", step, j, a[j], b[j])
			}
		}
	}

	grp := func(a, b Snapshot) []byte {
		return append(append([]byte(nil), bootstrap(salted(0), a)...), bootstrap(salted(1), b)...)
	}
	// Two salted sub-stream bootstraps: queries fold [sub 0, sub 1].
	applyAll("subs", grp(sub0, sub1))
	requireK("subs", merge(sub0, sub1), 2)
	for i, s := range surfaces {
		if s.Keys() != 1 {
			t.Fatalf("%q: salted sub-streams counted as %d logical keys", backends[i].name, s.Keys())
		}
	}
	// A full frame — the worker's complete folded view of the logical key —
	// replaces the WHOLE group, even when named after one sub-stream.
	applyAll("full-replaces-group", full(salted(0), base))
	requireK("full-replaces-group", base, 1)
	applyAll("base-full", full("k", base))
	requireK("base-full", base, 1)
	// A sub-stream bootstrap retires only the base; a second sub joins it.
	applyAll("sub-bootstrap", bootstrap(salted(0), sub0))
	requireK("sub-bootstrap", sub0, 1)
	applyAll("sub-joins", bootstrap(salted(1), sub1))
	requireK("sub-joins", merge(sub0, sub1), 2)
	// A base bootstrap (collapsed key coming home) retires the whole group.
	applyAll("base-bootstrap", bootstrap("k", base))
	requireK("base-bootstrap", base, 1)
	// Rebuild the group, then tombstone one exact sub-stream name.
	applyAll("regroup", grp(sub0, sub1))
	applyAll("tomb-sub0", tomb(salted(0)))
	requireK("tomb-sub0", sub1, 1)
	// Tombstoning the last name empties the key everywhere.
	applyAll("tomb-sub1", tomb(salted(1)))
	requireBitEqualViews(t, backends, surfaces, "emptied", []string{"k"})
	if _, ok, _ := surfaces[0].Query("k"); ok {
		t.Fatal("fully tombstoned key still served")
	}
	for i, s := range surfaces {
		if s.Keys() != 0 {
			t.Fatalf("%q: %d keys after full tombstone, want 0", backends[i].name, s.Keys())
		}
	}
}

// TestAggregatorStoreConformancePushDeadline runs the worker-GC lifecycle
// on every backend: staleness hides a silent worker immediately, sweeps
// reclaim it, re-bootstrap revives it, and occupancy counters track it
// all exactly.
func TestAggregatorStoreConformancePushDeadline(t *testing.T) {
	cfg := Config{Spec: Window{Size: 256, Period: 64}, Phis: []float64{0.5, 0.99}}
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

	for _, b := range aggStoreCases() {
		t.Run(b.name, func(t *testing.T) {
			clk := newFakeClock(time.Unix(5_000_000, 0))
			agg := b.mk(t)
			agg.SetPushDeadline(time.Minute, clk.now)
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
			for i := 0; i < 4; i++ {
				clk.advance(45 * time.Second)
				apply("active", activeBlob)
			}
			// Silent is past the deadline: hidden from reads AND counters
			// before any explicit sweep.
			if agg.Workers() != 1 {
				t.Fatalf("workers=%d, want 1 after deadline", agg.Workers())
			}
			if _, ok, _ := agg.Query("only-silent"); ok {
				t.Fatal("silent worker's key still served")
			}
			sn, ok, err := agg.Query("shared")
			if err != nil || !ok || sn.Streams() != 1 {
				t.Fatalf("shared after silence: ok=%v streams=%d err=%v", ok, sn.Streams(), err)
			}
			if n := agg.Sweep(); n != 0 {
				t.Fatalf("Sweep dropped %d, want 0 (already swept on Apply)", n)
			}
			apply("silent", silentBlob)
			if agg.Workers() != 2 || agg.Keys() != 3 {
				t.Fatalf("after re-bootstrap: workers=%d keys=%d", agg.Workers(), agg.Keys())
			}
			clk.advance(2 * time.Minute)
			if n := agg.Sweep(); n != 2 {
				t.Fatalf("Sweep dropped %d workers, want 2", n)
			}
			if agg.Workers() != 0 || agg.Keys() != 0 {
				t.Fatalf("after sweep: workers=%d keys=%d", agg.Workers(), agg.Keys())
			}
		})
	}
}

// TestAggregatorReadsFollowLiveWorkers pins that every read answers from
// the resident states of the workers live at that instant, on every
// backend: a re-push changes the answer, a second worker joins the merge,
// a missing key stays missing, DropWorker leaves the merge, and an armed
// push deadline hides a stale worker's key with no sweep.
func TestAggregatorReadsFollowLiveWorkers(t *testing.T) {
	cfg := Config{Spec: Window{Size: 256, Period: 64}, Phis: []float64{0.5, 0.99}}
	export := func(seed int64) []byte {
		eng, err := NewEngine(EngineConfig{Config: cfg, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		done := drainResults(eng)
		pushAll(t, eng, map[string][]float64{"k": workload.Generate(workload.NewNetMon(seed), 512)})
		eng.Close()
		<-done
		var buf bytes.Buffer
		if _, err := eng.Export(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	blobA, blobB := export(7), export(8)
	// wantB is blobB's answer on its own: what "k" must read once blobB
	// replaces blobA.
	ref := mapAgg()
	if _, err := ref.Apply("w", bytes.NewReader(blobB)); err != nil {
		t.Fatal(err)
	}
	wantB, _, err := ref.Query("k")
	if err != nil {
		t.Fatal(err)
	}

	for _, b := range aggStoreCases() {
		t.Run(b.name, func(t *testing.T) {
			agg := b.mk(t)
			apply := func(worker string, blob []byte) {
				t.Helper()
				if _, err := agg.Apply(worker, bytes.NewReader(blob)); err != nil {
					t.Fatal(err)
				}
			}
			query := func(step string) Snapshot {
				t.Helper()
				sn, ok, err := agg.Query("k")
				if err != nil || !ok {
					t.Fatalf("%s: query k: ok=%v err=%v", step, ok, err)
				}
				return sn
			}
			apply("w", blobA)
			first := query("first")
			// A re-push of a DIFFERENT blob changes the answer to exactly it.
			apply("w", blobB)
			second := query("re-push")
			changed := false
			for j, v := range second.Estimates() {
				changed = changed || math.Float64bits(v) != math.Float64bits(first.Estimates()[j])
			}
			if !changed {
				t.Fatal("re-push of a different blob left every estimate unchanged")
			}
			sameSnapshot(t, "re-push", second, wantB)
			// A second worker's push joins the merge.
			apply("w2", blobA)
			if sn := query("second worker"); sn.Streams() != 2 {
				t.Fatalf("after second worker: %d streams, want 2", sn.Streams())
			}
			// A missing key is missing on every read, not just the first.
			for i := 0; i < 2; i++ {
				if _, ok, err := agg.Query("ghost"); ok || err != nil {
					t.Fatalf("ghost read %d: ok=%v err=%v", i, ok, err)
				}
			}
			// DropWorker leaves the merge.
			agg.DropWorker("w2")
			sn := query("after drop")
			if sn.Streams() != 1 {
				t.Fatalf("after drop: %d streams, want 1", sn.Streams())
			}
			sameSnapshot(t, "after drop", sn, wantB)
			// Push-deadline staleness hides the key the moment its only
			// worker goes stale, with no Sweep and no mutation.
			clk := newFakeClock(time.Unix(5_000_000, 0))
			agg.SetPushDeadline(time.Minute, clk.now)
			query("at arming")
			clk.advance(2 * time.Minute)
			if _, ok, _ := agg.Query("k"); ok {
				t.Fatal("stale worker's key still served")
			}
		})
	}
}

// TestNewAggregatorConfigValidation pins that a backend knob the chosen
// store would ignore is refused, not silently dropped, and that only the
// striped and disk backends are selectable.
func TestNewAggregatorConfigValidation(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		cfg  AggregatorConfig
		want string // error substring; "" means valid
	}{
		{AggregatorConfig{}, ""},
		{AggregatorConfig{Store: "striped", Instrument: true}, ""},
		{AggregatorConfig{Dir: dir}, "only apply to the disk store"},
		{AggregatorConfig{Store: "striped", Fsync: "none"}, "only apply to the disk store"},
		{AggregatorConfig{CompactBytes: 1}, "only apply to the disk store"},
		{AggregatorConfig{Store: "map"}, "unknown aggregator store"},
		{AggregatorConfig{Store: "disk"}, "needs a state directory"},
		{AggregatorConfig{Store: "btree"}, "unknown aggregator store"},
		{AggregatorConfig{Store: "disk", Dir: dir, Fsync: "none", CompactBytes: 1 << 20}, ""},
	} {
		a, err := NewAggregatorConfig(tc.cfg)
		if tc.want == "" {
			if err != nil {
				t.Fatalf("%+v: %v", tc.cfg, err)
			}
			a.Close()
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%+v: err %v, want %q", tc.cfg, err, tc.want)
		}
	}
}

// TestAggregatorMetricsInstrumented pins the instrumented wrapper: op
// counts appear, and the backend label names the wrapping.
func TestAggregatorMetricsInstrumented(t *testing.T) {
	agg := mkAgg(t, AggregatorConfig{Instrument: true})
	blob := wire.AppendTombstoneFrame(nil, "nothing") // cheapest valid frame
	if _, err := agg.Apply("w", bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := agg.Query("nothing"); err != nil {
		t.Fatal(err)
	}
	m := agg.Metrics()
	if m.Store.Backend != "striped+instrumented" {
		t.Fatalf("backend label %q", m.Store.Backend)
	}
	counts := map[string]int64{}
	for _, op := range m.Store.Ops {
		counts[op.Op] = op.Count
	}
	// The tombstone is one apply_frame op: the wrapper times the fold the
	// service runs, not the store calls inside it.
	if counts["apply_frame"] != 1 || counts["drop"] != 0 || counts["touch"] == 0 || counts["group"] == 0 {
		t.Fatalf("expected one apply_frame and touch/group ops recorded, no drop, got %v", counts)
	}
	if m := mkAgg(t, AggregatorConfig{}).Metrics(); len(m.Store.Ops) != 0 {
		t.Fatal("uninstrumented store reported op metrics")
	}
	if m := mkAgg(t, AggregatorConfig{}).Metrics(); m.Store.Backend != "striped" {
		t.Fatalf("default backend label %q", m.Store.Backend)
	}
}

// TestAggregatorStripedStress is the -race stress: concurrent multi-worker
// Applies (delta chains with periodic re-bootstraps), Queries,
// whole-view Snapshots, explicit Sweeps and worker drop/revive churn on
// the striped store — then a quiesced bit-equality check against a serial
// reference fold of each worker's final state.
func TestAggregatorStripedStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	cfg := Config{Spec: Window{Size: 256, Period: 64}, Phis: []float64{0.5, 0.99}, FewK: true}
	const workers = 4
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}

	// Each worker's push sequence: a bootstrap blob then delta blobs, all
	// pre-built serially so the concurrent phase is pure Apply traffic.
	blobs := make([][][]byte, workers)
	for w := 0; w < workers; w++ {
		eng, err := NewEngine(EngineConfig{Config: cfg, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		done := drainResults(eng)
		gen := workload.NewNetMon(int64(40 + w))
		var cur ExportCursor
		for round := 0; round < 6; round++ {
			batch := map[string][]float64{}
			for ki, k := range keys {
				if (round+ki+w)%3 != 0 { // staggered: not every key every round
					batch[k] = workload.Generate(gen, 128+64*((round+ki)%3))
				}
			}
			pushAll(t, eng, batch)
			var buf bytes.Buffer
			if _, err := eng.ExportDelta(&buf, &cur); err != nil {
				t.Fatal(err)
			}
			blobs[w] = append(blobs[w], buf.Bytes())
		}
		eng.Close()
		<-done
	}
	worker := func(w int) string { return fmt.Sprintf("worker-%03d", w) }

	agg := mkAgg(t, AggregatorConfig{})
	clk := newFakeClock(time.Unix(5_000_000, 0))
	agg.SetPushDeadline(time.Hour, clk.now) // armed, but nothing goes stale

	var stop atomic.Bool
	var wg sync.WaitGroup
	// Appliers: each owns one worker stream (the contract: one worker's
	// pushes are serialized), cycling bootstrap -> deltas -> drop -> again,
	// always ENDING with a complete final cycle.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for cycle := 0; ; cycle++ {
				if cycle > 0 {
					agg.DropWorker(worker(w))
				}
				for _, blob := range blobs[w] {
					if _, err := agg.Apply(worker(w), bytes.NewReader(blob)); err != nil {
						t.Errorf("apply %s: %v", worker(w), err)
						return
					}
				}
				if stop.Load() && cycle > 0 {
					return
				}
			}
		}(w)
	}
	// Queriers: random keys.
	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(q)))
			for !stop.Load() {
				if _, _, err := agg.Query(keys[rng.Intn(len(keys))]); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(q)
	}
	// Snapshotter + sweeper.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := agg.Snapshot(); err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
			agg.Sweep()
		}
	}()
	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesced: every applier finished a complete final cycle, so the
	// resident state is each worker's full blob sequence — fold the same
	// sequences serially into a map-store reference and compare bits.
	ref := mapAgg()
	for w := 0; w < workers; w++ {
		for _, blob := range blobs[w] {
			if _, err := ref.Apply(worker(w), bytes.NewReader(blob)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var want, got bytes.Buffer
	refSnap, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refSnap.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	gotSnap, err := agg.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gotSnap.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("concurrent fold diverged from serial reference (%d vs %d bytes)",
			got.Len(), want.Len())
	}
}
