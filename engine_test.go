// Tests for the keyed sharded Engine: per-key results must be bit-identical
// to a single Monitor fed the same stream, snapshots must merge across
// sub-streams within Level-2 tolerance, and the whole surface must be clean
// under the race detector with concurrent producers.
package qlove

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

// engineResults drains an engine's results into per-key ordered slices
// until the channel closes.
func engineResults(e *Engine) map[string][]Result {
	out := map[string][]Result{}
	for kr := range e.Results() {
		out[kr.Key] = append(out[kr.Key], kr.Result)
	}
	return out
}

func TestEngineSingleKeyMatchesMonitor(t *testing.T) {
	spec := Window{Size: 1200, Period: 300}
	phis := []float64{0.5, 0.9, 0.99, 0.999}
	cfg := Config{Spec: spec, Phis: phis, FewK: true}
	data := workload.Generate(workload.NewNetMon(5), 9000)

	// Reference: a single Monitor over the same stream, same batch shape.
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	var want []Result
	for pos := 0; pos < len(data); pos += 137 {
		end := pos + 137
		if end > len(data) {
			end = len(data)
		}
		mon.PushBatch(data[pos:end], func(r Result) { want = append(want, r) })
	}

	e, err := NewEngine(EngineConfig{Config: cfg, Shards: 3, ResultBuffer: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(data); pos += 137 {
		end := pos + 137
		if end > len(data) {
			end = len(data)
		}
		if err := e.Push("api-latency", data[pos:end]); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	got := engineResults(e)["api-latency"]

	if len(got) != len(want) {
		t.Fatalf("evaluations: engine %d, monitor %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Evaluation != want[i].Evaluation {
			t.Fatalf("eval %d: index %d != %d", i, got[i].Evaluation, want[i].Evaluation)
		}
		for j := range want[i].Estimates {
			if math.Float64bits(got[i].Estimates[j]) != math.Float64bits(want[i].Estimates[j]) {
				t.Fatalf("eval %d ϕ=%v: engine %v != monitor %v",
					i, phis[j], got[i].Estimates[j], want[i].Estimates[j])
			}
		}
	}

	// Count-aligned snapshot: 9000 elements is a period multiple, so the
	// engine's capture must answer bit-for-bit what the reference operator
	// answers at the same instant.
	snap := e.Snapshot()
	est, ok := snap.Query("api-latency")
	if !ok {
		t.Fatal("key missing from snapshot")
	}
	ref := mon.Policy().Result()
	for j := range ref {
		if math.Float64bits(est[j]) != math.Float64bits(ref[j]) {
			t.Fatalf("snapshot ϕ=%v: %v != reference %v", phis[j], est[j], ref[j])
		}
	}
	if e.Dropped() != 0 {
		t.Fatalf("dropped %d results with a large buffer", e.Dropped())
	}
}

func TestEngineManyKeysConcurrentProducers(t *testing.T) {
	spec := Window{Size: 128, Period: 32}
	cfg := Config{Spec: spec, Phis: []float64{0.5, 0.99}}
	e, err := NewEngine(EngineConfig{Config: cfg, Shards: 4, ResultBuffer: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	const (
		producers = 8
		keysPer   = 50
		perKey    = 320 // 10 evaluations per key
		batchSize = 29  // deliberately misaligned with the period
	)
	totalEvals := spec.Evaluations(perKey)
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := workload.NewNetMon(int64(w + 1))
			buf := make([]float64, 0, batchSize)
			for k := 0; k < keysPer; k++ {
				key := fmt.Sprintf("w%d/key%03d", w, k)
				sent := 0
				for sent < perKey {
					buf = buf[:0]
					for len(buf) < batchSize && sent+len(buf) < perKey {
						buf = append(buf, gen.Next())
					}
					if err := e.Push(key, buf); err != nil {
						t.Error(err)
						return
					}
					sent += len(buf)
				}
			}
		}(w)
	}
	done := make(chan map[string][]Result, 1)
	go func() { done <- engineResults(e) }()
	wg.Wait()
	if got := e.Keys(); got != producers*keysPer {
		t.Fatalf("keys = %d, want %d", got, producers*keysPer)
	}
	e.Close()
	results := <-done
	if len(results) != producers*keysPer {
		t.Fatalf("keys with results = %d, want %d", len(results), producers*keysPer)
	}
	for key, rs := range results {
		if len(rs) != totalEvals {
			t.Fatalf("%s: %d evaluations, want %d", key, len(rs), totalEvals)
		}
		for i, r := range rs {
			if r.Evaluation != i {
				t.Fatalf("%s: out-of-order evaluation %d at position %d", key, r.Evaluation, i)
			}
		}
	}
	if e.Dropped() != 0 {
		t.Fatalf("dropped %d results", e.Dropped())
	}
}

func TestEngineShardedKeyMergesWithinTolerance(t *testing.T) {
	// One logical stream salted across 4 sub-keys (as a hot key would be to
	// spread ingest load); the merged snapshot must stay within Level-2
	// tolerance of a single operator over the full interleaved stream.
	spec := Window{Size: 2000, Period: 500}
	phis := []float64{0.5, 0.9, 0.999}
	cfg := Config{Spec: spec, Phis: phis, FewK: true}
	const salt = 4
	data := workload.Generate(workload.NewNormal(9, 1000, 100), salt*4*spec.Size)

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mon, _ := NewMonitor(ref, spec)
	mon.PushBatch(data, nil)

	e, err := NewEngine(EngineConfig{Config: cfg, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin the stream across the sub-keys in period-sized turns so
	// every sub-key sees an unbiased sample.
	for i := 0; i < len(data); i += 25 {
		key := fmt.Sprintf("hot#%d", (i/25)%salt)
		if err := e.Push(key, data[i:i+25]); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	snap := e.Snapshot()
	var parts []Snapshot
	for s := 0; s < salt; s++ {
		sn, ok := snap.Get(fmt.Sprintf("hot#%d", s))
		if !ok {
			t.Fatalf("sub-key %d missing", s)
		}
		parts = append(parts, sn)
	}
	merged, err := MergeSnapshots(parts)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Streams() != salt {
		t.Fatalf("streams = %d, want %d", merged.Streams(), salt)
	}
	got := merged.Estimates()
	want := ref.Result()
	for j := range phis {
		if rel := math.Abs(got[j]-want[j]) / want[j]; rel > 0.02 {
			t.Errorf("ϕ=%v: merged %v vs single %v (rel %v)", phis[j], got[j], want[j], rel)
		}
	}
}

// settle returns once every batch pushed before the call has been delivered.
// Query answers from the state the shards have performed, not from batches
// still queued; any queued control op is the barrier, and Keys is the
// cheapest one.
func settle(e *Engine) { e.Keys() }

func TestEngineQueryLiveAndEvict(t *testing.T) {
	spec := Window{Size: 100, Period: 50}
	cfg := Config{Spec: spec, Phis: []float64{0.5}}
	e, err := NewEngine(EngineConfig{Config: cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(i%100) + 1
	}
	if err := e.Push("a", vals); err != nil {
		t.Fatal(err)
	}
	// Query reads what the shard has delivered; settle makes that everything
	// pushed before it by this goroutine.
	settle(e)
	sn, ok := e.Query("a")
	if !ok {
		t.Fatal("live query missed key a")
	}
	if sn.SubWindows() != spec.SubWindows() {
		t.Fatalf("resident sub-windows = %d, want %d", sn.SubWindows(), spec.SubWindows())
	}
	if est := sn.Estimates(); est[0] <= 0 {
		t.Fatalf("implausible estimate %v", est)
	}
	if _, ok := e.Query("missing"); ok {
		t.Fatal("query invented a key")
	}
	if !e.Evict("a") {
		t.Fatal("evict failed")
	}
	if e.Evict("a") {
		t.Fatal("double evict succeeded")
	}
	if n := e.Keys(); n != 0 {
		t.Fatalf("keys after evict = %d", n)
	}
	// The key can come right back, served by a pooled operator.
	if err := e.Push("a", vals); err != nil {
		t.Fatal(err)
	}
	settle(e)
	if _, ok := e.Query("a"); !ok {
		t.Fatal("recreated key not queryable")
	}
}

func TestEngineCloseSemantics(t *testing.T) {
	cfg := Config{Spec: Window{Size: 40, Period: 20}, Phis: []float64{0.5}}
	e, err := NewEngine(EngineConfig{Config: cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{1, 2, 3, 4, 5}
	for i := 0; i < 16; i++ {
		if err := e.Push("k", vals); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	e.Close() // idempotent
	if err := e.Push("k", vals); err != ErrEngineClosed {
		t.Fatalf("push after close: %v", err)
	}
	if err := e.Push("k", nil); err != ErrEngineClosed {
		t.Fatalf("empty push after close: %v (closure must be visible on empty reports)", err)
	}
	// Buffered results stay readable after Close; the channel then closes.
	n := 0
	for range e.Results() {
		n++
	}
	if want := (16*5-40)/20 + 1; n != want {
		t.Fatalf("post-close results = %d, want %d", n, want)
	}
	// Reads keep working against the final state.
	if _, ok := e.Query("k"); !ok {
		t.Fatal("query after close failed")
	}
	if e.Keys() != 1 {
		t.Fatalf("keys after close = %d", e.Keys())
	}
	if !e.Evict("k") {
		t.Fatal("evict after close failed")
	}
}

// TestEngineCloseConcurrentOps runs every operation a closed engine still
// serves from separate goroutines at once, on an adaptive timed engine with
// a TTL and a fake clock: Snapshot and Export, ExportDelta on two cursors,
// Keys, Query, Evict, Tick and Rebalance. The post-Close Ticks cross period
// boundaries and expire idle keys, but must not deliver to the closed
// Results channel (a send would panic); Rebalance must do nothing; and each
// cursor's aggregator, fed every delta before and after Close, must fold to
// the final Export.
func TestEngineCloseConcurrentOps(t *testing.T) {
	clk := newFakeClock(time.Unix(1_000_000, 0))
	e, err := NewEngine(EngineConfig{
		Config: Config{Spec: Window{Size: 128, Period: 64}, Phis: []float64{0.5, 0.99}, FewK: true},
		Shards: 4, ResultBuffer: 1 << 12,
		KeyTTLDuration: time.Minute, Clock: clk.now,
		TimedWindow: 20 * time.Second, TimedPeriod: 10 * time.Second,
		Adapt: &AdaptConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := drainResults(e)
	data := workload.Generate(workload.NewNetMon(47), 1<<12)
	var idle, live []string // idle keys expire after Close, live ones stay
	for i := 0; i < 12; i++ {
		idle = append(idle, fmt.Sprintf("idle%d", i))
		live = append(live, fmt.Sprintf("live%d", i))
	}
	push := func(keys []string, round int) {
		t.Helper()
		for i, k := range keys {
			off := (round*len(keys) + i) * 24 % (len(data) - 24)
			if err := e.Push(k, data[off:off+24]); err != nil {
				t.Fatal(err)
			}
		}
		settle(e)
	}
	push(idle, 0)
	if _, ok := e.escalateKey(live[0], 4); !ok {
		t.Fatal("escalation refused")
	}
	var cursors [2]ExportCursor
	var aggs [2]*Aggregator
	ship := func(i int) {
		var blob bytes.Buffer
		if _, err := e.ExportDelta(&blob, &cursors[i]); err != nil {
			t.Error(err)
			return
		}
		if _, err := aggs[i].Apply("w", &blob); err != nil {
			t.Error(err)
		}
	}
	for i := range aggs {
		aggs[i] = NewAggregator()
		ship(i)
	}
	clk.advance(20 * time.Second)
	for round := 0; round < 3; round++ { // live keys: three periods, the last in flight
		clk.advance(10 * time.Second)
		push(live, round)
		push(live, round+3) // two reports per sub-stream of the escalated key
	}
	clk.advance(5 * time.Second)
	ship(0) // cursor 0 resumes from the journal after Close, cursor 1 from before the pushes
	gen, _ := e.Query(live[1])
	e.Close()
	<-done

	var wg sync.WaitGroup
	run := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				fn()
			}
		}()
	}
	run(func() { // 20 s of ticks: two period boundaries, and the idle keys' TTL
		clk.advance(time.Second)
		e.Tick()
	})
	run(func() {
		if _, err := e.Export(io.Discard); err != nil {
			t.Error(err)
		}
		e.Snapshot()
	})
	run(func() { ship(0) })
	run(func() { ship(1) })
	run(func() { e.Keys() })
	run(func() {
		for _, k := range live {
			if _, ok := e.Query(k); !ok {
				t.Errorf("live key %q lost after Close", k)
			}
		}
	})
	run(func() {
		for _, k := range idle[:6] {
			e.Evict(k)
		}
	})
	run(func() {
		if evs := e.Rebalance(); evs != nil {
			t.Errorf("Rebalance after Close acted: %+v", evs)
		}
	})
	wg.Wait()

	for _, k := range idle {
		if _, ok := e.Query(k); ok {
			t.Fatalf("idle key %q survived its TTL and Evict", k)
		}
	}
	if sn, _ := e.Query(live[1]); sn.SealGen() <= gen.SealGen() {
		t.Fatalf("post-Close Ticks sealed nothing: generation %d, %d before Close", sn.SealGen(), gen.SealGen())
	}
	for i := range aggs {
		ship(i)
		foldEquiv(t, fmt.Sprintf("cursor %d after Close", i), e, aggs[i])
	}
}

func TestEngineSnapshotMergeAcrossEngines(t *testing.T) {
	// Two engines monitoring the same key (two ingestion pipelines of one
	// service): their EngineSnapshots merge key-wise.
	spec := Window{Size: 400, Period: 100}
	cfg := Config{Spec: spec, Phis: []float64{0.5}}
	mk := func(seed int64) *Engine {
		e, err := NewEngine(EngineConfig{Config: cfg, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Push("shared", workload.Generate(workload.NewNormal(seed, 500, 50), 2*spec.Size)); err != nil {
			t.Fatal(err)
		}
		if err := e.Push(fmt.Sprintf("only-%d", seed), workload.Generate(workload.NewNormal(seed, 500, 50), spec.Size)); err != nil {
			t.Fatal(err)
		}
		e.Close()
		return e
	}
	a, b := mk(1), mk(2)
	merged, err := a.Snapshot().Merge(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != 3 {
		t.Fatalf("merged keys = %v", merged.Keys())
	}
	sn, ok := merged.Get("shared")
	if !ok || sn.Streams() != 2 {
		t.Fatalf("shared key streams = %d, ok=%v", sn.Streams(), ok)
	}
	if est, _ := merged.Query("shared"); est[0] < 400 || est[0] > 600 {
		t.Fatalf("merged median %v implausible", est)
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(EngineConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
	if _, err := NewEngine(EngineConfig{
		Config:         Config{Spec: Window{Size: 100, Period: 10}, Phis: []float64{0.5}},
		KeyTTLDuration: -1,
	}); err == nil || !strings.Contains(err.Error(), "KeyTTLDuration") {
		t.Fatalf("negative KeyTTLDuration: %v", err)
	}
}

// TestEngineExportImportRoundTrip: Export while ingesting, decode via
// ReadFrom, and every key's estimates are bit-identical to the live
// capture's; a remote blob merges into the local view.
func TestEngineExportImportRoundTrip(t *testing.T) {
	spec := Window{Size: 400, Period: 100}
	cfg := Config{Spec: spec, Phis: []float64{0.5, 0.9, 0.99}, FewK: true}
	e, err := NewEngine(EngineConfig{Config: cfg, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("svc-%d", i)
		if err := e.Push(key, workload.Generate(workload.NewNetMon(int64(i)), 600)); err != nil {
			t.Fatal(err)
		}
	}
	live := e.Snapshot()
	var blob bytes.Buffer
	n, err := live.WriteTo(&blob)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(blob.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, blob.Len())
	}

	var back EngineSnapshot
	m, err := back.ReadFrom(bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if m != n {
		t.Fatalf("ReadFrom consumed %d of %d bytes", m, n)
	}
	if back.Len() != live.Len() {
		t.Fatalf("decoded %d keys, want %d", back.Len(), live.Len())
	}
	for _, k := range live.Keys() {
		want, _ := live.Query(k)
		got, ok := back.Query(k)
		if !ok {
			t.Fatalf("key %q lost in transit", k)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("key %q ϕ[%d]: %v != %v", k, j, got[j], want[j])
			}
		}
	}

	// Export is WriteTo over the control-op capture: same bytes for the
	// same state.
	var viaExport bytes.Buffer
	if _, err := e.Export(&viaExport); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaExport.Bytes(), blob.Bytes()) {
		t.Fatal("Export bytes differ from Snapshot().WriteTo bytes")
	}

	// ExportKeys selects a subset, skips unknown keys, and emits a
	// repeated argument once (a duplicate frame would decode as a
	// self-merge, double-counting the key's single stream).
	var subset bytes.Buffer
	if _, err := e.ExportKeys(&subset, "svc-3", "missing", "svc-5", "svc-3"); err != nil {
		t.Fatal(err)
	}
	var sub EngineSnapshot
	if _, err := sub.ReadFrom(&subset); err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 2 {
		t.Fatalf("subset keys = %v", sub.Keys())
	}
	if sn, _ := sub.Get("svc-3"); sn.Streams() != 1 {
		t.Fatalf("duplicated export argument produced %d streams", sn.Streams())
	}

	// A remote engine's blob for an overlapping key set merges with the
	// local live capture.
	remote, err := NewEngine(EngineConfig{Config: cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.Push("svc-0", workload.Generate(workload.NewNetMon(99), 600)); err != nil {
		t.Fatal(err)
	}
	if err := remote.Push("remote-only", workload.Generate(workload.NewNetMon(98), 600)); err != nil {
		t.Fatal(err)
	}
	var rblob bytes.Buffer
	if _, err := remote.Export(&rblob); err != nil {
		t.Fatal(err)
	}
	remote.Close()
	var imported EngineSnapshot
	if _, err := imported.ReadFrom(&rblob); err != nil {
		t.Fatal(err)
	}
	agg, err := e.Snapshot().Merge(imported)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Len() != live.Len()+1 {
		t.Fatalf("aggregated keys = %v", agg.Keys())
	}
	if sn, ok := agg.Get("svc-0"); !ok || sn.Streams() != 2 {
		t.Fatalf("overlapping key streams = %d, ok=%v", sn.Streams(), ok)
	}
	if _, ok := agg.Get("remote-only"); !ok {
		t.Fatal("remote-only key missing from aggregate")
	}
}

// TestEngineKeyTTL: idle keys are evicted by the per-shard sweep while
// active keys survive, and an expired key can come back.
func TestEngineKeyTTL(t *testing.T) {
	spec := Window{Size: 100, Period: 50}
	cfg := Config{Spec: spec, Phis: []float64{0.5}}
	const ttl = 8 * time.Second
	// One shard and a fake clock, advanced one second per push and read by
	// the shard only after the push is delivered: every TTL stamp and every
	// piggybacked sweep is deterministic from this test's Push sequence.
	clk := newFakeClock(time.Unix(1_000_000, 0))
	e, err := NewEngine(EngineConfig{Config: cfg, Shards: 1, KeyTTLDuration: ttl, Clock: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	vals := []float64{1, 2, 3, 4, 5}
	push := func(key string) {
		t.Helper()
		clk.advance(time.Second)
		if err := e.Push(key, vals); err != nil {
			t.Fatal(err)
		}
		settle(e)
	}
	push("idle")
	// Keep one key busy well past TTL + sweep lag.
	for i := 0; i < 3*8; i++ {
		push("busy")
	}
	if _, ok := e.Query("idle"); ok {
		t.Fatal("idle key survived the TTL sweep")
	}
	if _, ok := e.Query("busy"); !ok {
		t.Fatal("busy key was evicted")
	}
	if n := e.Keys(); n != 1 {
		t.Fatalf("keys = %d, want 1", n)
	}
	// The expired key comes right back on its next report (recycled
	// through the shard pool).
	push("idle")
	if _, ok := e.Query("idle"); !ok {
		t.Fatal("returned key not monitored")
	}
	// Exported blobs only carry live keys: churn a few transient keys past
	// expiry and check the export stays bounded.
	for i := 0; i < 5; i++ {
		push(fmt.Sprintf("transient-%d", i))
	}
	for i := 0; i < 3*8; i++ {
		push("busy")
	}
	var blob bytes.Buffer
	if _, err := e.Export(&blob); err != nil {
		t.Fatal(err)
	}
	var back EngineSnapshot
	if _, err := back.ReadFrom(&blob); err != nil {
		t.Fatal(err)
	}
	for _, k := range back.Keys() {
		if len(k) >= 9 && k[:9] == "transient" {
			t.Fatalf("expired key %q still exported", k)
		}
	}
}

// TestEngineTickSweepsIdleKeys: Engine.Tick runs the housekeeping pass on
// every shard, so keys idle past the TTL expire on shards that get no
// deliveries (the fake clock never fires the shard tickers), in count and
// in timed mode. An idle timed key is evicted before it would be flushed,
// so it emits no evaluation on its way out, and every expiry reaches the
// next delta export as a tombstone.
func TestEngineTickSweepsIdleKeys(t *testing.T) {
	for _, mode := range []string{"count", "timed"} {
		t.Run(mode, func(t *testing.T) {
			clk := newFakeClock(time.Unix(1_000_000, 0))
			ec := EngineConfig{
				Config: Config{Spec: Window{Size: 128, Period: 64}, Phis: []float64{0.5}},
				Shards: 4, ResultBuffer: 1 << 12,
				KeyTTLDuration: time.Minute, Clock: clk.now,
			}
			if mode == "timed" {
				ec.TimedWindow, ec.TimedPeriod = 20*time.Second, 10*time.Second
			}
			e, err := NewEngine(ec)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			// Two keys on every shard.
			var keys []string
			perShard := make([]int, ec.Shards)
			for i := 0; len(keys) < 2*ec.Shards; i++ {
				k := fmt.Sprintf("k%d", i)
				if sh := e.shardIndex(k); perShard[sh] < 2 {
					perShard[sh]++
					keys = append(keys, k)
				}
			}
			gen := workload.NewNetMon(7)
			for _, k := range keys {
				if err := e.Push(k, workload.Generate(gen, 128)); err != nil {
					t.Fatal(err)
				}
			}
			if mode == "timed" {
				// Seal every key's first sub-window, so each one exports;
				// a full window has not passed, so nothing evaluates yet.
				clk.advance(ec.TimedPeriod)
				e.Tick()
			}
			agg := NewAggregator()
			var cur ExportCursor
			syncAgg := func() {
				t.Helper()
				var buf bytes.Buffer
				if _, err := e.ExportDelta(&buf, &cur); err != nil {
					t.Fatal(err)
				}
				if _, err := agg.Apply("w", bytes.NewReader(buf.Bytes())); err != nil {
					t.Fatal(err)
				}
			}
			syncAgg()
			if agg.Keys() != len(keys) {
				t.Fatalf("aggregated %d keys, want %d", agg.Keys(), len(keys))
			}
			drain := func(busy string) {
				t.Helper()
				for {
					select {
					case r := <-e.Results():
						if busy != "" && r.Key != busy {
							t.Fatalf("idle key %q evaluated on its way out", r.Key)
						}
					default:
						return
					}
				}
			}
			drain("")

			// Past the TTL, one key reports: its own shard sweeps on the
			// delivery, and only Tick reaches the other three.
			clk.advance(2 * time.Minute)
			busy := keys[0]
			if err := e.Push(busy, workload.Generate(gen, 128)); err != nil {
				t.Fatal(err)
			}
			e.Tick()
			if got := e.Keys(); got != 1 {
				t.Fatalf("after Tick: %d keys resident, want 1 (%q)", got, busy)
			}
			drain(busy)
			syncAgg()
			if agg.Keys() != 1 {
				t.Fatalf("aggregator holds %d keys after the sweep, want 1", agg.Keys())
			}
			for _, k := range keys[1:] {
				if _, ok, _ := agg.Query(k); ok {
					t.Fatalf("tombstone for idle key %q was lost", k)
				}
			}
			requireSameView(t, agg, e)
		})
	}
}
