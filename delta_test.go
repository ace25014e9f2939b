package qlove

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestExportDeltaStress is the concurrency gate of the delta plane: one
// engine under simultaneous Push, ExportDelta, Snapshot (merged with a
// remote blob) and TTL eviction (run it with -race). The pushers advance a
// fake clock one second per batch, so churn keys expire mid-run while the
// hot set, pushed every few seconds, stays resident. Afterwards the cursor-folded
// aggregator state must equal a fresh full export exactly — same key set
// in both directions (no lost tombstones, no resurrected keys) and
// bit-identical estimates.
func TestExportDeltaStress(t *testing.T) {
	cfg := Config{Spec: Window{Size: 256, Period: 64}, Phis: []float64{0.5, 0.99}, FewK: true}
	clk := newFakeClock(time.Unix(1_000_000, 0))
	eng, err := NewEngine(EngineConfig{
		Config:         cfg,
		Shards:         4,
		KeyTTLDuration: 192 * time.Second, // churn keys expire mid-run, exercising tombstones
		Clock:          clk.now,
		ResultBuffer:   1 << 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := drainResults(eng)

	// A remote blob the concurrent reader merges into its snapshots.
	remote, err := NewEngine(EngineConfig{Config: cfg, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	remoteDone := drainResults(remote)
	if err := remote.Push("hot-0", workload.Generate(workload.NewNetMon(77), 512)); err != nil {
		t.Fatal(err)
	}
	remote.Close()
	<-remoteDone
	var remoteBlob bytes.Buffer
	if _, err := remote.Export(&remoteBlob); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Pushers: a stable hot set plus a churning tail the TTL sweep evicts.
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			gen := workload.NewNetMon(int64(1000 + p))
			for i := 0; !stop.Load(); i++ {
				var key string
				if rng.Intn(3) > 0 {
					key = fmt.Sprintf("hot-%d", rng.Intn(8))
				} else {
					key = fmt.Sprintf("churn-%d-%d", p, i%97)
				}
				clk.advance(time.Second)
				if err := eng.Push(key, workload.Generate(gen, 32)); err != nil {
					return // engine closed under us: the run is over
				}
			}
		}(p)
	}

	// Exporter: delta exports folded into the service-style aggregator,
	// concurrent with everything else.
	agg := NewAggregator()
	var cur ExportCursor
	var exports int
	var exportErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			var buf bytes.Buffer
			if _, err := eng.ExportDelta(&buf, &cur); err != nil {
				exportErr = fmt.Errorf("export %d: %w", exports, err)
				return
			}
			if _, err := agg.Apply("w", bytes.NewReader(buf.Bytes())); err != nil {
				exportErr = fmt.Errorf("apply %d: %w", exports, err)
				return
			}
			exports++
		}
	}()

	// Reader: full snapshots, imports and point queries ride alongside.
	var readErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			var imported EngineSnapshot
			if _, err := imported.ReadFrom(bytes.NewReader(remoteBlob.Bytes())); err != nil {
				readErr = fmt.Errorf("import: %w", err)
				return
			}
			if _, err := eng.Snapshot().Merge(imported); err != nil {
				readErr = fmt.Errorf("import: %w", err)
				return
			}
			eng.Query("hot-3")
			eng.Keys()
		}
	}()

	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if exportErr != nil {
		t.Fatal(exportErr)
	}
	if readErr != nil {
		t.Fatal(readErr)
	}
	eng.Close()
	<-done

	// Final flush over the closed engine, then the identity check.
	var buf bytes.Buffer
	if _, err := eng.ExportDelta(&buf, &cur); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Apply("w", bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if exports == 0 {
		t.Fatal("exporter never ran")
	}
	t.Logf("stress: %d concurrent delta exports, final state %d keys", exports, agg.Keys())
	requireSameView(t, agg, eng)
}

// fakeClock is a concurrency-safe controllable clock for wall-TTL tests.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }
func newFakeClock(start time.Time) *fakeClock {
	c := &fakeClock{}
	c.ns.Store(start.UnixNano())
	return c
}

// TestWallClockTTLDeterministic: with a fake clock and one shard, a key
// idle past KeyTTLDuration is evicted by the delivery-piggybacked sweep at
// an exactly predictable point, and the eviction surfaces as a delta-export
// tombstone.
func TestWallClockTTLDeterministic(t *testing.T) {
	clk := newFakeClock(time.Unix(1_000_000, 0))
	eng, err := NewEngine(EngineConfig{
		Config:         Config{Spec: Window{Size: 128, Period: 64}, Phis: []float64{0.5}},
		Shards:         1, // one shard: every key shares the sweep clock
		KeyTTLDuration: time.Minute,
		Clock:          clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := drainResults(eng)
	defer func() { eng.Close(); <-done }()

	gen := workload.NewNetMon(5)
	if err := eng.Push("idle", workload.Generate(gen, 128)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Push("busy", workload.Generate(gen, 128)); err != nil {
		t.Fatal(err)
	}
	// Prime a cursor that has seen both keys.
	agg := NewAggregator()
	var cur ExportCursor
	syncAgg := func() {
		t.Helper()
		var buf bytes.Buffer
		if _, err := eng.ExportDelta(&buf, &cur); err != nil {
			t.Fatal(err)
		}
		if _, err := agg.Apply("w", bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	syncAgg()
	if agg.Keys() != 2 {
		t.Fatalf("aggregated %d keys, want 2", agg.Keys())
	}

	// Advance past the TTL; the next delivery (to busy) piggybacks the
	// overdue sweep, evicting idle but not the just-delivered busy.
	clk.advance(2 * time.Minute)
	if err := eng.Push("busy", workload.Generate(gen, 64)); err != nil {
		t.Fatal(err)
	}
	if got := eng.Keys(); got != 1 {
		t.Fatalf("after wall sweep: %d keys, want 1", got)
	}
	if _, ok := eng.Query("idle"); ok {
		t.Fatal("idle key survived the wall-clock TTL")
	}
	if _, ok := eng.Query("busy"); !ok {
		t.Fatal("busy key was evicted")
	}
	// The eviction reaches the aggregator as a tombstone.
	syncAgg()
	if agg.Keys() != 1 {
		t.Fatalf("aggregator holds %d keys after tombstone, want 1", agg.Keys())
	}
	if _, ok, _ := agg.Query("idle"); ok {
		t.Fatal("tombstone for idle key was lost")
	}
	requireSameView(t, agg, eng)
}

// TestWallClockTTLQuietShard: the ticker path — a key on a shard receiving
// NO further deliveries is still evicted (bounded wait on a real clock).
func TestWallClockTTLQuietShard(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Config:         Config{Spec: Window{Size: 128, Period: 64}, Phis: []float64{0.5}},
		Shards:         2,
		KeyTTLDuration: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := drainResults(eng)
	defer func() { eng.Close(); <-done }()
	if err := eng.Push("quiet", workload.Generate(workload.NewNetMon(6), 128)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.Keys() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("quiet-shard key not evicted after 5s (keys=%d)", eng.Keys())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExportDeltaRecreation: an evict-then-recreate between two exports
// must reach the destination as tombstone + bootstrap — even when the new
// incarnation has sealed MORE generations than the cursor recorded (the
// case a naive generation comparison would silently corrupt).
func TestExportDeltaRecreation(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Config: Config{Spec: Window{Size: 128, Period: 64}, Phis: []float64{0.5, 0.99}},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := drainResults(eng)
	defer func() { eng.Close(); <-done }()

	gen := workload.NewNetMon(3)
	if err := eng.Push("k", workload.Generate(gen, 128)); err != nil { // 2 seals
		t.Fatal(err)
	}
	agg := NewAggregator()
	var cur ExportCursor
	var buf bytes.Buffer
	if _, err := eng.ExportDelta(&buf, &cur); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Apply("w", bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	if !eng.Evict("k") {
		t.Fatal("evict")
	}
	// The new incarnation seals PAST the cursor's generation.
	if err := eng.Push("k", workload.Generate(gen, 512)); err != nil { // 8 seals > 2
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := eng.ExportDelta(&buf, &cur); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Apply("w", bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	requireSameView(t, agg, eng)
}
