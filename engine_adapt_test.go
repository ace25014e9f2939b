// Tests for adaptive hot-key routing: live stream moves and per-key
// escalation must be invisible to readers — queries, full exports and
// delta folds stay bit-identical to an unmoved/unsalted reference — the
// occupancy-driven controller must escalate, cool and collapse a hot key
// across its whole lifecycle without ordering violations, and every
// stream must stay on its hash shard.
package qlove

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/internal/workload"
)

// --- satellite: HotShards degenerate shard counts -----------------------

func TestEngineHotShardsDegenerateCounts(t *testing.T) {
	// One shard: there is no "other shard" to compare against, so no
	// factor may ever flag it.
	one := EngineStats{Shards: []ShardStats{{DeliveredBatches: 1 << 20}}}
	for _, f := range []float64{1.0001, 1.5, 2, 10} {
		if hot := one.HotShards(f); hot != nil {
			t.Fatalf("1 shard, factor %v: HotShards = %v, want nil", f, hot)
		}
	}
	// Two shards: max/mean is at most 2, so factor >= 2 can never fire
	// and the comparison is strictly greater-than.
	two := EngineStats{Shards: []ShardStats{{DeliveredBatches: 90}, {DeliveredBatches: 10}}}
	if hot := two.HotShards(2); hot != nil {
		t.Fatalf("2 shards, factor 2: HotShards = %v, want nil", hot)
	}
	if hot := two.HotShards(1.5); len(hot) != 1 || hot[0] != 0 {
		t.Fatalf("2 shards, factor 1.5: HotShards = %v, want [0]", hot)
	}
	if hot := two.HotShards(1.79); len(hot) != 1 || hot[0] != 0 {
		t.Fatalf("2 shards, factor 1.79: HotShards = %v, want [0]", hot)
	}
	// 90 > 1.8×50 is false: the bound is strict.
	if hot := two.HotShards(1.8); hot != nil {
		t.Fatalf("2 shards, factor 1.8: HotShards = %v, want nil", hot)
	}
	balanced := EngineStats{Shards: []ShardStats{{DeliveredBatches: 50}, {DeliveredBatches: 50}}}
	if hot := balanced.HotShards(1); hot != nil {
		t.Fatalf("balanced, factor 1: HotShards = %v, want nil", hot)
	}
	idle := EngineStats{Shards: []ShardStats{{}, {}}}
	if hot := idle.HotShards(1.5); hot != nil {
		t.Fatalf("idle shards: HotShards = %v, want nil", hot)
	}
}

// --- validation ---------------------------------------------------------

func TestEngineAdaptValidation(t *testing.T) {
	cfg := Config{Spec: Window{Size: 64, Period: 32}, Phis: []float64{0.5}}
	if _, err := NewEngine(EngineConfig{Config: cfg, Adapt: &AdaptConfig{Interval: -time.Second}}); err == nil {
		t.Error("negative Adapt.Interval accepted")
	}
	// NUL is the reserved sub-stream separator on every engine, adaptive
	// or not: user keys containing it are rejected up front.
	for _, ec := range []EngineConfig{
		{Config: cfg},
		{Config: cfg, Adapt: &AdaptConfig{}},
	} {
		e, err := NewEngine(ec)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Push("a\x00b", []float64{1}); !errors.Is(err, ErrReservedKey) {
			t.Errorf("NUL key: err = %v, want ErrReservedKey", err)
		}
		e.Close()
	}
}

// --- helpers ------------------------------------------------------------

// sameEstimates fails unless the two engines answer every key with
// bit-identical quantile estimates.
func sameEstimates(t *testing.T, label string, a, b *Engine, keys []string) {
	t.Helper()
	settle(a)
	settle(b)
	for _, k := range keys {
		qa, oka := a.Query(k)
		qb, okb := b.Query(k)
		if oka != okb {
			t.Fatalf("%s: key %q resident mismatch: %v vs %v", label, k, oka, okb)
		}
		if !oka {
			continue
		}
		ea, eb := qa.Estimates(), qb.Estimates()
		for j := range ea {
			if math.Float64bits(ea[j]) != math.Float64bits(eb[j]) {
				t.Fatalf("%s: key %q ϕ[%d]: %v != %v", label, k, j, ea[j], eb[j])
			}
		}
	}
}

// sameSnapshot fails unless a Snapshot's estimates match a reference
// bit-for-bit.
func sameSnapshot(t *testing.T, label string, got, want Snapshot) {
	t.Helper()
	ge, we := got.Estimates(), want.Estimates()
	for j := range we {
		if math.Float64bits(ge[j]) != math.Float64bits(we[j]) {
			t.Fatalf("%s: ϕ[%d]: %v != reference %v", label, j, ge[j], we[j])
		}
	}
}

// foldEquiv asserts the delta-export invariant: an aggregator that
// applied the engine's delta stream answers exactly like the engine's
// full export — logical keys and bits.
func foldEquiv(t *testing.T, label string, e *Engine, agg *Aggregator) {
	t.Helper()
	full := e.Snapshot()
	folded, err := agg.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fk, ak := full.Keys(), folded.Keys()
	if len(fk) != len(ak) {
		t.Fatalf("%s: engine keys %v vs aggregator keys %v", label, fk, ak)
	}
	for i := range fk {
		if fk[i] != ak[i] {
			t.Fatalf("%s: engine keys %v vs aggregator keys %v", label, fk, ak)
		}
	}
	for _, k := range fk {
		we, _ := full.Query(k)
		ge, ok := folded.Query(k)
		if !ok {
			t.Fatalf("%s: aggregator lost key %q", label, k)
		}
		for j := range we {
			if math.Float64bits(ge[j]) != math.Float64bits(we[j]) {
				t.Fatalf("%s: key %q ϕ[%d]: %v != engine %v", label, k, j, ge[j], we[j])
			}
		}
	}
}

// --- stream-move bit-equivalence ----------------------------------------

// TestEngineAdaptMigrationEquivalence pins the stream-move promise: a key
// whose whole stream is renamed live — a salt-1 escalation renames it to
// sub-stream 0 on the same shard, a collapse renames it back — produces
// queries and full exports bit-identical to the same key on an engine that
// never renamed anything, and an ExportDelta-fed aggregator folds
// to the same answers, at 1, 2 and 8 shards, including eviction tombstones
// after a move. Delta bytes match the reference only until the first move:
// from then on the moved streams ship under their sub-stream names.
func TestEngineAdaptMigrationEquivalence(t *testing.T) {
	spec := Window{Size: 64, Period: 32}
	cfg := Config{Spec: spec, Phis: []float64{0.5, 0.9, 0.99}}
	const nkeys, rounds = 12, 8
	data := workload.Generate(workload.NewNetMon(11), nkeys*rounds*2*32)
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			adaptive, err := NewEngine(EngineConfig{Config: cfg, Shards: shards, ResultBuffer: 1 << 12, Adapt: &AdaptConfig{}})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewEngine(EngineConfig{Config: cfg, Shards: shards, ResultBuffer: 1 << 12})
			if err != nil {
				t.Fatal(err)
			}
			doneA, doneB := drainResults(adaptive), drainResults(ref)
			curA, curB := new(ExportCursor), new(ExportCursor)
			agg := NewAggregator()
			off := 0
			pushRound := func() {
				for r := 0; r < rounds; r++ {
					for _, k := range keys {
						vs := data[off : off+32]
						off += 32
						if err := adaptive.Push(k, vs); err != nil {
							t.Fatal(err)
						}
						if err := ref.Push(k, vs); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			moved := false
			checkpoint := func(label string) {
				var fa, fb, da, db bytes.Buffer
				if _, err := adaptive.Export(&fa); err != nil {
					t.Fatal(err)
				}
				if _, err := ref.Export(&fb); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fa.Bytes(), fb.Bytes()) {
					t.Fatalf("%s: full export diverged (%d vs %d bytes)", label, fa.Len(), fb.Len())
				}
				if _, err := adaptive.ExportDelta(&da, curA); err != nil {
					t.Fatal(err)
				}
				if _, err := ref.ExportDelta(&db, curB); err != nil {
					t.Fatal(err)
				}
				if !moved && !bytes.Equal(da.Bytes(), db.Bytes()) {
					t.Fatalf("%s: delta export diverged (%d vs %d bytes)", label, da.Len(), db.Len())
				}
				if _, err := agg.Apply("w0", bytes.NewReader(da.Bytes())); err != nil {
					t.Fatal(err)
				}
				foldEquiv(t, label, adaptive, agg)
				sameEstimates(t, label, adaptive, ref, keys)
			}

			pushRound()
			checkpoint("pre-move")

			moved = true
			for _, k := range []string{"k0", "k1", "k2"} {
				sub0 := wire.SaltedName(k, 0)
				ev, ok := adaptive.escalateKey(k, 1)
				if !ok {
					t.Fatalf("salt-1 escalation of %q refused", k)
				}
				if ev.Kind != RouteEscalate || adaptive.shardIndex(sub0) != adaptive.shardIndex(k) {
					t.Fatalf("move event %+v, want %s renamed to %q on its hash shard", ev, k, sub0)
				}
				if ev.KeyBatches != rounds {
					t.Fatalf("move of %q carried %d batches, want %d", k, ev.KeyBatches, rounds)
				}
			}

			checkpoint("post-move-quiescent")
			pushRound()
			checkpoint("post-move-traffic")

			// Move k0 back: the override goes, and the stream is its base
			// name's again, history intact.
			ev, ok := adaptive.collapseKey("k0", 1)
			if !ok || ev.Kind != RouteCollapse || ev.KeyBatches != 2*rounds {
				t.Fatalf("collapse of k0: %+v, ok %v; want a move carrying %d batches", ev, ok, 2*rounds)
			}
			if ov := adaptive.override("k0"); ov != nil {
				t.Fatalf("k0 still overridden after moving back: %+v", ov)
			}
			checkpoint("post-move-back")

			if !adaptive.Evict("k2") || !ref.Evict("k2") {
				t.Fatal("evict k2 found nothing")
			}
			checkpoint("post-evict")

			adaptive.Close()
			ref.Close()
			<-doneA
			<-doneB
		})
	}
}

// --- tentpole: escalation replay equivalence ----------------------------

// TestEngineAdaptEscalationEquivalence drives a key through the full
// escalation lifecycle — fresh escalate (operator moves to sub-stream
// 0), widened fan-out, de-escalate, and a flip-only re-escalation — and
// checks every phase bit-for-bit against external reference monitors fed
// the deterministic i-mod-salt sub-stream assignment. While escalated, the
// key's sub-streams count as resident keys, an ExportDelta-fed aggregator
// folds them back to the logical key bit-for-bit, one Evict retires them
// all, and delivered Results never name a sub-stream.
func TestEngineAdaptEscalationEquivalence(t *testing.T) {
	const salt = 4
	spec := Window{Size: 64, Period: 32}
	cfg := Config{Spec: spec, Phis: []float64{0.5, 0.9, 0.99}}
	data := workload.Generate(workload.NewNetMon(13), 64*32)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e, err := NewEngine(EngineConfig{Config: cfg, Shards: shards, ResultBuffer: 1 << 12, Adapt: &AdaptConfig{}})
			if err != nil {
				t.Fatal(err)
			}
			results := map[string]int{}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for kr := range e.Results() {
					results[kr.Key]++
				}
			}()
			subs := make([]*Monitor, salt)
			pols := make([]*QLOVE, salt)
			mk := func() (*Monitor, *QLOVE) {
				p, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				m, err := NewMonitor(p, spec)
				if err != nil {
					t.Fatal(err)
				}
				return m, p
			}
			off := 0
			push := func(ref int) {
				vs := data[off : off+32]
				off += 32
				if err := e.Push("hot", vs); err != nil {
					t.Fatal(err)
				}
				if subs[ref] == nil {
					subs[ref], pols[ref] = mk()
				}
				subs[ref].PushBatch(vs, nil)
			}
			expect := func() Snapshot {
				var sn []Snapshot
				for j := range pols {
					if pols[j] != nil {
						sn = append(sn, pols[j].Snapshot())
					}
				}
				m, err := MergeSnapshots(sn)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			compare := func(label string) {
				settle(e)
				got, ok := e.Query("hot")
				if !ok {
					t.Fatalf("%s: hot not queryable", label)
				}
				sameSnapshot(t, label+" query", got, expect())
				var blob bytes.Buffer
				if _, err := e.Export(&blob); err != nil {
					t.Fatal(err)
				}
				var back EngineSnapshot
				if _, err := back.ReadFrom(&blob); err != nil {
					t.Fatal(err)
				}
				if keys := back.Keys(); len(keys) != 1 || keys[0] != "hot" {
					t.Fatalf("%s: exported keys %q, want just hot", label, keys)
				}
				est, ok := back.Query("hot")
				if !ok {
					t.Fatalf("%s: export lost hot", label)
				}
				we := expect().Estimates()
				for j := range we {
					if math.Float64bits(est[j]) != math.Float64bits(we[j]) {
						t.Fatalf("%s export: ϕ[%d]: %v != %v", label, j, est[j], we[j])
					}
				}
			}

			// Phase 1: plain hash routing; history accumulates on the base.
			for i := 0; i < 8; i++ {
				push(0)
			}
			ev, ok := e.escalateKey("hot", salt)
			if !ok {
				t.Fatal("fresh escalation refused")
			}
			if ev.Kind != RouteEscalate || ev.KeyBatches != 8 {
				t.Fatalf("escalate event %+v, want 8 carried batches", ev)
			}
			// The base operator now lives on as sub-stream 0: subs[0]
			// already holds its reference (push(0) created it).

			// Phase 2: escalated — push i after the flip goes to i mod salt.
			for i := 0; i < 16; i++ {
				push(i % salt)
			}
			compare("escalated")
			if n := e.Keys(); n != salt {
				t.Fatalf("escalated: Keys() = %d, want %d resident sub-streams", n, salt)
			}
			if n := e.Stats().Total().ResidentKeys; n != salt {
				t.Fatalf("escalated: resident keys %d, want %d", n, salt)
			}
			// ExportDelta ships each sub-stream under its internal name; the
			// aggregator folds them back to the one logical key.
			var delta bytes.Buffer
			if _, err := e.ExportDelta(&delta, new(ExportCursor)); err != nil {
				t.Fatal(err)
			}
			agg := NewAggregator()
			if _, err := agg.Apply("w0", &delta); err != nil {
				t.Fatal(err)
			}
			if n := agg.Keys(); n != 1 {
				t.Fatalf("escalated: aggregator sees %d logical keys, want 1", n)
			}
			folded, ok, err := agg.Query("hot")
			if err != nil || !ok {
				t.Fatalf("escalated: aggregator query hot: ok=%v err=%v", ok, err)
			}
			sameSnapshot(t, "escalated delta fold", folded, expect())

			// Phase 3: de-escalated — everything funnels to sub-stream 0.
			if _, ok := e.deescalateKey("hot"); !ok {
				t.Fatal("de-escalation refused")
			}
			for i := 0; i < 8; i++ {
				push(0)
			}
			compare("de-escalated")
			// Collapse must refuse while older sub-streams are resident.
			if _, ok := e.collapseKey("hot", salt); ok {
				t.Fatal("collapse ran with resident sub-streams")
			}

			// Phase 4: re-escalation is a pure route flip (sub-stream 0
			// already carries the live stream) with the counter reset, so
			// assignment restarts at sub-stream 0.
			ev, ok = e.escalateKey("hot", salt)
			if !ok {
				t.Fatal("re-escalation refused")
			}
			if ev.KeyBatches != 0 {
				t.Fatalf("re-escalation renamed a stream: %+v", ev)
			}
			for i := 0; i < 12; i++ {
				push(i % salt)
			}
			compare("re-escalated")

			// One Evict retires every resident stream of the key.
			if !e.Evict("hot") {
				t.Fatal("evict found nothing")
			}
			if n := e.Keys(); n != 0 {
				t.Fatalf("Keys() = %d after evict", n)
			}
			if _, ok := e.Query("hot"); ok {
				t.Fatal("evicted key still queryable")
			}

			e.Close()
			<-done
			if len(results) != 1 || results["hot"] == 0 {
				t.Fatalf("result keys %q, want only hot", results)
			}
		})
	}
}

// TestEngineAdaptCollapseAfterTTL walks the back half of the lifecycle:
// after de-escalation the idle sub-streams age out under KeyTTLDuration (a
// fake clock advanced one second per push), collapse moves sub-stream 0
// home to the base name, the override disappears, and the key keeps
// answering bit-identically.
func TestEngineAdaptCollapseAfterTTL(t *testing.T) {
	const salt, ttl = 4, 32 * time.Second
	spec := Window{Size: 64, Period: 32}
	cfg := Config{Spec: spec, Phis: []float64{0.5, 0.9}}
	clk := newFakeClock(time.Unix(1_000_000, 0))
	e, err := NewEngine(EngineConfig{Config: cfg, Shards: 1, ResultBuffer: 1 << 12,
		KeyTTLDuration: ttl, Clock: clk.now, Adapt: &AdaptConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	done := drainResults(e)
	data := workload.Generate(workload.NewNetMon(17), 400*32)
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refMon, err := NewMonitor(ref, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Side monitors for sub-streams 1..3 (they receive during escalation,
	// then expire; after collapse only sub-stream 0's history remains).
	side := make([]*QLOVE, salt)
	sideMon := make([]*Monitor, salt)
	for j := 1; j < salt; j++ {
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		side[j] = p
		if sideMon[j], err = NewMonitor(p, spec); err != nil {
			t.Fatal(err)
		}
	}
	off := 0
	push := func(sub int) {
		vs := data[off : off+32]
		off += 32
		clk.advance(time.Second)
		if err := e.Push("hot", vs); err != nil {
			t.Fatal(err)
		}
		if sub == 0 {
			refMon.PushBatch(vs, nil)
		} else {
			sideMon[sub].PushBatch(vs, nil)
		}
	}
	for i := 0; i < 4; i++ {
		push(0)
	}
	if _, ok := e.escalateKey("hot", salt); !ok {
		t.Fatal("escalation refused")
	}
	for i := 0; i < 8; i++ {
		push(i % salt)
	}
	if _, ok := e.deescalateKey("hot"); !ok {
		t.Fatal("de-escalation refused")
	}
	// Keep pushing the (now single-streamed) key until the idle
	// sub-streams 1..3 expire and collapse succeeds.
	collapsed := false
	for i := 0; i < 300 && !collapsed; i++ {
		push(0)
		if ev, ok := e.collapseKey("hot", salt); ok {
			if ev.Kind != RouteCollapse {
				t.Fatalf("collapse event %+v", ev)
			}
			collapsed = true
		}
	}
	if !collapsed {
		t.Fatal("collapse never succeeded; idle sub-streams survived TTL")
	}
	if ov := e.override("hot"); ov != nil {
		t.Fatalf("override survived collapse: %+v", ov)
	}
	if n := e.Keys(); n != 1 {
		t.Fatalf("Keys() = %d after collapse, want 1", n)
	}
	// Post-collapse the key is an ordinary hash-routed stream carrying
	// sub-stream 0's full history.
	got, ok := e.Query("hot")
	if !ok {
		t.Fatal("hot unqueryable after collapse")
	}
	sameSnapshot(t, "post-collapse", got, ref.Snapshot())
	for i := 0; i < 4; i++ {
		push(0)
	}
	settle(e)
	got, ok = e.Query("hot")
	if !ok {
		t.Fatal("hot unqueryable after post-collapse pushes")
	}
	sameSnapshot(t, "post-collapse traffic", got, ref.Snapshot())
	e.Close()
	<-done
}

// --- stream move vs key TTL ---------------------------------------------

// TestEngineAdaptMigrationTTLRace pins the eviction race: a key that
// wall-clock-expires before the rename of its escalation must NOT
// resurrect with stale seal generations — the route still flips, the
// rename finds nothing, and the next push mints a genuinely fresh stream
// at sub-stream 0 whose delta export tombstones the old identity.
func TestEngineAdaptMigrationTTLRace(t *testing.T) {
	spec := Window{Size: 64, Period: 32}
	cfg := Config{Spec: spec, Phis: []float64{0.5, 0.9}}
	var mu sync.Mutex
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	e, err := NewEngine(EngineConfig{
		Config: cfg, Shards: 2, ResultBuffer: 1 << 12,
		KeyTTLDuration: time.Minute, Clock: clock, Adapt: &AdaptConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := drainResults(e)
	data := workload.Generate(workload.NewNetMon(19), 64*32)
	home := e.shardIndex("k")
	// A helper key on the same shard: its later delivery piggybacks the
	// wall sweep that expires "k" deterministically.
	helper := ""
	for i := 0; i < 256 && helper == ""; i++ {
		h := fmt.Sprintf("h%d", i)
		if e.shardIndex(h) == home {
			helper = h
		}
	}
	if helper == "" {
		t.Fatal("no helper key hashing to k's shard")
	}
	off := 0
	batch := func() []float64 {
		vs := data[off : off+32]
		off += 32
		return vs
	}
	// Seed "k" with enough sealed windows to have non-zero seal
	// generations, and snapshot its identity into a delta cursor.
	for i := 0; i < 6; i++ {
		if err := e.Push("k", batch()); err != nil {
			t.Fatal(err)
		}
	}
	cur := new(ExportCursor)
	agg := NewAggregator()
	var d1 bytes.Buffer
	if _, err := e.ExportDelta(&d1, cur); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Apply("w0", bytes.NewReader(d1.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := agg.Query("k"); !ok {
		t.Fatal("aggregator missing k after bootstrap")
	}

	// Expire "k": advance past the TTL, then deliver the helper batch —
	// the delivery's piggybacked wall sweep evicts it.
	advance(2 * time.Minute)
	if err := e.Push(helper, batch()); err != nil {
		t.Fatal(err)
	}
	settle(e)
	if _, ok := e.Query("k"); ok {
		t.Fatal("k survived its wall TTL")
	}

	// Escalate the now-evicted key. The route flips; the rename misses.
	ev, ok := e.escalateKey("k", 1)
	if !ok {
		t.Fatal("escalation of evicted key refused")
	}
	if ev.KeyBatches != 0 {
		t.Fatalf("rename of evicted key carried %d batches, want 0", ev.KeyBatches)
	}
	if ov := e.override("k"); ov == nil || ov.salt != 1 {
		t.Fatalf("salt-1 route not installed: %+v", ov)
	}

	// Fresh pushes mint a brand-new stream at sub-stream 0: its state must
	// equal a reference monitor fed ONLY the new batches — any stale
	// resurrection would poison the quantiles.
	refPol, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refMon, err := NewMonitor(refPol, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		vs := batch()
		if err := e.Push("k", vs); err != nil {
			t.Fatal(err)
		}
		refMon.PushBatch(vs, nil)
	}
	settle(e)
	e.mu.RLock()
	sub0, ok := e.queryOne(wire.SaltedName("k", 0))
	e.mu.RUnlock()
	if !ok {
		t.Fatal("reborn k has no sub-stream 0")
	}
	sameSnapshot(t, "reborn sub-stream 0", sub0, refPol.Snapshot())
	got, ok := e.Query("k")
	if !ok {
		t.Fatal("reborn k unqueryable")
	}
	sameSnapshot(t, "reborn stream", got, refPol.Snapshot())

	// The delta stream must hand the aggregator the SAME rebirth: the old
	// identity tombstones (no stale generations survive) and the new
	// stream bootstraps from scratch.
	var d2 bytes.Buffer
	if _, err := e.ExportDelta(&d2, cur); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Apply("w0", bytes.NewReader(d2.Bytes())); err != nil {
		t.Fatal(err)
	}
	foldEquiv(t, "post-rebirth", e, agg)

	e.Close()
	<-done
}

// --- controller end-to-end ----------------------------------------------

// TestEngineAdaptControllerLifecycle drives the occupancy controller
// through a full hot-key arc with explicit Rebalance passes: a Zipf head
// escalates, traffic moves away, cooling hysteresis de-escalates it, TTL
// drains the fan, and the override collapses — leaving delta exports fold-
// equivalent to the full export throughout.
func TestEngineAdaptControllerLifecycle(t *testing.T) {
	spec := Window{Size: 64, Period: 32}
	cfg := Config{Spec: spec, Phis: []float64{0.5, 0.9}}
	cold := make([]string, 16)
	for i := range cold {
		cold[i] = fmt.Sprintf("c%d", i)
	}
	// NewEngine draws its key-hash seed at random. Take one that spreads
	// this test's keys evenly — at most 3 of hot's 8 sub-streams and at
	// most 6 of the cold keys on any shard — so that the skew bound below
	// holds by construction, not by luck. Every push advances the clock one
	// second, so the TTL is three cooling intervals; Phase B's e.Tick runs
	// the TTL sweep on every shard, including one with no deliveries (the
	// fake clock never fires the shard tickers).
	clk := newFakeClock(time.Unix(1_000_000, 0))
	var e *Engine
	for e == nil {
		cand, err := NewEngine(EngineConfig{
			Config: cfg, Shards: 4, ResultBuffer: 1 << 14,
			KeyTTLDuration: 192 * time.Second, Clock: clk.now,
			Adapt: &AdaptConfig{},
		})
		if err != nil {
			t.Fatal(err)
		}
		subs, colds := make([]int, 4), make([]int, 4)
		for j := 0; j < 8; j++ {
			subs[cand.shardIndex(wire.SaltedName("hot", byte(j)))]++
		}
		for _, k := range cold {
			colds[cand.shardIndex(k)]++
		}
		if slices.Max(subs) <= 3 && slices.Max(colds) <= 6 {
			e = cand
		} else {
			cand.Close()
		}
	}
	done := drainResults(e)
	data := workload.Generate(workload.NewNetMon(23), 64*32)
	off := 0
	batch := func() []float64 {
		vs := data[off%(63*32) : off%(63*32)+32]
		off += 32
		clk.advance(time.Second)
		return vs
	}
	pushSpread := func(n int) {
		for i := 0; i < n; i++ {
			if err := e.Push(cold[i%len(cold)], batch()); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Every interval below delivers 96 or 64 batches, at least minBatches,
	// so every pass acts.
	// Phase A: heavy Zipf head. The controller must escalate "hot".
	hotInterval := func() {
		for i := 0; i < 64; i++ {
			if err := e.Push("hot", batch()); err != nil {
				t.Fatal(err)
			}
		}
		pushSpread(32)
		e.Keys() // barrier: all enqueued batches delivered before sampling
	}
	sawEscalate := false
	for r := 0; r < 4 && !sawEscalate; r++ {
		hotInterval()
		for _, ev := range e.Rebalance() {
			if ev.Kind == RouteEscalate && ev.Key == "hot" {
				sawEscalate = true
			}
		}
	}
	if !sawEscalate {
		t.Fatalf("controller never escalated the Zipf head; events: %+v", e.RouteEvents())
	}
	if ov := e.override("hot"); ov == nil || ov.salt < 2 {
		t.Fatalf("hot not escalated in route table: %+v", ov)
	}
	// The same head-heavy interval again, now spread over the fan: the next
	// pass samples its balance. Escalation must bring the interval's shard
	// skew (max/mean deliveries; 4.0 = one of the 4 shards takes everything)
	// under 2.2 — the busiest shard may hold 3 sub-streams × 8 batches and
	// 6 cold keys × 2 of the 96, skew 1.5 — and below what the escalating
	// pass saw (at least 64 of 96 on one shard, 2.7).
	hotInterval()
	e.Rebalance()
	passes := e.AdaptSamples()
	before, after := passes[len(passes)-2].IntervalSkew, passes[len(passes)-1].IntervalSkew
	if after > 2.2 || after >= before {
		t.Fatalf("interval skew %.2f after escalation (%.2f before), want <= 2.2 and lower", after, before)
	}

	// Phase B: the head goes quiet. Hysteresis must de-escalate, TTL must
	// drain the fan, and the controller must collapse the override.
	sawDeescalate, sawCollapse := false, false
	for r := 0; r < 30 && !sawCollapse; r++ {
		pushSpread(64)
		e.Tick() // barrier, and the TTL sweep on every shard
		for _, ev := range e.Rebalance() {
			switch {
			case ev.Kind == RouteDeescalate && ev.Key == "hot":
				sawDeescalate = true
			case ev.Kind == RouteCollapse && ev.Key == "hot":
				sawCollapse = true
			}
		}
	}
	if !sawDeescalate || !sawCollapse {
		t.Fatalf("cooling incomplete: deescalate=%v collapse=%v; events: %+v",
			sawDeescalate, sawCollapse, e.RouteEvents())
	}
	if ov := e.override("hot"); ov != nil {
		t.Fatalf("override survived collapse: %+v", ov)
	}

	// The audit trail is coherent: sequenced events, per-pass samples.
	evs := e.RouteEvents()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("event sequence not increasing: %+v", evs)
		}
	}
	samples := e.AdaptSamples()
	if len(samples) == 0 {
		t.Fatal("no adapt samples recorded")
	}
	var acted int
	for _, s := range samples {
		acted += s.Events
	}
	if acted != len(evs) {
		t.Fatalf("samples claim %d events, log has %d", acted, len(evs))
	}

	// Delta exports remain fold-equivalent after the whole arc.
	agg := NewAggregator()
	var d bytes.Buffer
	if _, err := e.ExportDelta(&d, new(ExportCursor)); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Apply("w0", bytes.NewReader(d.Bytes())); err != nil {
		t.Fatal(err)
	}
	foldEquiv(t, "post-lifecycle", e, agg)

	e.Close()
	<-done
}

// TestEngineAdaptStreamsStayOnHashShard pins the one balancing mechanism:
// a shard made hot by six moderate keys, none carrying 30% of its traffic,
// is left alone — no key escalates, none is moved elsewhere — and after
// every pass each resident name sits on its hash shard.
func TestEngineAdaptStreamsStayOnHashShard(t *testing.T) {
	const shards, heavyKeys, passes = 4, 6, 4
	cfg := Config{Spec: Window{Size: 64, Period: 32}, Phis: []float64{0.5, 0.9}}
	e, err := NewEngine(EngineConfig{Config: cfg, Shards: shards, ResultBuffer: 1 << 12, Adapt: &AdaptConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	done := drainResults(e)
	// Six heavy keys hash to shard 0; two light keys to each other shard.
	var heavy, light []string
	perShard := make([]int, shards)
	for i := 0; len(heavy) < heavyKeys || len(light) < 2*(shards-1); i++ {
		k := fmt.Sprintf("m%d", i)
		switch sh := e.shardIndex(k); {
		case sh == 0 && len(heavy) < heavyKeys:
			heavy = append(heavy, k)
		case sh != 0 && perShard[sh] < 2:
			perShard[sh]++
			light = append(light, k)
		}
	}
	data := workload.Generate(workload.NewNetMon(31), 64*32)
	off := 0
	push := func(k string, n int) {
		for i := 0; i < n; i++ {
			vs := data[off%(63*32) : off%(63*32)+32]
			off += 32
			if err := e.Push(k, vs); err != nil {
				t.Fatal(err)
			}
		}
	}
	for p := 0; p < passes; p++ {
		// 96 batches on shard 0 (16 per key, 17% of it each) against 12
		// spread over the other three: interval skew 3.6, a hot shard.
		for _, k := range heavy {
			push(k, 16)
		}
		for _, k := range light {
			push(k, 2)
		}
		e.Keys() // barrier: all enqueued batches delivered before sampling
		e.Rebalance()
		for i, s := range e.shards {
			s.keysMu.RLock()
			for name := range s.keys {
				if e.shardOf(name) != s {
					t.Errorf("pass %d: %q resident on shard %d, its hash shard is %d", p, name, i, e.shardIndex(name))
				}
			}
			s.keysMu.RUnlock()
		}
	}
	for _, ev := range e.RouteEvents() {
		if ev.Kind == RouteMigrate {
			t.Errorf("a key was moved off its hash shard: %+v", ev)
		} else {
			t.Errorf("no key dominates the hot shard, yet the controller acted: %+v", ev)
		}
	}
	for _, sm := range e.AdaptSamples() {
		if sm.IntervalSkew <= hotShardFactor {
			t.Errorf("interval skew %.2f: the collision-hot shard was not hot", sm.IntervalSkew)
		}
	}
	e.Close()
	<-done
}

// TestEngineSubStreamZeroSharesItsKeysShard: over fresh engines (each
// NewEngine draws a random hash seed) and many keys, a key's sub-stream 0
// hashes to the key's own shard, so escalation and collapse rename a
// stream in place and never move it between shards; sub-stream 1 still
// lands elsewhere for most keys, which is what spreads an escalated key.
func TestEngineSubStreamZeroSharesItsKeysShard(t *testing.T) {
	cfg := Config{Spec: Window{Size: 64, Period: 32}, Phis: []float64{0.5}}
	for r := 0; r < 16; r++ {
		e, err := NewEngine(EngineConfig{Config: cfg, Shards: 8})
		if err != nil {
			t.Fatal(err)
		}
		spread := 0
		for i := 0; i < 1000; i++ {
			k := fmt.Sprintf("key%d", i)
			if got, want := e.shardIndex(wire.SaltedName(k, 0)), e.shardIndex(k); got != want {
				t.Fatalf("engine %d: %q is on shard %d, its sub-stream 0 on shard %d", r, k, want, got)
			}
			if e.shardIndex(wire.SaltedName(k, 1)) != e.shardIndex(k) {
				spread++
			}
		}
		if spread < 500 {
			t.Fatalf("engine %d: sub-stream 1 left its key's shard for only %d of 1000 keys", r, spread)
		}
		e.Close()
	}
}

// TestEngineAdaptCollapseRacesPush races a collapse of a salt-1 key whose
// sub-stream 0 is not resident against the key's first push. Wherever the
// push lands — sub-stream 0 before the route flip, or the base name after
// it — the collapsed key must answer from its base name: a push that read
// the salt-1 route after the collapse looked for sub-stream 0 but before
// the override went would otherwise mint a sub-stream no route or Evict
// reaches again.
func TestEngineAdaptCollapseRacesPush(t *testing.T) {
	cfg := Config{Spec: Window{Size: 64, Period: 32}, Phis: []float64{0.5}}
	e, err := NewEngine(EngineConfig{Config: cfg, Shards: 2, ResultBuffer: 1 << 12, Adapt: &AdaptConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	done := drainResults(e)
	vs := workload.Generate(workload.NewNetMon(37), 32)
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("r%d", i)
		if _, ok := e.escalateKey(k, 1); !ok {
			t.Fatalf("salt-1 escalation of %q refused", k)
		}
		pushed := make(chan error)
		go func() { pushed <- e.Push(k, vs) }()
		if _, ok := e.collapseKey(k, 1); !ok {
			t.Fatalf("collapse of %q refused", k)
		}
		if err := <-pushed; err != nil {
			t.Fatal(err)
		}
		settle(e)
		if _, ok := e.Query(k); !ok {
			t.Fatalf("%q: its push was delivered under a name nothing reads after the collapse", k)
		}
		if !e.Evict(k) || e.Keys() != 0 {
			t.Fatalf("%q: Evict left %d streams resident", k, e.Keys())
		}
	}
	e.Close()
	<-done
}

// TestEngineAdaptiveConcurrentStress exercises the background controller
// against concurrent pushes, queries, stats reads and delta exports — the
// -race job's workhorse for the adaptive plane. Correctness here is "no
// race, no deadlock, no lost engine": the bit-level guarantees are held
// by the deterministic tests above.
func TestEngineAdaptiveConcurrentStress(t *testing.T) {
	spec := Window{Size: 64, Period: 32}
	cfg := Config{Spec: spec, Phis: []float64{0.5, 0.9}}
	clk := newFakeClock(time.Unix(1_000_000, 0))
	e, err := NewEngine(EngineConfig{
		Config: cfg, Shards: 4, ResultBuffer: 1 << 10,
		KeyTTLDuration: 256 * time.Second, Clock: clk.now, // pushers advance it a second per batch
		Adapt: &AdaptConfig{Interval: 200 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := drainResults(e)
	data := workload.Generate(workload.NewNetMon(29), 64*32)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				key := "hot"
				if i%2 == g%2 {
					key = fmt.Sprintf("k%d", (g*400+i)%7)
				}
				vs := data[(i%63)*32 : (i%63)*32+32]
				clk.advance(time.Second)
				if err := e.Push(key, vs); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur := new(ExportCursor)
		for i := 0; i < 50; i++ {
			e.Query("hot")
			e.Stats()
			e.RouteEvents()
			var buf bytes.Buffer
			if _, err := e.ExportDelta(&buf, cur); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	wg.Wait()
	e.Rebalance() // explicit pass racing the background ticker
	e.Close()
	if e.Rebalance() != nil {
		t.Error("Rebalance on a closed engine returned events")
	}
	<-done
	if err, n := e.Err(); err != nil {
		t.Fatalf("engine saw %d failures, last: %v", n, err)
	}
}
