package qlove

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// clone deep-copies a cursor.
func (c *ExportCursor) clone() *ExportCursor {
	return &ExportCursor{keys: maps.Clone(c.keys), shards: slices.Clone(c.shards), have: c.have, engine: c.engine}
}

// diffCursor is one destination of the differential test: its cursor, the
// aggregator folding its blobs, and which paths its exports took.
type diffCursor struct {
	name             string
	every            int // export after every this many ops
	cur              *ExportCursor
	agg              *Aggregator
	journaled, stale int // exports answered by the journal / sent back to the scan
}

// exportBoth runs one delta export twice against the same (quiescent)
// engine state — a forced full scan on a clone of the cursor, then the real
// export on the cursor itself — and fails unless the blobs and the advanced
// cursors are identical. The real blob is folded into the cursor's
// aggregator. tally records which path the real export took, read off the
// engine-wide full-scan counter — so only when no other export is running —
// and checks it is the path the cursor's age calls for.
func (d *diffCursor) exportBoth(e *Engine, step int, tally bool) error {
	ref := d.cur.clone()
	ref.have = false // the scan is what a cursor without shard clocks gets
	var want, got bytes.Buffer
	if _, err := e.ExportDelta(&want, ref); err != nil {
		return fmt.Errorf("step %d %s: scan export: %w", step, d.name, err)
	}
	resumable := tally && d.cur.have && d.cur.engine == e.id
	// A resumable cursor is sent back to the scan for one reason only: some
	// shard's departures log no longer reaches back to the cursor's clock.
	// (The shards are idle between the two exports, and the scan export
	// above was a round trip to each, so their floors are safe to read.)
	outrun := false
	for i, s := range e.shards {
		outrun = outrun || (resumable && d.cur.shards[i] < s.depFloor)
	}
	scans := e.Stats().Total().ExportFullScans
	if _, err := e.ExportDelta(&got, d.cur); err != nil {
		return fmt.Errorf("step %d %s: export: %w", step, d.name, err)
	}
	if resumable {
		scanned := e.Stats().Total().ExportFullScans != scans
		if scanned != outrun {
			return fmt.Errorf("step %d %s: full scan %v, but departures log outran the cursor %v", step, d.name, scanned, outrun)
		}
		if scanned {
			d.stale++
		} else {
			d.journaled++
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		return fmt.Errorf("step %d %s: journal export is %d bytes, forced scan %d bytes, and they differ",
			step, d.name, got.Len(), want.Len())
	}
	if !maps.Equal(d.cur.keys, ref.keys) || !slices.Equal(d.cur.shards, ref.shards) {
		return fmt.Errorf("step %d %s: cursors diverged after identical blobs", step, d.name)
	}
	if _, err := d.agg.Apply("w", &got); err != nil {
		return fmt.Errorf("step %d %s: fold: %w", step, d.name, err)
	}
	return nil
}

// TestExportDeltaJournalMatchesScan is the differential gate of the
// mutation journal: over a seeded random schedule of pushes, evictions,
// evict-then-recreate, TTL expiry, timed ticks, live stream renames (a
// salt-1 escalation and its collapse) and escalations, and cursor
// persistence round trips, three cursors exporting at different cadences
// must each get, from the journal, byte for byte the blob a full scan
// produces — including the slow one, whose clock the departures log
// outruns, so it exercises the stale fallback. Every cursor's folded
// stream must also still equal the engine's full export.
func TestExportDeltaJournalMatchesScan(t *testing.T) {
	const shards = 4
	cfg := Config{Spec: Window{Size: 64, Period: 16}, Phis: []float64{0.5, 0.99}, FewK: true}
	// Every case runs on its own fake clock; tickers minutes or hours apart
	// never fire in a test, so every flush and every sweep below is driven
	// by it. The untimed cases advance it one second per step: a key idle
	// for 200 steps (about 40 deliveries to its shard) expires.
	const ttl = 200 * time.Second
	cases := []struct {
		name      string
		cfg       EngineConfig
		adapt     bool
		escalated bool // every key is escalated to 3 sub-streams before its first push
		timed     bool
	}{
		{name: "static-ttl", cfg: EngineConfig{Config: cfg, Shards: shards, KeyTTLDuration: ttl}},
		{name: "escalated-ttl", escalated: true,
			cfg: EngineConfig{Config: cfg, Shards: shards, KeyTTLDuration: ttl, Adapt: &AdaptConfig{}}},
		{name: "adaptive-ttl", adapt: true,
			cfg: EngineConfig{Config: cfg, Shards: shards, KeyTTLDuration: ttl, Adapt: &AdaptConfig{}}},
		{name: "timed-wallttl", timed: true,
			cfg: EngineConfig{Config: cfg, Shards: shards, TimedWindow: 4 * time.Hour, TimedPeriod: time.Hour,
				KeyTTLDuration: 6 * time.Hour}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock(time.Unix(1_700_000_000, 0))
			tc.cfg.Clock = clock.now
			e, err := NewEngine(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			done := drainResults(e)
			rng := rand.New(rand.NewSource(12))
			cursors := []*diffCursor{
				{name: "fast", every: 1},
				{name: "medium", every: 23},
				{name: "slow", every: 1900},
			}
			for _, d := range cursors {
				d.cur, d.agg = new(ExportCursor), NewAggregator()
			}
			stable := func() string { return fmt.Sprintf("k%02d", rng.Intn(24)) }
			batch := func() []float64 {
				vs := make([]float64, 1+rng.Intn(40))
				for i := range vs {
					vs[i] = rng.ExpFloat64() * 100
				}
				return vs
			}
			push := func(k string) {
				if tc.escalated && e.override(k) == nil {
					// The key is not resident yet, so this only installs the
					// route: its sub-streams mint fresh as pushes reach them.
					if _, ok := e.escalateKey(k, 3); !ok {
						t.Fatalf("escalate %q refused", k)
					}
				}
				if err := e.Push(k, batch()); err != nil {
					t.Fatal(err)
				}
			}
			const steps = 6000
			for step := 1; step <= steps; step++ {
				if !tc.timed {
					clock.advance(time.Second)
				}
				switch op := rng.Intn(100); {
				case op < 45:
					push(stable())
				case op < 75:
					// A churning tail: each key is pushed once or twice and
					// then expires, feeding the departures logs.
					push(fmt.Sprintf("churn-%d", step/2))
				case op < 80:
					e.Evict(stable())
				case op < 85:
					k := stable()
					e.Evict(k)
					push(k)
				case op < 88:
					if tc.timed {
						clock.advance(time.Duration(rng.Intn(90)) * time.Minute)
						e.Tick()
					}
				case op < 94:
					if tc.adapt {
						k := stable()
						switch rng.Intn(4) {
						case 0, 1:
							// A whole-stream rename: to sub-stream 0 under a
							// salt-1 route, or back to the base name.
							if ov := e.override(k); ov == nil {
								e.escalateKey(k, 1)
							} else {
								e.collapseKey(k, ov.maxSalt)
							}
						case 2:
							e.escalateKey(k, 4)
						case 3:
							if _, ok := e.deescalateKey(k); !ok {
								if ov := e.override(k); ov != nil {
									e.collapseKey(k, ov.maxSalt)
								}
							}
						}
					}
				case op < 97:
					// Persist and restore a cursor, as a restarting worker would.
					d := cursors[rng.Intn(len(cursors))]
					blob, err := d.cur.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					d.cur = new(ExportCursor)
					if err := d.cur.UnmarshalBinary(blob); err != nil {
						t.Fatal(err)
					}
				case op < 98:
					// A lost push: the destination re-bootstraps.
					cursors[0].cur.Reset()
				default:
					push(stable())
				}
				for _, d := range cursors {
					if step%d.every == 0 {
						if err := d.exportBoth(e, step, true); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			e.Close()
			<-done
			// The closed-engine path captures on the exporting goroutines,
			// so the three final flushes run side by side.
			errs := make([]error, len(cursors))
			var wg sync.WaitGroup
			for i, d := range cursors {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = d.exportBoth(e, steps+1, false)
				}()
			}
			wg.Wait()
			for i, d := range cursors {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				foldEquiv(t, tc.name+"/"+d.name, e, d.agg)
				t.Logf("%s: %d exports from the journal, %d fell back to the scan", d.name, d.journaled, d.stale)
				for k := range d.cur.keys {
					if _, _, salted := wire.SplitName(k); !salted && tc.escalated {
						t.Fatalf("%s: unsalted stream %q on an engine that escalates every key", d.name, k)
					}
				}
			}
			if fast := cursors[0]; fast.journaled == 0 || fast.stale > fast.journaled/10 {
				t.Fatalf("fast cursor: %d journal exports, %d fallbacks: the journal path is not the steady state",
					fast.journaled, fast.stale)
			}
			if slow := cursors[2]; slow.stale == 0 {
				t.Fatalf("slow cursor never outran a departures log (%d journal exports): the stale fallback went untested",
					slow.journaled)
			}
		})
	}
}

// TestExportDeltaSteadyStateCost pins what the journal buys: with 20 000
// resident keys, an export that has nothing to ship visits no key and
// allocates per shard, not per key; one that follows k sealed keys visits
// exactly those k.
func TestExportDeltaSteadyStateCost(t *testing.T) {
	const keys, shards = 20_000, 4
	e, err := NewEngine(EngineConfig{
		Config: Config{Spec: Window{Size: 64, Period: 16}, Phis: []float64{0.5, 0.99}, FewK: true},
		Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := drainResults(e)
	defer func() {
		e.Close()
		<-done
	}()
	vs := make([]float64, 16) // one period: every push seals
	for i := range keys {
		if err := e.Push(fmt.Sprintf("key-%05d", i), vs); err != nil {
			t.Fatal(err)
		}
	}
	var cur ExportCursor
	if _, err := e.ExportDelta(io.Discard, &cur); err != nil {
		t.Fatal(err)
	}
	boot := e.Stats().Total()
	if boot.ExportFullScans != shards || boot.ExportKeysVisited != keys || boot.ExportFrames != keys {
		t.Fatalf("bootstrap export: %d full scans, %d keys visited, %d frames; want %d, %d, %d",
			boot.ExportFullScans, boot.ExportKeysVisited, boot.ExportFrames, shards, keys, keys)
	}

	allocs := testing.AllocsPerRun(20, func() {
		if n, err := e.ExportDelta(io.Discard, &cur); err != nil || n != 0 {
			t.Fatalf("idle export: %d bytes, err %v", n, err)
		}
	})
	if limit := float64(8*shards + 16); allocs > limit {
		t.Fatalf("idle export over %d keys allocates %.0f times, want at most %.0f (O(shards))", keys, allocs, limit)
	}
	idle := e.Stats().Total()
	if idle.ExportKeysVisited != boot.ExportKeysVisited || idle.ExportFullScans != boot.ExportFullScans {
		t.Fatalf("idle exports visited %d keys in %d full scans, want none",
			idle.ExportKeysVisited-boot.ExportKeysVisited, idle.ExportFullScans-boot.ExportFullScans)
	}

	const changed = 256
	for i := range changed {
		if err := e.Push(fmt.Sprintf("key-%05d", i*7), vs); err != nil {
			t.Fatal(err)
		}
	}
	e.Evict("key-19999")
	if _, err := e.ExportDelta(io.Discard, &cur); err != nil {
		t.Fatal(err)
	}
	st := e.Stats().Total()
	// The evicted key's departure record is the one visit beyond the frames.
	if visited := st.ExportKeysVisited - idle.ExportKeysVisited; visited != changed+1 {
		t.Fatalf("export after %d sealed keys and one eviction visited %d entries, want %d", changed, visited, changed+1)
	}
	if frames, tombs := st.ExportFrames-idle.ExportFrames, st.ExportTombstones-idle.ExportTombstones; frames != changed || tombs != 1 {
		t.Fatalf("export shipped %d frames and %d tombstones, want %d and 1", frames, tombs, changed)
	}
	if st.ExportFullScans != boot.ExportFullScans {
		t.Fatalf("steady-state export fell back to the scan")
	}
}

// TestExportDeltaOutrunShardFallsBackAlone: when one shard's departures log
// outruns a cursor, that shard alone finds its tombstones among the cursor's
// keys; the other shards still answer from their journals, and the blob
// still folds to the engine's full export.
func TestExportDeltaOutrunShardFallsBackAlone(t *testing.T) {
	const shards, target = 4, 1
	e, err := NewEngine(EngineConfig{
		Config: Config{Spec: Window{Size: 64, Period: 16}, Phis: []float64{0.5, 0.99}, FewK: true},
		Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := drainResults(e)
	defer func() {
		e.Close()
		<-done
	}()
	// 100 keys on the target shard, 5 on each other shard.
	want := [shards]int{5, 5, 5, 5}
	want[target] = 100
	byShard := make([][]string, shards)
	for i, placed := 0, 0; placed < 100+5*(shards-1); i++ {
		k := fmt.Sprintf("key-%d", i)
		if s := e.shardIndex(k); len(byShard[s]) < want[s] {
			byShard[s] = append(byShard[s], k)
			placed++
		}
	}
	vs := make([]float64, 16) // one period: every push seals
	for i := range vs {
		vs[i] = float64(i)
	}
	for _, ks := range byShard {
		for _, k := range ks {
			if err := e.Push(k, vs); err != nil {
				t.Fatal(err)
			}
		}
	}
	cur, agg := new(ExportCursor), NewAggregator()
	export := func() {
		t.Helper()
		var blob bytes.Buffer
		if _, err := e.ExportDelta(&blob, cur); err != nil {
			t.Fatal(err)
		}
		if _, err := agg.Apply("w", &blob); err != nil {
			t.Fatal(err)
		}
	}
	export()

	// 90 evictions leave 10 resident keys on the target shard: more than
	// resident + departedSlack departures, so its log drops the oldest. One
	// eviction and one seal on other shards stay within their logs.
	const evicted = 90
	for _, k := range byShard[target][:evicted] {
		e.Evict(k)
	}
	other := (target + 1) % shards
	e.Evict(byShard[other][0])
	if err := e.Push(byShard[(target+2)%shards][0], vs); err != nil {
		t.Fatal(err)
	}
	settle(e)
	for i, s := range e.shards {
		if outrun := cur.shards[i] < s.depFloor; outrun != (i == target) {
			t.Fatalf("shard %d: departures log outran the cursor %v, want %v", i, outrun, i == target)
		}
	}

	before := e.Stats().Total()
	export()
	after := e.Stats().Total()
	if scans := after.ExportFullScans - before.ExportFullScans; scans != 1 {
		t.Fatalf("export with one outrun shard made %d full scans, want 1", scans)
	}
	if exports := after.Exports - before.Exports; exports != shards {
		t.Fatalf("export answered %d shard captures, want %d", exports, shards)
	}
	if tombs := after.ExportTombstones - before.ExportTombstones; tombs != evicted+1 {
		t.Fatalf("export shipped %d tombstones, want %d", tombs, evicted+1)
	}
	foldEquiv(t, "outrun", e, agg)
}
