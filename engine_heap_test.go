//go:build !race

// The footprint budget lives behind !race: the race detector's shadow
// memory inflates every heap figure, and the build tag (rather than a
// t.Skip) also keeps the test out of CI's 4-core `-race -run TestEngine…`
// job whatever it is named.

package qlove

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/workload"
)

// liveHeap returns the live heap, in bytes and in objects, after two
// collections (the second frees what the first one's finalizers and
// sync.Pool victim caches released).
func liveHeap() (bytes, objects uint64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.HeapObjects
}

// TestEngineHeapPerKey pins what a resident key costs: the paper's space
// model (§3.1) is the sub-window summaries plus ONE transient tree for the
// sub-window being filled, and a fleet of keys must not turn that into a
// tree per key. 20 000 keys at 512/128 through a 4-shard engine, live heap
// over the pre-engine baseline, three shapes:
//
//   - reports that end on period boundaries (the repo benchmark's shape):
//     no key holds a workbench between deliveries;
//   - 100-value reports, which leave every key mid-period: each key holds
//     a workbench, so the budget is the workbench — at period 128 a
//     period-sized buffer and its seal scratch;
//   - a timed-window engine one idle tick after traffic stopped.
//
// A key is its entry, pusher, operator (its Level 2 and a pointer to the
// pool's shared core.Shape inside), sums, summary headers, burst flags and
// four pointer-free summary blocks (13 words, the 112-byte class, at
// 512/128): 1 010, 2 996 and 1 087 B in 9.1, 21.3 and 10.4 objects
// (linux/amd64, go1.24), under budgets of 1 040, 3 025 and 1 120 B and 9.5,
// 22 and 11 objects. The object census is what the collector marks per key.
func TestEngineHeapPerKey(t *testing.T) {
	if testing.Short() {
		t.Skip("pushes 30M values")
	}
	const (
		keys   = 20_000
		shards = 4
	)
	cfg := Config{Spec: Window{Size: 512, Period: 128}, Phis: []float64{0.5, 0.9, 0.99, 0.999}, FewK: true}
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("key-%05d", i)
	}
	data := workload.Generate(workload.NewNetMon(5), 1<<16)
	report := func(i, n int) []float64 {
		off := (i * n) % (len(data) - n)
		return data[off : off+n]
	}

	for _, shape := range []struct {
		name     string
		report   int // values per report
		reports  int // reports per key
		timed    bool
		budget   float64 // bytes per key
		objects  float64 // heap objects per key (what the collector marks)
		inFlight int     // keys holding a workbench afterwards
		minIdle  int     // workbenches shelved afterwards, at least
	}{
		{name: "aligned", report: 128, reports: 4, budget: 1_040, objects: 9.5, inFlight: 0, minIdle: shards},
		{name: "unaligned", report: 100, reports: 5, budget: 3_025, objects: 22, inFlight: keys},
		{name: "timed-idle", report: 100, reports: 5, timed: true, budget: 1_120, objects: 11, inFlight: 0, minIdle: shards},
	} {
		t.Run(shape.name, func(t *testing.T) {
			clock := newFakeClock(time.Unix(1_700_000_000, 0))
			ecfg := EngineConfig{Config: cfg, Shards: shards}
			if shape.timed {
				ecfg.TimedWindow, ecfg.TimedPeriod, ecfg.Clock = 4*time.Hour, time.Hour, clock.now
			}
			base, baseObjects := liveHeap()
			eng, err := NewEngine(ecfg)
			if err != nil {
				t.Fatal(err)
			}
			done := drainResults(eng)
			for r := 0; r < shape.reports; r++ {
				for i, k := range names {
					if err := eng.Push(k, report(r*keys+i, shape.report)); err != nil {
						t.Fatal(err)
					}
				}
				if shape.timed {
					eng.Keys() // deliver the round before its timed period ends
					clock.advance(time.Hour)
				}
			}
			if shape.timed {
				eng.Tick() // traffic has stopped; the tick seals what the last period held
			}
			if n := eng.Keys(); n != keys { // also the barrier: every push is delivered
				t.Fatalf("resident keys = %d, want %d", n, keys)
			}
			heap, objects := liveHeap()
			perKey, objectsPerKey := float64(heap-base)/keys, float64(objects-baseObjects)/keys
			st := eng.Stats().Total()
			t.Logf("%s: %.0f B/key in %.1f objects, %d keys in flight, %d idle workbenches", shape.name, perKey, objectsPerKey, st.InFlightKeys, st.IdleWorkbenches)
			if perKey > shape.budget {
				t.Errorf("a resident key costs %.0f B, budget %.0f", perKey, shape.budget)
			}
			if objectsPerKey > shape.objects {
				t.Errorf("a resident key is %.1f heap objects, budget %g", objectsPerKey, shape.objects)
			}
			if st.InFlightKeys != shape.inFlight {
				t.Errorf("InFlightKeys = %d, want %d", st.InFlightKeys, shape.inFlight)
			}
			if st.IdleWorkbenches < shape.minIdle || st.IdleWorkbenches > shards*64 {
				t.Errorf("IdleWorkbenches = %d, want %d..%d", st.IdleWorkbenches, shape.minIdle, shards*64)
			}
			eng.Close()
			<-done
			runtime.KeepAlive(eng)
		})
	}
}
