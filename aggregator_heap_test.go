//go:build !race

// Built only without -race, like TestEngineHeapPerKey: the race detector's
// shadow memory inflates every heap figure.

package qlove

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/workload"
)

// TestAggregatorHeapPerState pins what one resident (worker, key) state
// costs the aggregation tier: several workers bootstrap the same keys at
// 64/16 and then fold delta chains through Aggregator.Apply, and the live
// heap over the pre-aggregator baseline is divided by the resident states.
// A state is its group (the State value inline: one pointer to the shared
// configuration, the Level-2 sums, the window's summary headers, the seal
// generation), the group's map entry and key, its sums, its summary-header
// slice and one block per resident summary. The disk store keeps the same
// states in its map, plus a constant for its log.
//
// While every State carried its own copy of the 96-byte Config the group
// was 192 bytes and a state cost 1 026 B (striped) / 1 003 B (disk), in 8.0
// objects; sharing the Shape put the group at 112 and a state at 946 /
// 923 B, and dropping the group's resident-base flag puts the group at 96
// and a state at 930 / 907 B, in the same 8.0 objects. With 32-byte
// summary headers (48 before) a state costs 866 / 843 B (linux/amd64,
// go1.24).
func TestAggregatorHeapPerState(t *testing.T) {
	if testing.Short() {
		t.Skip("folds 20 000 states")
	}
	const (
		workers = 4
		keys    = 5_000
		rounds  = 3
	)
	cfg := Config{Spec: Window{Size: 64, Period: 16}, Phis: []float64{0.5, 0.9, 0.99, 0.999}, FewK: true}
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("svc-%04d/latency", i)
	}
	// blobs[w] is worker w's bootstrap with every window full, then one
	// delta per round in which every key seals one period.
	blobs := make([][][]byte, workers)
	for w := range blobs {
		eng, err := NewEngine(EngineConfig{Config: cfg, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		done := drainResults(eng)
		gen := workload.NewNetMon(int64(40 + w))
		var cur ExportCursor
		for r := 0; r <= rounds; r++ {
			n := cfg.Spec.Period
			if r == 0 {
				n = cfg.Spec.Size
			}
			for _, k := range names {
				if err := eng.Push(k, workload.Generate(gen, n)); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if _, err := eng.ExportDelta(&buf, &cur); err != nil {
				t.Fatal(err)
			}
			blobs[w] = append(blobs[w], buf.Bytes())
		}
		eng.Close()
		<-done
	}

	for _, store := range []struct {
		cfg     AggregatorConfig
		budget  float64 // bytes per state
		objects float64 // heap objects per state
	}{
		{AggregatorConfig{Store: "striped"}, 880, 8.5},
		{AggregatorConfig{Store: "disk", Fsync: "none", CompactBytes: -1}, 880, 8.5},
	} {
		t.Run(store.cfg.Store, func(t *testing.T) {
			if store.cfg.Store == "disk" {
				store.cfg.Dir = t.TempDir()
			}
			base, baseObjects := liveHeap()
			agg := mkAgg(t, store.cfg)
			for r := 0; r <= rounds; r++ {
				for w := range blobs {
					if _, err := agg.Apply(fmt.Sprintf("worker-%d", w), bytes.NewReader(blobs[w][r])); err != nil {
						t.Fatal(err)
					}
				}
			}
			if n := agg.Keys(); n != keys {
				t.Fatalf("resident keys = %d, want %d", n, keys)
			}
			heap, objects := liveHeap()
			const states = workers * keys
			perState, objectsPerState := float64(heap-base)/states, float64(objects-baseObjects)/states
			t.Logf("%s: %.0f B/state in %.2f objects", store.cfg.Store, perState, objectsPerState)
			if perState > store.budget {
				t.Errorf("a resident state costs %.0f B, budget %.0f", perState, store.budget)
			}
			if objectsPerState > store.objects {
				t.Errorf("a resident state is %.2f heap objects, budget %.1f", objectsPerState, store.objects)
			}
			runtime.KeepAlive(agg)
			if err := agg.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	runtime.KeepAlive(blobs)
}
