package qlove

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/race"
	"repro/internal/workload"
)

// deltaChain returns one worker's bootstrap blob over keys keys whose windows
// are already full, then rounds delta blobs in which every key seals exactly
// one period: each delta frame carries one summary and slides one out.
func deltaChain(t *testing.T, keys, rounds int) (boot []byte, deltas [][]byte) {
	t.Helper()
	cfg := Config{Spec: Window{Size: 256, Period: 64}, Phis: []float64{0.5, 0.99, 0.999}, FewK: true}
	eng, err := NewEngine(EngineConfig{Config: cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	done := drainResults(eng)
	defer func() { eng.Close(); <-done }()
	gen := workload.NewNetMon(9)
	var cur ExportCursor
	export := func(periods int) []byte {
		for k := 0; k < keys; k++ {
			if err := eng.Push(fmt.Sprintf("svc-%03d/latency", k), workload.Generate(gen, periods*cfg.Spec.Period)); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if _, err := eng.ExportDelta(&buf, &cur); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	boot = export(cfg.Spec.Size / cfg.Spec.Period)
	for r := 0; r < rounds; r++ {
		deltas = append(deltas, export(1))
	}
	return boot, deltas
}

// TestAggregatorApplyAllocsPerFrame pins what folding a steady-state
// one-summary delta frame allocates on each backend: the frame's decode
// (key, Level-2 sums, summary headers, the summary's block — see
// TestDecodeAllocsPerFrame) plus the fold's new window slice. The resident
// capture is a value, so the fold allocates no state of its own; the disk
// store logs the frame from a reused scratch buffer. Per-Apply costs (the
// decoder, the blob's first configuration) cancel out of the difference
// between a wide and a one-key chain.
func TestAggregatorApplyAllocsPerFrame(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own behalf")
	}
	const keys, runs = 33, 20
	wideBoot, wide := deltaChain(t, keys, runs+1)
	narrowBoot, narrow := deltaChain(t, 1, runs+1)
	for _, store := range []string{"map", "striped", "disk"} {
		t.Run(store, func(t *testing.T) {
			apply := func(boot []byte, chain [][]byte) float64 {
				agg := mapAgg()
				switch store {
				case "disk":
					agg = mkAgg(t, AggregatorConfig{Store: store, Dir: t.TempDir(), Fsync: "none", CompactBytes: -1})
				case "striped":
					agg = mkAgg(t, AggregatorConfig{Store: store})
				}
				defer agg.Close()
				if _, err := agg.Apply("w", bytes.NewReader(boot)); err != nil {
					t.Fatal(err)
				}
				next := 0
				// AllocsPerRun makes one warm-up call before its runs.
				return testing.AllocsPerRun(runs, func() {
					if _, err := agg.Apply("w", bytes.NewReader(chain[next])); err != nil {
						t.Fatal(err)
					}
					next++
				})
			}
			perFrame := (apply(wideBoot, wide) - apply(narrowBoot, narrow)) / (keys - 1)
			t.Logf("%.2f allocations per steady-state delta frame", perFrame)
			if perFrame > 5 {
				t.Fatalf("a steady-state one-summary delta frame costs %.2f allocations, want <= 5 (4 decode + the window slice)", perFrame)
			}
		})
	}
}

// TestAggregatorQueryAllocs pins what a read of a key two workers hold
// allocates: the live-worker list, each worker's group slice, and the
// merged capture's sums and summary headers. A stored capture merges as it
// is, so re-resolving the configuration per worker per read
// (core.NewShape: a validation and a managed-set slice) adds an allocation
// per worker and fails the budget.
func TestAggregatorQueryAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own behalf")
	}
	boot, deltas := deltaChain(t, 4, 1)
	for _, store := range []string{"striped", "disk"} {
		t.Run(store, func(t *testing.T) {
			cfg := AggregatorConfig{Store: store}
			if store == "disk" {
				cfg.Dir, cfg.Fsync, cfg.CompactBytes = t.TempDir(), "none", -1
			}
			agg := mkAgg(t, cfg)
			defer agg.Close()
			for _, w := range []string{"w1", "w2"} {
				for _, blob := range [][]byte{boot, deltas[0]} {
					if _, err := agg.Apply(w, bytes.NewReader(blob)); err != nil {
						t.Fatal(err)
					}
				}
			}
			var sn Snapshot
			allocs := testing.AllocsPerRun(50, func() {
				var ok bool
				var err error
				if sn, ok, err = agg.Query("svc-002/latency"); !ok || err != nil {
					t.Fatalf("query: ok=%v err=%v", ok, err)
				}
			})
			if sn.Streams() != 2 {
				t.Fatalf("merged %d streams, want 2", sn.Streams())
			}
			t.Logf("%.0f allocations per two-worker read", allocs)
			if allocs > 5 {
				t.Fatalf("a two-worker read allocates %.0f times, want <= 5", allocs)
			}
		})
	}
}
