package core

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/window"
	"repro/internal/workload"
)

// snapshotsOf captures every shard, in order, for MergeSnapshots.
func snapshotsOf(shards []*Policy) []Snapshot {
	snaps := make([]Snapshot, len(shards))
	for i, p := range shards {
		snaps[i] = p.Snapshot()
	}
	return snaps
}

func TestMergedResultMatchesSingleStream(t *testing.T) {
	// Two shards each consuming half of an i.i.d. stream must merge to an
	// estimate close to a single operator over the whole stream.
	spec := window.Spec{Size: 8000, Period: 1000}
	phis := []float64{0.5, 0.9}
	cfg := Config{Spec: spec, Phis: phis, Digits: -1}
	whole := mustNew(t, cfg)
	shardA := mustNew(t, cfg)
	shardB := mustNew(t, cfg)
	gen := workload.NewNormal(1, 1000, 100)
	for i := 0; i < 16000; i++ {
		v := gen.Next()
		whole.Observe(v)
		if i%2 == 0 {
			shardA.Observe(v)
		} else {
			shardB.Observe(v)
		}
	}
	// Trim both sides to one window's worth of summaries.
	for whole.SubWindowCount() > spec.SubWindows() {
		whole.Expire(nil)
	}
	for shardA.SubWindowCount() > spec.SubWindows() {
		shardA.Expire(nil)
		shardB.Expire(nil)
	}
	folded, err := MergeSnapshots([]Snapshot{shardA.Snapshot(), shardB.Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	merged := folded.Estimates()
	single := whole.Result()
	for j := range phis {
		if rel := math.Abs(merged[j]-single[j]) / single[j]; rel > 0.01 {
			t.Errorf("phi=%v: merged %v vs single %v (rel %v)", phis[j], merged[j], single[j], rel)
		}
	}
}

func TestMergedResultAccuracy(t *testing.T) {
	// Four shards of NetMon data: merged estimates should be close to the
	// exact quantiles of the union.
	spec := window.Spec{Size: 4000, Period: 1000}
	phis := []float64{0.5, 0.9}
	cfg := Config{Spec: spec, Phis: phis}
	var shards []*Policy
	var all []float64
	for s := 0; s < 4; s++ {
		p := mustNew(t, cfg)
		gen := workload.NewNetMon(int64(s + 1))
		for i := 0; i < spec.Size; i++ {
			v := gen.Next()
			p.Observe(v)
			all = append(all, v)
		}
		shards = append(shards, p)
	}
	folded, err := MergeSnapshots(snapshotsOf(shards))
	if err != nil {
		t.Fatal(err)
	}
	merged := folded.Estimates()
	exact := stats.Quantiles(all, phis)
	for j := range phis {
		if rel := math.Abs(merged[j]-exact[j]) / exact[j]; rel > 0.05 {
			t.Errorf("phi=%v: merged %v vs exact %v (rel %v)", phis[j], merged[j], exact[j], rel)
		}
	}
}

func TestMergedResultFewK(t *testing.T) {
	// With full-fraction few-k, the merged Q0.999 must equal the exact
	// Q0.999 of the union (modulo quantization).
	spec := window.Spec{Size: 8000, Period: 1000}
	phis := []float64{0.999}
	cfg := Config{Spec: spec, Phis: phis, FewK: true, Fraction: 1, Digits: -1}
	var shards []*Policy
	var all []float64
	for s := 0; s < 2; s++ {
		p := mustNew(t, cfg)
		gen := workload.NewNetMon(int64(10 + s))
		for i := 0; i < spec.Size; i++ {
			v := gen.Next()
			p.Observe(v)
			all = append(all, v)
		}
		shards = append(shards, p)
	}
	folded, err := MergeSnapshots(snapshotsOf(shards))
	if err != nil {
		t.Fatal(err)
	}
	merged := folded.Estimates()
	exact := stats.Quantiles(all, phis)
	if merged[0] != exact[0] {
		t.Fatalf("merged Q0.999 = %v, exact %v", merged[0], exact[0])
	}
}

// TestMergedRoundRobinProperty: for K shards fed disjoint round-robin
// partitions of one stream, the merged estimates must agree with (a) the
// exact quantiles of the union of the shards' resident windows and (b) a
// single operator fed the full stream, within the paper's Level-2
// tolerance — including the few-k tail path, whose merged read rank spans
// the K×N logical window.
func TestMergedRoundRobinProperty(t *testing.T) {
	spec := window.Spec{Size: 8000, Period: 1000}
	phis := []float64{0.5, 0.9, 0.999}
	configs := map[string]Config{
		"level2": {Spec: spec, Phis: phis, Digits: -1},
		"fewk":   {Spec: spec, Phis: phis, Digits: -1, FewK: true, Fraction: 1},
	}
	for name, cfg := range configs {
		for _, k := range []int{2, 3, 5} {
			for seed := int64(1); seed <= 2; seed++ {
				single := mustNew(t, cfg)
				shards := make([]*Policy, k)
				for i := range shards {
					shards[i] = mustNew(t, cfg)
				}
				gen := workload.NewNormal(seed, 1000, 100)
				total := 2 * k * spec.Size
				stream := workload.Generate(gen, total)
				for i, v := range stream {
					single.Observe(v)
					shards[i%k].Observe(v)
				}
				// Trim everyone to exactly one window of resident
				// summaries: the shards then jointly cover the last k×N
				// stream elements, the single operator the last N.
				for single.SubWindowCount() > spec.SubWindows() {
					single.Expire(nil)
				}
				for _, s := range shards {
					for s.SubWindowCount() > spec.SubWindows() {
						s.Expire(nil)
					}
				}
				folded, err := MergeSnapshots(snapshotsOf(shards))
				if err != nil {
					t.Fatal(err)
				}
				merged := folded.Estimates()
				exactUnion := stats.Quantiles(stream[total-k*spec.Size:], phis)
				sres := single.Result()
				for j, phi := range phis {
					tol := 0.015
					if cfg.FewK && phi >= 0.95 {
						// The merged tail read is near-exact: every
						// sub-window caches its N(1−ϕ) largest values and
						// the merged pool always reaches the k×N read rank.
						tol = 0.01
					}
					if rel := math.Abs(merged[j]-exactUnion[j]) / exactUnion[j]; rel > tol {
						t.Errorf("%s k=%d seed=%d ϕ=%v: merged %v vs exact union %v (rel %.4f)",
							name, k, seed, phi, merged[j], exactUnion[j], rel)
					}
					// Merged and single estimate the same population
					// quantile from samples of different sizes; allow both
					// tolerances.
					if rel := math.Abs(merged[j]-sres[j]) / sres[j]; rel > 2*tol {
						t.Errorf("%s k=%d seed=%d ϕ=%v: merged %v vs single %v (rel %.4f)",
							name, k, seed, phi, merged[j], sres[j], rel)
					}
				}
			}
		}
	}
}

// TestMergedRoundRobinFewKTailBeatsLevel2: on a heavy-tailed workload the
// merged few-k tail estimate must be strictly more accurate than the
// merged Level-2-only estimate — evidence the tail path, not the average,
// answered the managed quantile.
func TestMergedRoundRobinFewKTailBeatsLevel2(t *testing.T) {
	spec := window.Spec{Size: 8000, Period: 1000}
	phis := []float64{0.999}
	const k = 4
	mkShards := func(cfg Config) []*Policy {
		shards := make([]*Policy, k)
		for i := range shards {
			shards[i] = mustNew(t, cfg)
		}
		return shards
	}
	fewk := mkShards(Config{Spec: spec, Phis: phis, Digits: -1, FewK: true, Fraction: 1})
	plain := mkShards(Config{Spec: spec, Phis: phis, Digits: -1})
	stream := workload.Generate(workload.NewNetMon(31), k*spec.Size)
	for i, v := range stream {
		fewk[i%k].Observe(v)
		plain[i%k].Observe(v)
	}
	exact := stats.Quantiles(stream, phis)[0]
	mf, err := MergeSnapshots(snapshotsOf(fewk))
	if err != nil {
		t.Fatal(err)
	}
	mp, err := MergeSnapshots(snapshotsOf(plain))
	if err != nil {
		t.Fatal(err)
	}
	errF := math.Abs(mf.Estimates()[0]-exact) / exact
	errP := math.Abs(mp.Estimates()[0]-exact) / exact
	if errF >= errP {
		t.Fatalf("few-k merged error %.4f not below level-2 merged error %.4f", errF, errP)
	}
	if errF > 0.05 {
		t.Fatalf("few-k merged tail error %.4f too large (estimate %v, exact %v)", errF, mf.Estimates()[0], exact)
	}
}

func TestMergedResultValidation(t *testing.T) {
	spec := window.Spec{Size: 100, Period: 10}
	a := mustNew(t, Config{Spec: spec, Phis: []float64{0.5}})
	b := mustNew(t, Config{Spec: spec, Phis: []float64{0.9}})
	if _, err := MergeSnapshots([]Snapshot{a.Snapshot(), b.Snapshot()}); err == nil {
		t.Fatal("mismatched phis accepted")
	}
	c := mustNew(t, Config{Spec: window.Spec{Size: 200, Period: 10}, Phis: []float64{0.5}})
	if _, err := MergeSnapshots([]Snapshot{a.Snapshot(), c.Snapshot()}); err == nil {
		t.Fatal("mismatched spec accepted")
	}
}

func TestMergedResultEmptyShards(t *testing.T) {
	spec := window.Spec{Size: 100, Period: 10}
	a := mustNew(t, Config{Spec: spec, Phis: []float64{0.5}})
	b := mustNew(t, Config{Spec: spec, Phis: []float64{0.5}})
	folded, err := MergeSnapshots([]Snapshot{a.Snapshot(), b.Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	if got := folded.Estimates(); got[0] != 0 {
		t.Fatalf("empty merge = %v", got)
	}
}
