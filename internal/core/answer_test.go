package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core/fewk"
	"repro/internal/window"
)

// eagerCoverage records which §4.3 branches an eager evaluation met.
type eagerCoverage struct {
	burst, calm, sampNotOK, topNotOK bool
}

// eagerEstimates is the few-k selection with every merge run: for each
// managed ϕ, top-k over every retained value and sample-k over the samples,
// then fewk.Outcome — or, under SampleKOnly, the sample-k answer whenever
// it has one. It reads the capture s directly, sharing no gathering or
// selection code with managedAnswer, and notes in cov which branches it
// met.
func eagerEstimates(s Snapshot, cov *eagerCoverage) []float64 {
	cfg := s.Config()
	out := make([]float64, len(cfg.Phis))
	if len(s.summaries) == 0 {
		return out
	}
	for i := range out {
		out[i] = s.sums[i] / float64(len(s.summaries))
	}
	logicalN := cfg.Spec.Size * s.streams
	var sc fewk.Scratch
	for mi, pi := range s.sh.managed {
		phi := cfg.Phis[pi]
		var lists, values, weights [][]float64
		burst := false
		for i := range s.summaries {
			sm := &s.summaries[i]
			if mi >= sm.Managed() {
				continue
			}
			tail := sm.Tail(mi)
			var below []float64
			sv, sw := sm.Samples(mi)
			for _, v := range sv {
				if len(tail) == 0 || v < tail[len(tail)-1] {
					below = append(below, v)
				}
			}
			lists = append(lists, tail, below)
			values, weights = append(values, sv), append(weights, sw)
			burst = burst || sm.Bursty(mi)
		}
		topK, topOK := fewk.TopKMerge(lists, logicalN, phi, &sc)
		sampleK, sampOK := fewk.SampleKMerge(values, weights, logicalN, phi, &sc)
		cov.burst, cov.calm = cov.burst || burst, cov.calm || !burst
		cov.sampNotOK = cov.sampNotOK || (burst && !sampOK)
		cov.topNotOK = cov.topNotOK || !topOK
		if cfg.SampleKOnly && sampOK {
			out[pi] = sampleK
			continue
		}
		out[pi] = fewk.Outcome(out[pi], topK, topOK, sampleK, sampOK, burst, fewk.NeedsTopK(cfg.Spec.Period, phi, cfg.StatThreshold))
	}
	return out
}

// sameEstimates fails t unless got and want agree bit for bit.
func sameEstimates(t *testing.T, what string, phis, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s, ϕ=%v: %v, eager reference %v", what, phis[i], got[i], want[i])
		}
	}
}

// TestManagedAnswerMatchesEagerReference holds Policy.Result,
// Snapshot.Estimates and Snapshot.Estimate to eagerEstimates, bit for bit,
// at every period of eight streams whose traffic bursts now and then (a
// sub-window of 10× values), alone and as merged captures of the first
// 1–8 streams, from the first sub-window until 16 have expired. The modes
// cover the default split, SampleKOnly, TopKOnly and a full budget — the
// last two keep no samples, so under a burst sample-k is not-ok and top-k
// must answer. Periods 16 and 128 make both managed ϕs statistically
// inefficient; at 1 000, ϕ=0.99 is not. (At period 16 a sub-window retains
// too few values for the rank test to flag a burst at all unless it keeps
// its whole tail, so each mode's burst coverage comes from all periods.)
func TestManagedAnswerMatchesEagerReference(t *testing.T) {
	phis := []float64{0.5, 0.9, 0.99, 0.999}
	modes := map[string]Config{
		"default":     {FewK: true},
		"samplek":     {FewK: true, SampleKOnly: true},
		"topk-only":   {FewK: true, TopKOnly: true},
		"full-budget": {FewK: true, Fraction: 1},
	}
	const streams = 8
	for name, mode := range modes {
		var cov eagerCoverage
		for _, period := range []int{16, 128, 1000} {
			// A window of 1 024 values or more, so that each sub-window
			// retains enough values for the rank test to see a burst.
			subWindows := max(8, 1024/period)
			t.Run(fmt.Sprintf("%s/%d", name, period), func(t *testing.T) {
				cfg := mode
				cfg.Spec, cfg.Phis = window.Spec{Size: subWindows * period, Period: period}, phis
				pool, err := NewPool(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ops := make([]*Policy, streams)
				for i := range ops {
					if i%2 == 0 {
						ops[i] = pool.Get()
					} else {
						ops[i] = mustNew(t, cfg)
					}
				}
				rng := rand.New(rand.NewSource(int64(period)))
				vs := make([]float64, period)
				for sw := 0; sw < subWindows+16; sw++ {
					snaps := make([]Snapshot, streams)
					for i, p := range ops {
						scale := 100.0
						if (sw+i)%7 == 3 {
							scale = 1000 // a burst
						}
						for j := range vs {
							vs[j] = scale * math.Exp(rng.NormFloat64())
						}
						if p.SubWindowCount() == subWindows {
							p.Expire(nil)
						}
						p.ObserveBatch(vs)
						snaps[i] = p.Snapshot()
						want := eagerEstimates(snaps[i], &cov)
						sameEstimates(t, fmt.Sprintf("sub-window %d, stream %d: Result", sw, i), phis, p.Result(), want)
						sameEstimates(t, fmt.Sprintf("sub-window %d, stream %d: Estimates", sw, i), phis, snaps[i].Estimates(), want)
					}
					for k := 1; k <= streams; k++ {
						merged, err := MergeSnapshots(snaps[:k])
						if err != nil {
							t.Fatal(err)
						}
						want := eagerEstimates(merged, &cov)
						sameEstimates(t, fmt.Sprintf("sub-window %d, %d streams merged: Estimates", sw, k), phis, merged.Estimates(), want)
						for i, phi := range phis {
							if got, ok := merged.Estimate(phi); !ok || math.Float64bits(got) != math.Float64bits(want[i]) {
								t.Fatalf("sub-window %d, %d streams merged: Estimate(%v) = %v, %v; eager reference %v", sw, k, phi, got, ok, want[i])
							}
						}
					}
				}
			})
		}
		if !cov.burst || !cov.calm {
			t.Fatalf("%s: coverage: burst %v, calm %v; want both", name, cov.burst, cov.calm)
		}
		if keepsNoSamples := mode.TopKOnly || mode.Fraction == 1; keepsNoSamples != cov.sampNotOK {
			t.Fatalf("%s: coverage: sample-k not-ok under a burst %v, want %v", name, cov.sampNotOK, keepsNoSamples)
		}
	}
}

// TestManagedAnswerEmptyLists: a capture whose summaries retain nothing
// for their managed ϕ — both merges not-ok, a burst flagged — answers the
// Level-2 estimate, as the eager reference does.
func TestManagedAnswerEmptyLists(t *testing.T) {
	for _, sampleKOnly := range []bool{false, true} {
		cfg := Config{Spec: window.Spec{Size: 32, Period: 16}, Phis: []float64{0.99}, FewK: true, SampleKOnly: sampleKOnly}.withDefaults()
		sh, err := NewShape(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := Snapshot{sh: sh, streams: 1}
		for i, q := range []float64{3, 5} {
			s.summaries = append(s.summaries, summaryParts{
				quantiles: []float64{q},
				tails:     [][]float64{nil}, values: [][]float64{nil}, weights: [][]float64{nil},
				bursty: []bool{i == 1},
			}.build())
			s.sums = []float64{8}
		}
		var cov eagerCoverage
		want := eagerEstimates(s, &cov)
		if !cov.topNotOK || !cov.sampNotOK || want[0] != 4 {
			t.Fatalf("SampleKOnly %v: reference %v with coverage %+v, want the Level-2 4 with both merges not-ok", sampleKOnly, want, cov)
		}
		sameEstimates(t, fmt.Sprintf("SampleKOnly %v", sampleKOnly), cfg.Phis, s.Estimates(), want)
	}
}
