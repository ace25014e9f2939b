package core_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/window"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestSummaryLayoutWireRoundTrip: every layout case (LayoutSummaries) and
// sealed NetMon captures at 64/16, 512/128 and 128 000/1 000 survive a
// wire round trip — decode, then encode again — byte for byte, and the
// decoded summaries store a tail in place exactly where the originals do:
// the decoder finds shared tails by value, as the seal makes them.
func TestSummaryLayoutWireRoundTrip(t *testing.T) {
	names, summaries := core.LayoutSummaries(t)
	var snaps []core.Snapshot
	for i, s := range summaries {
		// One configured ϕ below the managed ones, which sit in [0.99, 1).
		l, m := s.NumQuantiles(), s.Managed()
		phis := make([]float64, l)
		for j := range phis {
			phis[j] = 0.5
			if k := j - (l - m); k >= 0 {
				phis[j] = 0.99 + float64(k)/float64(100*m)
			}
		}
		shape := shapeOf(t, core.Config{Spec: window.Spec{Size: 64, Period: 16}, Phis: phis, FewK: true, HighPhiMin: 0.99})
		snap, err := core.NewSnapshot(core.SnapshotParts{Shape: shape, Streams: 1, Sums: make([]float64, l), Summaries: []core.Summary{s}, SealGen: 1})
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		snaps = append(snaps, snap)
	}
	for _, spec := range []window.Spec{{Size: 64, Period: 16}, {Size: 512, Period: 128}, {Size: 128_000, Period: 1_000}} {
		p, err := core.New(core.Config{Spec: spec, Phis: []float64{0.5, 0.9, 0.99, 0.999}, FewK: true})
		if err != nil {
			t.Fatal(err)
		}
		p.ObserveBatch(workload.Generate(workload.NewNetMon(11), 4*spec.Period))
		names, snaps = append(names, spec.String()), append(snaps, p.Snapshot())
	}

	for i, snap := range snaps {
		blob := wire.AppendFrame(nil, names[i], snap)
		key, got, err := wire.NewDecoder(bytes.NewReader(blob)).Decode()
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		if again := wire.AppendFrame(nil, key, got); !bytes.Equal(again, blob) {
			t.Fatalf("%s: the decoded capture re-encodes to %d bytes that differ from the %d it came from", names[i], len(again), len(blob))
		}
		want, have := snap.Parts().Summaries, got.Parts().Summaries
		for j := range want {
			if a, b := sharedTails(&want[j]), sharedTails(&have[j]); a != b {
				t.Errorf("%s: summary %d shares tails %b, decoded %b", names[i], j, a, b)
			}
		}
	}
}

// shapeOf resolves cfg the way an operator does and returns its shape.
func shapeOf(t *testing.T, cfg core.Config) *core.Shape {
	t.Helper()
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p.Snapshot().Parts().Shape
}

// sharedTails has bit mi set when managed quantile mi's tail is read in
// place from the previous one's storage.
func sharedTails(s *core.Summary) uint64 {
	var mask uint64
	for mi := 1; mi < s.Managed() && mi < 64; mi++ {
		prev, tail := s.Tail(mi-1), s.Tail(mi)
		if len(tail) > 0 && len(prev) > 0 && &tail[0] == &prev[0] {
			mask |= 1 << mi
		}
	}
	return mask
}
