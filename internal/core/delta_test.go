package core_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/window"
	"repro/internal/wire"
	"repro/internal/workload"
)

// deltaCfg keeps four 16-value sub-windows with every few-k list in play.
var deltaCfg = core.Config{Spec: window.Spec{Size: 64, Period: 16}, Phis: []float64{0.5, 0.99, 0.999}, FewK: true}

// history runs one operator through a program of seals and expiries and
// returns its capture before the first step and after every step. Each
// program byte is one step: a full period sealed (b%4 is 0 or 1), a partial
// sub-window of 1 to 15 values force-sealed (2), or the oldest summary
// expired (3).
func history(tb testing.TB, seed int64, program []byte) []core.Snapshot {
	tb.Helper()
	p, err := core.New(deltaCfg)
	if err != nil {
		tb.Fatal(err)
	}
	gen := workload.NewNetMon(seed)
	per := deltaCfg.Spec.Period
	caps := []core.Snapshot{p.Snapshot()}
	for _, b := range program {
		switch b % 4 {
		case 0, 1:
			p.ObserveBatch(workload.Generate(gen, per))
		case 2:
			p.ObserveBatch(workload.Generate(gen, int(b>>2)%(per-1)+1))
			p.EndPeriod()
		case 3:
			p.Expire(nil)
		}
		caps = append(caps, p.Snapshot())
	}
	return caps
}

// foldCase names what one (earlier, later) pair of captures exercises.
type foldCase int

const (
	foldBootstrap foldCase = iota // the earlier capture is at generation 0
	foldSameGen                   // both at one generation: nothing ships
	foldSlidOut                   // every summary the earlier one holds slid out
	foldOverlap                   // the later window keeps some of the earlier's
	foldCases
)

// checkFold requires that the capture at caps[i] advanced by the delta of
// caps[j] since its generation is caps[j] bit for bit — directly, and through
// the delta's wire frame as a receiver decodes it — and says which case the
// pair is. A later capture's delta folds into an earlier one only when the
// earlier one is the same state (a no-op between them) and is refused
// otherwise.
func checkFold(t *testing.T, caps []core.Snapshot, i, j int) foldCase {
	t.Helper()
	from, to := caps[i], caps[j]
	d, err := to.Delta(from.SealGen())
	if i > j {
		if err == nil {
			if got, err := from.Advance(d); err == nil && !bytes.Equal(frame(got), frame(to)) {
				t.Fatalf("capture %d advanced back to capture %d differs from it", i, j)
			}
		}
		return foldCases
	}
	if err != nil {
		t.Fatalf("delta of capture %d since capture %d: %v", j, i, err)
	}
	got, err := from.Advance(d)
	if err != nil {
		t.Fatalf("capture %d advanced to capture %d: %v", i, j, err)
	}
	if !bytes.Equal(frame(got), frame(to)) || got.Parts().Shape != to.Parts().Shape {
		t.Fatalf("capture %d advanced to capture %d differs from it", i, j)
	}
	f, err := wire.NewDecoder(bytes.NewReader(wire.AppendDeltaFrame(nil, "k", d))).DecodeFrame()
	if err != nil {
		t.Fatalf("delta of capture %d since capture %d decodes: %v", j, i, err)
	}
	if got, err := from.Advance(f.Delta); err != nil || !bytes.Equal(frame(got), frame(to)) {
		t.Fatalf("capture %d advanced to capture %d by the decoded delta: %v", i, j, err)
	}
	shipped := len(d.Parts().Summaries)
	switch {
	case from.SealGen() == 0:
		return foldBootstrap
	case from.SealGen() == to.SealGen():
		return foldSameGen
	case from.SubWindows() > 0 && shipped == d.Resident():
		return foldSlidOut
	}
	return foldOverlap
}

// frame is c's full wire frame: equal frames are bit-identical captures.
func frame(c core.Snapshot) []byte { return wire.AppendFrame(nil, "k", c) }

// TestDeltaFoldReachesLaterCapture: over seeded operator histories, a
// capture at any generation g1 that folds in the delta of any later capture
// since g1 becomes that capture bit for bit — from generation 0, at one
// generation (nothing shipped, perhaps an expiry), with a g1 so old that
// every summary it held has slid out, and with windows that overlap.
func TestDeltaFoldReachesLaterCapture(t *testing.T) {
	var seen [foldCases + 1]int
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		program := make([]byte, 40)
		for k := range program {
			program[k] = byte(rng.Intn(256))
		}
		caps := history(t, seed, program)
		for i := range caps {
			for j := range caps {
				seen[checkFold(t, caps, i, j)]++
			}
		}
	}
	for c, n := range seen[:foldCases] {
		if n == 0 {
			t.Errorf("no pair exercised fold case %d", c)
		}
	}
}

// TestAdvanceRefusesMismatchedReceiver: a delta folds only into the
// capture at its cursor generation, of an equal configuration, holding the
// summaries the delta keeps.
func TestAdvanceRefusesMismatchedReceiver(t *testing.T) {
	caps := history(t, 3, []byte{0, 0, 0, 0, 0, 3, 3, 3, 0, 0})
	to := caps[len(caps)-1]
	d, err := to.Delta(caps[5].SealGen())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := caps[4].Advance(d); err == nil {
		t.Error("a delta folded into a capture behind its cursor")
	}
	if _, err := (core.Snapshot{}).Advance(d); err == nil {
		t.Error("a delta past generation 0 folded into the zero Snapshot")
	}
	// The delta keeps the two summaries caps[8] holds; a capture at the same
	// generation holding only the newer one cannot take it.
	parts := caps[8].Parts()
	parts.Summaries = parts.Summaries[1:]
	short, err := core.NewSnapshot(parts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := caps[8].Advance(d); err != nil {
		t.Fatal(err)
	}
	if _, err := short.Advance(d); err == nil {
		t.Error("a delta folded into a capture missing summaries it keeps")
	}
	other := deltaCfg
	other.Phis = []float64{0.5, 0.99}
	p, err := core.New(other)
	if err != nil {
		t.Fatal(err)
	}
	p.ObserveBatch(workload.Generate(workload.NewNetMon(4), 5*other.Spec.Period))
	if _, err := p.Snapshot().Advance(d); err == nil {
		t.Error("a delta folded into a capture of another configuration")
	}
}

// FuzzDeltaFold drives the fold property from arbitrary seal, expire and
// cursor programs: every capture of the history is a cursor, and every later
// capture's delta since it must fold into it to that capture bit for bit.
func FuzzDeltaFold(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 0, 0, 0, 0, 3, 3})
	f.Add(int64(2), []byte{2, 6, 3, 3, 3, 0, 1, 254, 3})
	f.Add(int64(3), []byte{3, 0, 3, 0, 3, 0, 0, 0, 0, 0, 0, 0, 3, 3, 3, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, seed int64, program []byte) {
		if len(program) > 48 {
			program = program[:48]
		}
		caps := history(t, seed, program)
		for i := range caps {
			for j := range caps {
				checkFold(t, caps, i, j)
			}
		}
	})
}
