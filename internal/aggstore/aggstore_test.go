package aggstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/window"
	"repro/internal/wire"
)

// testParts is a valid minimal capture: states reach a store only as wire
// frames, so dummies must satisfy the same snapshot-validity contract real
// folds do (the read path folds through core.NewSnapshot anyway).
var testParts = func() core.SnapshotParts {
	p, err := core.New(core.Config{Spec: window.Spec{Size: 256, Period: 64}, Phis: []float64{0.5}})
	if err != nil {
		panic(err)
	}
	return p.Snapshot().Parts()
}()

// mkState builds a distinguishable dummy State, tagged via SealGen (the
// stores never inspect Parts beyond holding them and checking a delta's
// cursor against it).
func mkState(tag uint64) State {
	parts := testParts
	parts.SealGen = tag
	return State{Parts: parts}
}

// fullFrame is a full frame for name carrying mkState(tag): it replaces
// name's whole salt group.
func fullFrame(t testing.TB, name string, tag uint64) []byte {
	t.Helper()
	sn, err := core.NewSnapshot(mkState(tag).Parts)
	if err != nil {
		t.Fatal(err)
	}
	return wire.AppendFrame(nil, name, sn)
}

// deltaFrame is a delta frame for name advancing cursor from to mkState(tag).
// From 0 it bootstraps name: a base name replaces its salt group, a salted
// one retires the group's base state.
func deltaFrame(t testing.TB, name string, from, tag uint64) []byte {
	t.Helper()
	sn, err := core.NewSnapshot(mkState(tag).Parts)
	if err != nil {
		t.Fatal(err)
	}
	d, err := wire.NewDelta(sn, from)
	if err != nil {
		t.Fatal(err)
	}
	return wire.AppendDeltaFrame(nil, name, d)
}

// decodeFrame decodes raw, which holds one frame.
func decodeFrame(t testing.TB, raw []byte) wire.Frame {
	t.Helper()
	f, err := wire.NewDecoder(bytes.NewReader(raw)).DecodeFrame()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// applyRaw folds the one frame raw holds into the worker's state in s.
func applyRaw(t testing.TB, s Store, worker string, raw []byte) error {
	t.Helper()
	return s.ApplyFrame(worker, decodeFrame(t, raw), raw)
}

// mustApply is applyRaw for a frame that must fold.
func mustApply(t testing.TB, s Store, worker string, raw []byte) {
	t.Helper()
	if err := applyRaw(t, s, worker, raw); err != nil {
		t.Fatalf("%s: %v", s.Kind(), err)
	}
}

// resident returns the state s holds under the exact internal name.
func resident(s Store, worker, name string) (State, bool) {
	for _, ns := range s.Group(worker, wire.LogicalKey(name)) {
		if ns.Name == name {
			return ns.State, true
		}
	}
	return State{}, false
}

// stores returns one fresh instance of every backend, the Map first (it
// is the parity reference).
func stores(t *testing.T) []Store {
	t.Helper()
	disk, err := OpenDisk(DiskConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	return []Store{
		NewMap(),
		NewStriped(0),
		NewStriped(1), // degenerate: every group in one stripe
		NewInstrumented(NewStriped(4)),
		disk,
	}
}

// The workers and logical keys driveOps draws from.
var (
	driveWorkers = []string{"wa", "wb", "wc"}
	driveBases   = []string{"k0", "k1", "k2", "k3"}
)

// driveOps applies one deterministic randomized op sequence to every given
// store (the same op to each), calling each (when non-nil) after every
// step. Every state enters as a frame, after the worker's Touch the way a
// push folds: deltas from the resident generation, full frames, base and
// salted bootstraps, tombstones, and deltas whose cursor misses (every
// store must refuse those); plus worker drops and sweeps.
func driveOps(t *testing.T, rng *rand.Rand, steps int, tag *uint64, each func(step int), ss ...Store) {
	t.Helper()
	for step := 0; step < steps; step++ {
		w := driveWorkers[rng.Intn(len(driveWorkers))]
		base := driveBases[rng.Intn(len(driveBases))]
		name := base
		if salt := rng.Intn(4) - 1; salt >= 0 {
			name = wire.SaltedName(base, byte(salt))
		}
		*tag++
		ts := time.Unix(int64(1000+step), 0)
		// Every store holds the same state, so the first one picks the
		// cursors.
		cur, ok := resident(ss[0], w, name)
		var frame []byte
		refused := false
		op := rng.Intn(11)
		switch op {
		case 0, 1, 2: // advance name, bootstrapping it when nothing is resident
			from := uint64(0)
			if ok {
				from = cur.Parts.SealGen
			}
			frame = deltaFrame(t, name, from, *tag)
		case 3:
			frame = wire.AppendTombstoneFrame(nil, name)
		case 4, 5:
			frame = fullFrame(t, name, *tag)
		case 6: // a sub-stream escalating out of its base
			frame = deltaFrame(t, wire.SaltedName(base, byte(rng.Intn(3))), 0, *tag)
		case 7: // the base coming home, retiring its salt group
			frame = deltaFrame(t, base, 0, *tag)
		case 10: // never bootstrapped, or behind the resident generation
			frame, refused = deltaFrame(t, name, cur.Parts.SealGen+1, *tag), true
		}
		for _, s := range ss {
			switch op {
			case 8:
				s.DropWorker(w)
			case 9:
				cutoff := time.Unix(int64(1000+step-25), 0)
				s.SweepWorkers(func(last time.Time) bool { return last.Before(cutoff) })
			default:
				s.Touch(w, ts)
				if err := applyRaw(t, s, w, frame); (err != nil) != refused {
					t.Fatalf("step %d: %s folded op %d with err %v", step, s.Kind(), op, err)
				}
			}
		}
		if each != nil {
			each(step)
		}
	}
}

// TestStoreParityRandomOps drives an identical randomized frame sequence —
// deltas, full frames, bootstraps, tombstones, refused deltas, worker churn
// — through every backend and requires identical observable state after
// every step: Group fold order, resident names, Workers, and the occupancy
// counters.
func TestStoreParityRandomOps(t *testing.T) {
	ss := stores(t)
	check := func(step int) {
		t.Helper()
		ref := ss[0]
		for si := 1; si < len(ss); si++ {
			s := ss[si]
			if got, want := s.WorkerCount(), ref.WorkerCount(); got != want {
				t.Fatalf("step %d: %s WorkerCount %d != map %d", step, s.Kind(), got, want)
			}
			if got, want := s.KeyCount(), ref.KeyCount(); got != want {
				t.Fatalf("step %d: %s KeyCount %d != map %d", step, s.Kind(), got, want)
			}
			if got, want := s.Workers(nil), ref.Workers(nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: %s Workers %v != map %v", step, s.Kind(), got, want)
			}
			for _, w := range driveWorkers {
				if got, want := residentNames(s, w), residentNames(ref, w); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: %s resident names of %s %v != map %v", step, s.Kind(), w, got, want)
				}
				for _, b := range driveBases {
					got, want := s.Group(w, b), ref.Group(w, b)
					if len(got) != len(want) {
						t.Fatalf("step %d: %s Group(%s,%s) has %d members, map %d", step, s.Kind(), w, b, len(got), len(want))
					}
					for i := range got {
						if got[i].Name != want[i].Name || got[i].State.Parts.SealGen != want[i].State.Parts.SealGen {
							t.Fatalf("step %d: %s Group(%s,%s)[%d] = %q/%d, map %q/%d", step, s.Kind(), w, b, i,
								got[i].Name, got[i].State.Parts.SealGen, want[i].Name, want[i].State.Parts.SealGen)
						}
					}
				}
			}
		}
	}
	var tag uint64
	driveOps(t, rand.New(rand.NewSource(7)), 2000, &tag, check, ss...)
}

// TestStoreGroupFoldOrder pins the documented fold order: base first,
// then sub-streams ascending — NUL sorts below every user-key byte —
// whatever order they arrived in.
func TestStoreGroupFoldOrder(t *testing.T) {
	for _, s := range stores(t) {
		s.Touch("w", time.Time{})
		mustApply(t, s, "w", deltaFrame(t, wire.SaltedName("k", 2), 0, 3))
		mustApply(t, s, "w", deltaFrame(t, wire.SaltedName("k", 0), 0, 2))
		want := []string{wire.SaltedName("k", 0), wire.SaltedName("k", 2)}
		if ms, ok := s.(memStore); ok {
			// Frames never leave a base beside its sub-streams (a sub-stream
			// bootstrap retires it), but a WAL of state records can.
			ms.set("w", mutation{op: recPut, name: "k", st: mkState(1)})
			want = append([]string{"k"}, want...)
		}
		g := s.Group("w", "k")
		if len(g) != len(want) {
			t.Fatalf("%s: group size %d, want %d", s.Kind(), len(g), len(want))
		}
		for i, ns := range g {
			if ns.Name != want[i] {
				t.Fatalf("%s: fold order %d = %q, want %q", s.Kind(), i, ns.Name, want[i])
			}
		}
		names := residentNames(s, "w")
		if !sort.StringsAreSorted(names) || len(names) != len(want) {
			t.Fatalf("%s: resident names %v", s.Kind(), names)
		}
	}
}

// TestStoreOccupancyCounters pins the O(1) counters across the key
// lifecycle, including the same logical key resident on several workers.
func TestStoreOccupancyCounters(t *testing.T) {
	for _, s := range stores(t) {
		for w := 0; w < 3; w++ {
			worker := fmt.Sprintf("w%d", w)
			s.Touch(worker, time.Time{})
			mustApply(t, s, worker, fullFrame(t, "shared", 1))
			mustApply(t, s, worker, fullFrame(t, fmt.Sprintf("own-%d", w), 2))
		}
		if s.WorkerCount() != 3 {
			t.Fatalf("%s: WorkerCount %d", s.Kind(), s.WorkerCount())
		}
		if s.KeyCount() != 4 { // shared + 3 owned
			t.Fatalf("%s: KeyCount %d, want 4", s.Kind(), s.KeyCount())
		}
		// A salted sub-stream of an existing base is NOT a new logical key.
		mustApply(t, s, "w0", deltaFrame(t, wire.SaltedName("shared", 1), 0, 3))
		if s.KeyCount() != 4 {
			t.Fatalf("%s: salted sub-stream changed KeyCount to %d", s.Kind(), s.KeyCount())
		}
		s.DropWorker("w1")
		if s.WorkerCount() != 2 || s.KeyCount() != 3 {
			t.Fatalf("%s: after DropWorker: workers=%d keys=%d", s.Kind(), s.WorkerCount(), s.KeyCount())
		}
		if s.SweepWorkers(func(time.Time) bool { return true }) != 2 {
			t.Fatalf("%s: sweep-all missed workers", s.Kind())
		}
		if s.WorkerCount() != 0 || s.KeyCount() != 0 {
			t.Fatalf("%s: after sweep-all: workers=%d keys=%d", s.Kind(), s.WorkerCount(), s.KeyCount())
		}
	}
}

// TestStoreReviveRacesSweep: a stale worker revived — Touch, then a fold —
// while a sweep retires it must come out resident with what it just
// folded, whichever side wins: the sweep either sees the fresh stamp and
// spares the worker, or retires the old one before the revival re-creates
// it. The push is acked, so a lost fold is a read miss until the worker's
// next delta fails as never bootstrapped. A bystander worker's keys give the
// sweep's purge something to walk while the revival runs.
func TestStoreReviveRacesSweep(t *testing.T) {
	const trials, bystanders = 500, 1024
	old, cutoff, now := time.Unix(1, 0), time.Unix(2, 0), time.Unix(3, 0)
	stale := func(last time.Time) bool { return last.Before(cutoff) }
	seed, fresh := fullFrame(t, "old", 1), fullFrame(t, "k", 2)
	ff := decodeFrame(t, fresh)
	for _, s := range stores(t) {
		s.Touch("live", now)
		for k := 0; k < bystanders; k++ {
			mustApply(t, s, "live", fullFrame(t, fmt.Sprint("b", k), 3))
		}
		lost := 0
		for i := 0; i < trials; i++ {
			w := fmt.Sprint("w", i)
			s.Touch(w, old)
			mustApply(t, s, w, seed)
			start := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				<-start
				s.Touch(w, now)
				if err := s.ApplyFrame(w, ff, fresh); err != nil {
					t.Error(err)
				}
			}()
			go func() {
				defer wg.Done()
				<-start
				s.SweepWorkers(stale)
			}()
			close(start)
			wg.Wait()
			if ws := s.Workers(nil); len(ws) != 2 || ws[1] != w || len(s.Group(w, "k")) != 1 {
				lost++
			}
			s.DropWorker(w)
		}
		if lost > 0 || s.KeyCount() != bystanders {
			t.Errorf("%s: the revived worker lost its fold in %d of %d trials; %d keys left, want the %d bystanders",
				s.Kind(), lost, trials, s.KeyCount(), bystanders)
		}
	}
}

// TestInstrumentedRecords pins the wrapper: ops counted (a refused fold
// too), kind labeled, inner lock-wait surfaced.
func TestInstrumentedRecords(t *testing.T) {
	in := NewInstrumented(NewMap())
	if in.Kind() != "map+instrumented" {
		t.Fatalf("kind %q", in.Kind())
	}
	in.Touch("w", time.Time{})
	mustApply(t, in, "w", fullFrame(t, "k", 1))
	if err := applyRaw(t, in, "w", deltaFrame(t, "k", 5, 6)); err == nil {
		t.Fatal("a delta off the resident generation folded")
	}
	in.Group("w", "k")
	in.Drop("w", "k")
	counts := map[string]int64{}
	for _, op := range in.Metrics().Ops {
		counts[op.Op] = op.Count
	}
	want := map[string]int64{"touch": 1, "apply_frame": 2, "group": 1, "drop": 1}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("ops counted %v, want %v", counts, want)
	}
	if _, ok := Store(in).(LockWaiter); !ok {
		t.Fatal("instrumented wrapper hides the inner LockWaiter")
	}
}

// TestGroupSize: a resident unsalted key's group holds its state's
// configuration as one pointer to the shared core.Shape, no flag beside
// the base state, and its salted sub-streams behind one pointer, nil for
// an unsalted key: at most 80 bytes, one size class.
func TestGroupSize(t *testing.T) {
	n := unsafe.Sizeof(group{})
	t.Logf("group is %d bytes", n)
	if n > 80 {
		t.Errorf("group is %d bytes, budget 80", n)
	}
}
