package aggstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/window"
	"repro/internal/wire"
)

// testParts is a valid minimal capture: the disk backend wire-encodes
// every stored state, so dummies must satisfy the same snapshot-validity
// contract real folds do (the read path folds through core.NewSnapshot
// anyway).
var testParts = func() core.SnapshotParts {
	p, err := core.New(core.Config{Spec: window.Spec{Size: 256, Period: 64}, Phis: []float64{0.5}})
	if err != nil {
		panic(err)
	}
	return p.Snapshot().Parts()
}()

// mkState builds a distinguishable dummy State, tagged via SealGen (the
// stores never inspect Parts beyond holding them).
func mkState(tag uint64) State {
	parts := testParts
	parts.SealGen = tag
	return State{Parts: parts}
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

// TestStoreParityRandomOps drives an identical randomized op sequence —
// puts, drops, group replacements, sub bootstraps, worker churn — through
// every backend and requires identical observable state after every step:
// Group fold order, WorkerNames, Workers, and the occupancy counters.
func TestStoreParityRandomOps(t *testing.T) {
	ss := stores(t)
	rng := rand.New(rand.NewSource(7))
	workers := []string{"wa", "wb", "wc"}
	bases := []string{"k0", "k1", "k2", "k3"}
	name := func(base string, salt int) string {
		if salt < 0 {
			return base
		}
		return wire.SaltedName(base, byte(salt))
	}
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
			for _, w := range workers {
				if got, want := s.WorkerNames(w), ref.WorkerNames(w); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: %s WorkerNames(%s) %v != map %v", step, s.Kind(), w, got, want)
				}
				for _, b := range bases {
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
	for step := 0; step < 2000; step++ {
		w := workers[rng.Intn(len(workers))]
		base := bases[rng.Intn(len(bases))]
		salt := rng.Intn(4) - 1 // -1 = base name, 0..2 = sub-streams
		tag++
		st := mkState(tag)
		op := rng.Intn(10)
		subSalt := rng.Intn(3) // drawn once: every backend gets the same op
		for _, s := range ss {
			switch op {
			case 0, 1, 2:
				s.Touch(w, time.Unix(int64(step), 0))
				s.Put(w, name(base, salt), st)
			case 3:
				s.Drop(w, name(base, salt))
			case 4, 5:
				s.Touch(w, time.Unix(int64(step), 0))
				s.ReplaceGroup(w, name(base, salt), st)
			case 6, 7:
				s.Touch(w, time.Unix(int64(step), 0))
				s.BootstrapSub(w, wire.SaltedName(base, byte(subSalt)), st)
			case 8:
				s.DropWorker(w)
			case 9:
				cutoff := time.Unix(int64(step-40), 0)
				s.SweepWorkers(func(last time.Time) bool { return last.Before(cutoff) })
			}
		}
		check(step)
	}
}

// TestStoreGroupFoldOrder pins the documented fold order: base first,
// then sub-streams ascending — NUL sorts below every user-key byte.
func TestStoreGroupFoldOrder(t *testing.T) {
	for _, s := range stores(t) {
		s.Touch("w", time.Time{})
		s.Put("w", wire.SaltedName("k", 2), mkState(3))
		s.Put("w", "k", mkState(1))
		s.Put("w", wire.SaltedName("k", 0), mkState(2))
		g := s.Group("w", "k")
		if len(g) != 3 {
			t.Fatalf("%s: group size %d", s.Kind(), len(g))
		}
		want := []string{"k", wire.SaltedName("k", 0), wire.SaltedName("k", 2)}
		for i, ns := range g {
			if ns.Name != want[i] {
				t.Fatalf("%s: fold order %d = %q, want %q", s.Kind(), i, ns.Name, want[i])
			}
		}
		names := s.WorkerNames("w")
		if !sort.StringsAreSorted(names) || len(names) != 3 {
			t.Fatalf("%s: WorkerNames %v", s.Kind(), names)
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
			s.Put(worker, "shared", mkState(1))
			s.Put(worker, fmt.Sprintf("own-%d", w), mkState(2))
		}
		if s.WorkerCount() != 3 {
			t.Fatalf("%s: WorkerCount %d", s.Kind(), s.WorkerCount())
		}
		if s.KeyCount() != 4 { // shared + 3 owned
			t.Fatalf("%s: KeyCount %d, want 4", s.Kind(), s.KeyCount())
		}
		// A salted sub-stream of an existing base is NOT a new logical key.
		s.Put("w0", wire.SaltedName("shared", 1), mkState(3))
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

// TestInstrumentedRecords pins the wrapper: ops counted, kind labeled,
// inner lock-wait surfaced.
func TestInstrumentedRecords(t *testing.T) {
	in := NewInstrumented(NewMap())
	if in.Kind() != "map+instrumented" {
		t.Fatalf("kind %q", in.Kind())
	}
	in.Touch("w", time.Time{})
	in.Put("w", "k", mkState(1))
	in.Get("w", "k")
	in.Get("w", "missing")
	in.Drop("w", "k")
	m := in.Metrics()
	counts := map[string]int64{}
	for _, op := range m.Ops {
		counts[op.Op] = op.Count
	}
	want := map[string]int64{"touch": 1, "put": 1, "get": 2, "drop": 1}
	for op, n := range want {
		if counts[op] != n {
			t.Fatalf("op %q counted %d, want %d (all: %v)", op, counts[op], n, counts)
		}
	}
	if _, ok := Store(in).(LockWaiter); !ok {
		t.Fatal("instrumented wrapper hides the inner LockWaiter")
	}
}
