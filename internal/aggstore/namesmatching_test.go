package aggstore

import (
	"reflect"
	"testing"
	"time"
)

// TestStoreNamesMatching pins the slot-export enumeration on every
// backend: the predicate sees only BASE keys (salted sub-streams ride
// with their group), results sort by internal name — groups contiguous
// in fold order — the returned captures share the residents' slices, and all
// backends agree.
func TestStoreNamesMatching(t *testing.T) {
	salted := func(base string, j byte) string { return base + string([]byte{0, j}) }
	for _, s := range stores(t) {
		now := time.Now()
		s.Touch("w", now)
		s.Touch("v", now)
		mustApply(t, s, "w", fullFrame(t, "a", 1))
		mustApply(t, s, "w", deltaFrame(t, salted("b", 0), 0, 2))
		mustApply(t, s, "w", deltaFrame(t, salted("b", 1), 0, 3))
		mustApply(t, s, "w", fullFrame(t, "c", 4))
		mustApply(t, s, "v", fullFrame(t, "a", 5))

		var probed []string
		all := s.NamesMatching("w", func(base string) bool {
			probed = append(probed, base)
			return true
		})
		wantNames := []string{"a", salted("b", 0), salted("b", 1), "c"}
		gotNames := make([]string, len(all))
		tags := make([]uint64, len(all))
		for i, ns := range all {
			gotNames[i] = ns.Name
			tags[i] = ns.Snap.SealGen()
		}
		if !reflect.DeepEqual(gotNames, wantNames) {
			t.Fatalf("%s: names %q, want %q", s.Kind(), gotNames, wantNames)
		}
		if !reflect.DeepEqual(tags, []uint64{1, 2, 3, 4}) {
			t.Fatalf("%s: state tags %v, want group-contiguous fold order", s.Kind(), tags)
		}
		seen := map[string]bool{}
		for _, b := range probed {
			for i := 0; i < len(b); i++ {
				if b[i] == 0 {
					t.Fatalf("%s: predicate saw internal salted name %q", s.Kind(), b)
				}
			}
			seen[b] = true
		}
		if len(seen) != 3 || !seen["a"] || !seen["b"] || !seen["c"] {
			t.Fatalf("%s: predicate probed %v, want bases a/b/c", s.Kind(), probed)
		}

		// Filtering selects whole groups; the states' slices are not copies.
		only := s.NamesMatching("w", func(base string) bool { return base == "b" })
		if len(only) != 2 || only[0].Name != salted("b", 0) || only[1].Name != salted("b", 1) {
			t.Fatalf("%s: filtered names %v", s.Kind(), only)
		}
		if got, ok := resident(s, "w", salted("b", 0)); !ok || got.SealGen() != only[0].Snap.SealGen() ||
			&got.Parts().Sums[0] != &only[0].Snap.Parts().Sums[0] {
			t.Fatalf("%s: filtered state is not the shared resident", s.Kind())
		}
		if n := s.NamesMatching("w", func(string) bool { return false }); len(n) != 0 {
			t.Fatalf("%s: nothing-matches returned %d states", s.Kind(), len(n))
		}
		if n := s.NamesMatching("ghost", func(string) bool { return true }); len(n) != 0 {
			t.Fatalf("%s: unknown worker returned %d states", s.Kind(), len(n))
		}
	}

	// The instrumented wrapper records the op under its own label.
	in := NewInstrumented(NewMap())
	in.Touch("w", time.Now())
	mustApply(t, in, "w", fullFrame(t, "k", 9))
	in.NamesMatching("w", func(string) bool { return true })
	found := false
	for _, op := range in.Metrics().Ops {
		if op.Op == "names_matching" && op.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("names_matching op not recorded: %+v", in.Metrics().Ops)
	}
}
