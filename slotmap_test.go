package qlove

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// TestSlotOfRouting pins the slot hash contract: every key lands in
// [0, Slots) and salted sub-stream names route with their base.
func TestSlotOfRouting(t *testing.T) {
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key-%d", i)
		s := SlotOf(k)
		if s < 0 || s >= Slots {
			t.Fatalf("SlotOf(%q) = %d outside [0, %d)", k, s, Slots)
		}
		// A salted sub-stream name ("key\x00<j>") shares its base's slot,
		// keeping whole salt groups on one owner set.
		for j := byte(0); j < 3; j++ {
			salted := k + string([]byte{0, j})
			if got := SlotOf(salted); got != s {
				t.Fatalf("SlotOf(%q) = %d, base slot %d", salted, got, s)
			}
		}
	}
}

// TestSlotMapCanonical property-checks NewSlotMap across (replicas,
// replication) shapes: every slot lists exactly R distinct owners in
// [0, N), the primary is s % N, and every key is owned by exactly R
// replicas.
func TestSlotMapCanonical(t *testing.T) {
	for _, tc := range []struct{ n, r int }{
		{1, 1}, {2, 1}, {2, 2}, {3, 2}, {5, 3}, {7, 7},
	} {
		m, err := NewSlotMap(tc.n, tc.r)
		if err != nil {
			t.Fatalf("NewSlotMap(%d, %d): %v", tc.n, tc.r, err)
		}
		if m.Replication() != tc.r {
			t.Fatalf("(%d,%d): replication %d", tc.n, tc.r, m.Replication())
		}
		if max, want := m.MaxReplica(), tc.n-1; max != want {
			t.Fatalf("(%d,%d): max replica %d, want %d", tc.n, tc.r, max, want)
		}
		for s := 0; s < Slots; s++ {
			own := m.Owners(s)
			if len(own) != tc.r {
				t.Fatalf("(%d,%d): slot %d has %d owners", tc.n, tc.r, s, len(own))
			}
			if own[0] != s%tc.n || m.OwnersView(s)[0] != s%tc.n {
				t.Fatalf("(%d,%d): slot %d primary %d, want %d", tc.n, tc.r, s, own[0], s%tc.n)
			}
			seen := map[int]bool{}
			for _, o := range own {
				if o < 0 || o >= tc.n || seen[o] {
					t.Fatalf("(%d,%d): slot %d owners %v invalid", tc.n, tc.r, s, own)
				}
				seen[o] = true
			}
		}
		// Key-level view: exactly R distinct owners, primary the key's slot
		// modulo N; SlotsOwnedBy and IsOwner agree with Owners.
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("probe-%d", i)
			own := m.OwnersView(SlotOf(k))
			if len(own) != tc.r || own[0] != SlotOf(k)%tc.n || m.Owners(SlotOf(k))[0] != own[0] {
				t.Fatalf("(%d,%d): key %q owners %v, slot %d",
					tc.n, tc.r, k, own, SlotOf(k))
			}
		}
		total := 0
		for rep := 0; rep < tc.n; rep++ {
			for _, s := range m.SlotsOwnedBy(rep) {
				if !m.IsOwner(s, rep) {
					t.Fatalf("(%d,%d): SlotsOwnedBy disagrees with IsOwner at slot %d", tc.n, tc.r, s)
				}
				total++
			}
		}
		if total != Slots*tc.r {
			t.Fatalf("(%d,%d): %d total ownerships, want %d", tc.n, tc.r, total, Slots*tc.r)
		}
	}
	for _, tc := range []struct{ n, r int }{{0, 1}, {-1, 1}, {2, 0}, {2, 3}, {3, -1}} {
		if _, err := NewSlotMap(tc.n, tc.r); err == nil {
			t.Fatalf("NewSlotMap(%d, %d) accepted", tc.n, tc.r)
		}
	}
}

// TestSlotMapMove pins Move's table surgery: only the intended slot
// changes, the moved owner's position (primacy) is preserved, and the
// invalid moves are all rejected without mutating anything.
func TestSlotMapMove(t *testing.T) {
	m, err := NewSlotMap(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Clone()

	// Slot 7's owners under the canonical map are [1, 2]; move the
	// primary to the non-owner 0 — 0 must take the PRIMARY position.
	if got := m.Owners(7); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("canonical owners of slot 7: %v", got)
	}
	// Owners is a copy the move leaves alone; OwnersView is the map's own
	// slice, read without allocating, which the move rewrites in place.
	copied, view := m.Owners(7), m.OwnersView(7)
	if n := testing.AllocsPerRun(10, func() { _ = m.OwnersView(7) }); n != 0 {
		t.Fatalf("OwnersView allocates %v times", n)
	}
	if err := m.Move(7, 1, 0); err != nil {
		t.Fatal(err)
	}
	if got := m.Owners(7); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("after move, slot 7 owners %v, want [0 2]", got)
	}
	if !reflect.DeepEqual(copied, []int{1, 2}) || !reflect.DeepEqual(view, []int{0, 2}) {
		t.Fatalf("across the move: Owners copy %v (want [1 2]), OwnersView %v (want [0 2])", copied, view)
	}
	// Every other slot is untouched.
	for s := 0; s < Slots; s++ {
		if s == 7 {
			continue
		}
		if !reflect.DeepEqual(m.Owners(s), before.Owners(s)) {
			t.Fatalf("move of slot 7 disturbed slot %d: %v", s, m.Owners(s))
		}
	}
	// Moving a secondary keeps it secondary.
	if err := m.Move(7, 2, 1); err != nil {
		t.Fatal(err)
	}
	if got := m.Owners(7); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("secondary move: slot 7 owners %v, want [0 1]", got)
	}

	snapshot := m.Clone()
	for _, bad := range []struct {
		name           string
		slot, from, to int
	}{
		{"slot out of range", Slots, 0, 1},
		{"negative slot", -1, 0, 1},
		{"negative destination", 7, 0, -1},
		{"destination already owns", 7, 0, 1},
		{"source does not own", 7, 2, 2},
	} {
		if err := m.Move(bad.slot, bad.from, bad.to); err == nil {
			t.Fatalf("%s: accepted", bad.name)
		}
	}
	for s := 0; s < Slots; s++ {
		if !reflect.DeepEqual(m.Owners(s), snapshot.Owners(s)) {
			t.Fatalf("rejected move mutated slot %d", s)
		}
	}

	// Clone independence: mutating the clone leaves the original alone.
	c := m.Clone()
	for to := 0; to < 3; to++ {
		if !c.IsOwner(9, to) {
			if err := c.Move(9, c.OwnersView(9)[0], to); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if reflect.DeepEqual(c.Owners(9), m.Owners(9)) {
		t.Fatal("clone move did not change the clone")
	}
}

// TestSlotMapJSON round-trips the serialized table and rejects the
// malformed documents a config loader could feed it.
func TestSlotMapJSON(t *testing.T) {
	m, err := NewSlotMap(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Make the table non-canonical so the round-trip is non-trivial.
	for to := 0; to < 3; to++ {
		if !m.IsOwner(11, to) {
			if err := m.Move(11, m.OwnersView(11)[0], to); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back SlotMap
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Replication() != m.Replication() {
		t.Fatalf("round-trip replication %d != %d", back.Replication(), m.Replication())
	}
	for s := 0; s < Slots; s++ {
		if !reflect.DeepEqual(back.Owners(s), m.Owners(s)) {
			t.Fatalf("round-trip slot %d: %v != %v", s, back.Owners(s), m.Owners(s))
		}
	}
	b2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(b2) != string(b) {
		t.Fatal("re-marshal is not byte-stable")
	}

	for name, doc := range map[string]string{
		"wrong slot count":  `{"slots":16,"replication":1,"owners":[[0]]}`,
		"bad replication":   `{"slots":256,"replication":0,"owners":[]}`,
		"short owner list":  mutateDoc(t, m, func(d *slotMapJSON) { d.Owners[3] = []int{1} }),
		"duplicate owner":   mutateDoc(t, m, func(d *slotMapJSON) { d.Owners[3] = []int{1, 1} }),
		"negative owner":    mutateDoc(t, m, func(d *slotMapJSON) { d.Owners[3] = []int{1, -2} }),
		"missing owner set": mutateDoc(t, m, func(d *slotMapJSON) { d.Owners = d.Owners[:Slots-1] }),
		"not json":          `{"slots":`,
	} {
		var bad SlotMap
		if err := json.Unmarshal([]byte(doc), &bad); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

// mutateDoc marshals m, decodes to the raw document, applies the
// mutation, and re-encodes — building an almost-valid rejection case.
func mutateDoc(t *testing.T, m *SlotMap, mutate func(*slotMapJSON)) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var doc slotMapJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	mutate(&doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
