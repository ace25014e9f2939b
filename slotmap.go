package qlove

import (
	"encoding/json"
	"fmt"

	"repro/internal/wire"
)

// Slots is the fixed hash-slot count of the partition map. Every logical
// key hashes to exactly one of the S=256 slots, and the slot — not the
// key — is the unit of placement: growing or shrinking a replica set
// re-homes whole slots (~S/N of them per added replica) instead of
// reshuffling every key the way a bare hash-mod-N partition does.
//
// 256 slots bound the map to a size that serializes into a config line
// while still splitting finer than any plausible replica count here; the
// same fixed-slot indirection is what lets Redis Cluster (16384 slots)
// resize live.
const Slots = 256

// SlotOf returns the hash slot of a logical key: FNV-1a of the base key
// (salted sub-stream names hash by their base, so a key's whole salt
// group shares one slot) folded to [0, Slots). The hash is fixed and
// process-independent: every router instance, every replica exporting a
// slot and every test predicting placement slots identically.
func SlotOf(key string) int {
	key = wire.LogicalKey(key)
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % Slots)
}

// SlotMap is the slot→replica-set table: for each of the Slots hash
// slots, the ordered replica indices owning it. owners[s][0] is the
// slot's primary (preferred for reads); the rest are secondaries that
// hold full copies for failover. Every slot has exactly Replication
// distinct owners.
//
// A SlotMap is a plain value with no internal locking: routers that
// mutate it live (Move during a slot migration) must guard it with their
// own lock, or swap in a Clone.
type SlotMap struct {
	replication int
	owners      [Slots][]int
}

// NewSlotMap returns the canonical map for `replicas` replica indices at
// replication factor `replication` (copies per slot, in [1, replicas]):
// slot s's primary is s % replicas and its secondaries the next
// replication-1 indices round-robin, so ownership load is uniform.
func NewSlotMap(replicas, replication int) (*SlotMap, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("qlove: slot map needs >= 1 replica, got %d", replicas)
	}
	if replication < 1 || replication > replicas {
		return nil, fmt.Errorf("qlove: replication factor %d outside [1, %d replicas]", replication, replicas)
	}
	m := &SlotMap{replication: replication}
	for s := 0; s < Slots; s++ {
		own := make([]int, replication)
		for i := range own {
			own[i] = (s + i) % replicas
		}
		m.owners[s] = own
	}
	return m, nil
}

// Replication returns the copies-per-slot factor.
func (m *SlotMap) Replication() int { return m.replication }

// Owners returns the ordered owner set of one slot (primary first). The
// slice is a copy; callers may keep it.
func (m *SlotMap) Owners(slot int) []int {
	return append([]int(nil), m.owners[slot]...)
}

// OwnersView returns the ordered owner set of one slot without copying it:
// the slice is the map's own, so callers must not modify it, and a later
// Move rewrites it in place. Routers read it under the lock that guards
// their Moves.
func (m *SlotMap) OwnersView(slot int) []int { return m.owners[slot] }

// IsOwner reports whether replica owns slot.
func (m *SlotMap) IsOwner(slot, replica int) bool {
	for _, o := range m.owners[slot] {
		if o == replica {
			return true
		}
	}
	return false
}

// SlotsOwnedBy returns the slots a replica owns (as primary or
// secondary), ascending.
func (m *SlotMap) SlotsOwnedBy(replica int) []int {
	var out []int
	for s := 0; s < Slots; s++ {
		if m.IsOwner(s, replica) {
			out = append(out, s)
		}
	}
	return out
}

// MaxReplica returns the highest replica index any slot references —
// routers validate it against their replica count at construction.
func (m *SlotMap) MaxReplica() int {
	max := 0
	for s := 0; s < Slots; s++ {
		for _, o := range m.owners[s] {
			if o > max {
				max = o
			}
		}
	}
	return max
}

// Move re-homes one slot from owner `from` to non-owner `to`, keeping
// `from`'s position in the owner order (moving the primary installs `to`
// as the new primary). The caller replays the slot's state to `to`
// before flipping; Move itself is pure table surgery.
func (m *SlotMap) Move(slot, from, to int) error {
	if slot < 0 || slot >= Slots {
		return fmt.Errorf("qlove: slot %d outside [0, %d)", slot, Slots)
	}
	if to < 0 {
		return fmt.Errorf("qlove: negative replica index %d", to)
	}
	if m.IsOwner(slot, to) {
		return fmt.Errorf("qlove: replica %d already owns slot %d", to, slot)
	}
	for i, o := range m.owners[slot] {
		if o == from {
			m.owners[slot][i] = to
			return nil
		}
	}
	return fmt.Errorf("qlove: replica %d does not own slot %d (owners %v)", from, slot, m.owners[slot])
}

// Clone returns a deep copy — the copy-on-write half of live migration:
// mutate the clone, then atomically swap it in under the router's lock.
func (m *SlotMap) Clone() *SlotMap {
	c := &SlotMap{replication: m.replication}
	for s := 0; s < Slots; s++ {
		c.owners[s] = append([]int(nil), m.owners[s]...)
	}
	return c
}

// slotMapJSON is the serialized form: explicit slot count so a future
// resize of the constant fails loudly instead of misrouting.
type slotMapJSON struct {
	Slots       int     `json:"slots"`
	Replication int     `json:"replication"`
	Owners      [][]int `json:"owners"`
}

// MarshalJSON serializes the slot table with its shape
// ({"slots":256,"replication":R,"owners":[[...],...]}).
func (m *SlotMap) MarshalJSON() ([]byte, error) {
	doc := slotMapJSON{Slots: Slots, Replication: m.replication, Owners: make([][]int, Slots)}
	for s := 0; s < Slots; s++ {
		doc.Owners[s] = m.owners[s]
	}
	return json.Marshal(doc)
}

// UnmarshalJSON parses and validates a serialized slot table: the slot
// count must match, and every slot must list exactly Replication distinct
// non-negative owners.
func (m *SlotMap) UnmarshalJSON(b []byte) error {
	var doc slotMapJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("qlove: slot map: %w", err)
	}
	if doc.Slots != Slots {
		return fmt.Errorf("qlove: slot map has %d slots, this build partitions %d", doc.Slots, Slots)
	}
	if doc.Replication < 1 {
		return fmt.Errorf("qlove: slot map replication %d < 1", doc.Replication)
	}
	if len(doc.Owners) != Slots {
		return fmt.Errorf("qlove: slot map lists %d owner sets, want %d", len(doc.Owners), Slots)
	}
	parsed := &SlotMap{replication: doc.Replication}
	for s, own := range doc.Owners {
		if len(own) != doc.Replication {
			return fmt.Errorf("qlove: slot %d has %d owners, replication is %d", s, len(own), doc.Replication)
		}
		seen := make(map[int]bool, len(own))
		for _, o := range own {
			if o < 0 {
				return fmt.Errorf("qlove: slot %d lists negative replica %d", s, o)
			}
			if seen[o] {
				return fmt.Errorf("qlove: slot %d lists replica %d twice", s, o)
			}
			seen[o] = true
		}
		parsed.owners[s] = append([]int(nil), own...)
	}
	*m = *parsed
	return nil
}
