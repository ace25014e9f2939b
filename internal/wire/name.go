package wire

import "strings"

// A frame's key is an INTERNAL name: a logical key K, or "K\x00<j>" for
// sub-stream j of a salted or adaptively escalated K. This file is the one
// definition of that convention; the engine that mints names, the
// aggregator and stores that group them and the slot router that hashes
// them all go through it.

// SaltSep separates a logical key from its sub-stream index. The NUL byte
// is reserved: Engine.Push rejects any key containing it, so a salted name
// can never collide with a user key and SplitName stays purely syntactic.
const SaltSep = '\x00'

// SaltedName derives sub-stream j's internal name.
func SaltedName(key string, j byte) string {
	return key + string([]byte{SaltSep, j})
}

// SplitName decomposes an internal name. For a salted sub-stream name — the
// separator is the second-to-last byte — it returns (logical key, sub-stream
// index, true); for anything else (name, 0, false). It never fails: a name
// ValidName refuses comes back whole, as an unsalted key.
func SplitName(name string) (base string, sub byte, salted bool) {
	if len(name) >= 2 && name[len(name)-2] == SaltSep {
		return name[:len(name)-2], name[len(name)-1], true
	}
	return name, 0, false
}

// LogicalKey strips the sub-stream suffix from an internal name (identity
// for plain keys).
func LogicalKey(name string) string {
	base, _, _ := SplitName(name)
	return base
}

// ValidName reports whether name is one an engine can have minted: the only
// separator allowed is the one SplitName splits on, so the logical key holds
// none. Receivers of frames from outside the process check it before a name
// reaches a store.
func ValidName(name string) bool {
	return strings.IndexByte(LogicalKey(name), SaltSep) < 0
}
