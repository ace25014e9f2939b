package core

import "fmt"

// ErrMismatched reports an attempt to merge shards with different
// configurations.
var ErrMismatched = fmt.Errorf("shards have mismatched configurations")

// sameConfig compares the fields that affect merge semantics.
func sameConfig(a, b Config) bool {
	if a.Spec != b.Spec || a.FewK != b.FewK || a.Fraction != b.Fraction ||
		a.StatThreshold != b.StatThreshold || a.HighPhiMin != b.HighPhiMin ||
		len(a.Phis) != len(b.Phis) {
		return false
	}
	for i := range a.Phis {
		if a.Phis[i] != b.Phis[i] {
			return false
		}
	}
	return true
}
