package qlove

import (
	"testing"
	"unsafe"

	"repro/internal/stream"
)

// TestKeyEntrySize: a resident engine key's entry holds its count-window
// position inline (one word: the elements seen, from which the evaluation
// index follows) and its TTL stamp as an int64 offset from the shard's
// clock epoch, in at most 112 bytes, one size class.
func TestKeyEntrySize(t *testing.T) {
	n := unsafe.Sizeof(keyEntry{})
	t.Logf("keyEntry is %d bytes", n)
	if n > 112 {
		t.Errorf("keyEntry is %d bytes, budget 112", n)
	}
}

// TestEngineOperatorExpiresWholeSummaries: a count-based key drives its
// operator through stream.Position.PushBatch, which keeps no replay ring
// and hands Expire nil, so the engine's operator type must declare that
// it ignores the Expire slice.
func TestEngineOperatorExpiresWholeSummaries(t *testing.T) {
	var op stream.Policy = keyEntry{}.op
	se, ok := op.(stream.SummaryExpirer)
	if !ok || !se.ExpiresWholeSummaries() {
		t.Fatalf("the key operator is %T, not a stream.SummaryExpirer that expires whole summaries", op)
	}
}
