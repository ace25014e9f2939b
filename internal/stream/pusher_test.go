package stream

import (
	"testing"

	"repro/internal/window"
)

// summaryExpiringPolicy wraps recordingPolicy with the SummaryExpirer
// marker, recording what Expire receives.
type summaryExpiringPolicy struct {
	recordingPolicy
}

func (p *summaryExpiringPolicy) ExpiresWholeSummaries() bool { return true }

func TestPusherReplaysExpiredElements(t *testing.T) {
	// Element-wise policies (no marker) must receive the exact period that
	// left the window, oldest first.
	p := &recordingPolicy{}
	k, err := NewPusher(p, window.Spec{Size: 4, Period: 2})
	if err != nil {
		t.Fatal(err)
	}
	evals := 0
	for i := 0; i < 8; i++ {
		if _, ok := k.Push(float64(i)); ok {
			evals++
		}
	}
	if evals != 3 || k.Evaluations() != 3 {
		t.Fatalf("evaluations = %d/%d, want 3", evals, k.Evaluations())
	}
	want := [][]float64{{0, 1}, {2, 3}}
	if len(p.expired) != len(want) {
		t.Fatalf("expire calls = %v", p.expired)
	}
	for i := range want {
		for j := range want[i] {
			if p.expired[i][j] != want[i][j] {
				t.Fatalf("expire %d = %v, want %v", i, p.expired[i], want[i])
			}
		}
	}
}

func TestPusherSkipsRingForSummaryExpirers(t *testing.T) {
	// Marker policies get Expire(nil) — and the pusher must not have
	// allocated a window-sized ring at all.
	p := &summaryExpiringPolicy{}
	spec := window.Spec{Size: 1 << 20, Period: 1 << 18}
	k, err := NewPusher(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if k.replay != nil {
		t.Fatal("pusher kept a replay ring for a summary-expiring policy")
	}
	// Protocol still runs: feed two windows batched, expect the expiry
	// notifications with nil payloads.
	batch := make([]float64, spec.Period)
	evals := 0
	for i := 0; i < 8; i++ {
		k.PushBatch(batch, func(Result) { evals++ })
	}
	if evals != 5 {
		t.Fatalf("evaluations = %d, want 5", evals)
	}
	if len(p.expired) != 4 {
		t.Fatalf("expire calls = %d, want 4", len(p.expired))
	}
	for i, e := range p.expired {
		if len(e) != 0 {
			t.Fatalf("expire %d carried %d values, want none", i, len(e))
		}
	}
}

func TestPusherValidation(t *testing.T) {
	if _, err := NewPusher(nil, window.Spec{Size: 4, Period: 2}); err == nil {
		t.Fatal("nil policy accepted")
	}
	if _, err := NewPusher(&recordingPolicy{}, window.Spec{Size: 3, Period: 2}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// TestPositionDerivesEvaluationIndex: a Position keeps only the element
// count, and derives the index of each evaluation and Evaluations() from it.
// Both must equal an explicit counter of the evaluations produced, pushed
// element by element, in batches that straddle period boundaries, and over
// a tumbling window (Size == Period).
func TestPositionDerivesEvaluationIndex(t *testing.T) {
	for _, spec := range []window.Spec{{Size: 12, Period: 4}, {Size: 5, Period: 5}, {Size: 6, Period: 1}} {
		check := func(t *testing.T, counted int, res Result) {
			t.Helper()
			if res.Evaluation != counted {
				t.Fatalf("%v: evaluation index %d after %d evaluations", spec, res.Evaluation, counted)
			}
		}
		t.Run(spec.String()+"/Push", func(t *testing.T) {
			k, err := NewPusher(&summaryExpiringPolicy{}, spec)
			if err != nil {
				t.Fatal(err)
			}
			counted := 0
			for i := 0; i < 10*spec.Size+3; i++ {
				if res, ok := k.Push(float64(i)); ok {
					check(t, counted, res)
					counted++
				}
				if k.Evaluations() != counted {
					t.Fatalf("Evaluations() = %d after %d evaluations, %d elements", k.Evaluations(), counted, k.Seen())
				}
			}
			if counted == 0 {
				t.Fatal("no evaluations")
			}
		})
		t.Run(spec.String()+"/PushBatch", func(t *testing.T) {
			k, err := NewPusher(&recordingPolicy{}, spec)
			if err != nil {
				t.Fatal(err)
			}
			var pos Position
			counted, inline := 0, 0
			// Batch lengths cycle through values below, at and above the
			// period, so batches start and end at every phase of a period.
			for i, n := 0, 1; i < 40; i, n = i+1, n%(2*spec.Period+1)+1 {
				vs := make([]float64, n)
				k.PushBatch(vs, func(res Result) {
					check(t, counted, res)
					counted++
				})
				if k.Evaluations() != counted {
					t.Fatalf("Evaluations() = %d after %d evaluations, %d elements", k.Evaluations(), counted, k.Seen())
				}
				pos.PushBatch(&summaryExpiringPolicy{}, spec, vs, func(res Result) {
					check(t, inline, res)
					inline++
				})
				if pos.seen != k.Seen() || inline != counted || pos.evaluations(spec) != counted {
					t.Fatalf("inline position at %d elements, %d evaluations; pusher at %d, %d", pos.seen, pos.evaluations(spec), k.Seen(), counted)
				}
			}
			if counted == 0 {
				t.Fatal("no evaluations")
			}
		})
	}
}
