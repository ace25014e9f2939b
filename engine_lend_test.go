// Tests for the Level-1 workbench loans at the engine level: an operator
// borrows from the pool of the shard it runs on, and a stream never leaves
// its shard — renaming it (escalation, collapse) keeps the loan at home.
package qlove

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestEngineRenamesKeepWorkbenchesHome renames streams — whole streams by
// salt-1 escalations (a key's stream becomes its sub-stream 0) and their
// collapses (back to the base name), plus an escalation and controller
// passes — while a producer pushes 20-value reports against a 32-value
// period, so the renamed operators are nearly always holding a workbench on
// loan from their shard's pool. The run must finish inside the timeout
// (and, under -race, without a report), every key that was not escalated
// over more than one sub-stream must answer bit-identically to an engine
// that never renamed anything (a salt-1 key's merged view is its single
// stream), and once every key is evicted no shard may still count a
// workbench on loan.
func TestEngineRenamesKeepWorkbenchesHome(t *testing.T) {
	const (
		shards  = 4
		nkeys   = 24
		reports = 3000 // at least; the producer runs until the mover is done
		report  = 20
		moves   = 96
		warmup  = 240 // delivered reports before the mover starts
	)
	cfg := Config{Spec: Window{Size: 64, Period: 32}, Phis: []float64{0.5, 0.9, 0.99}, FewK: true}
	// The test escalates one key itself; a controller pass may escalate
	// another, which then joins merged and is compared for residency only.
	moving, err := NewEngine(EngineConfig{Config: cfg, Shards: shards, ResultBuffer: 1 << 12,
		Adapt: &AdaptConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	static, err := NewEngine(EngineConfig{Config: cfg, Shards: shards, ResultBuffer: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	doneM, doneS := drainResults(moving), drainResults(static)
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	const escalated = "k0"
	data := workload.Generate(workload.NewNetMon(41), 1<<12)

	renamed, merged := 0, map[string]bool{} // the mover's, read once finished closes
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		moved := make(chan struct{})
		go func() { // the mover: a fixed script, racing the producer below
			defer close(moved)
			// Start once the producer's reports are being delivered: a
			// mover that ran ahead of the first delivery would finish its
			// script renaming only streams with no batches yet.
			for moving.Stats().Total().DeliveredBatches < warmup {
				time.Sleep(100 * time.Microsecond)
			}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < moves; i++ {
				var evs []RouteEvent
				switch {
				case i == 5:
					if ev, ok := moving.escalateKey(escalated, 4); ok {
						evs = append(evs, ev)
					}
				case i%16 == 15:
					evs = moving.Rebalance()
				default:
					// Rename a whole stream, or rename it back; a key the
					// controller fanned out is left to the controller.
					k := keys[1+rng.Intn(8)]
					var ev RouteEvent
					ok := false
					switch ov := moving.override(k); {
					case ov == nil:
						ev, ok = moving.escalateKey(k, 1)
					case ov.maxSalt == 1:
						ev, ok = moving.collapseKey(k, 1)
					}
					if ok {
						evs = append(evs, ev)
					}
				}
				for _, ev := range evs {
					switch {
					case ev.Kind == RouteEscalate && ev.Salt > 1:
						merged[ev.Key] = true // answers from merged sub-streams from here on
					case ev.KeyBatches*report%uint64(cfg.Spec.Period) != 0:
						renamed++ // every batch is one report: a sub-window was in flight
					}
				}
			}
		}()
		rng := rand.New(rand.NewSource(13))
		for i, moverDone := 0, false; i < reports || !moverDone; i++ {
			k := keys[rng.Intn(nkeys)]
			if rng.Intn(3) == 0 {
				k = keys[rng.Intn(9)] // the keys being moved carry a third of the load
			}
			off := rng.Intn(len(data) - report)
			vs := data[off : off+report]
			if err := moving.Push(k, vs); err != nil {
				t.Error(err)
			}
			if err := static.Push(k, vs); err != nil {
				t.Error(err)
			}
			select {
			case <-moved:
				moverDone = true
			default:
			}
		}
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("pushes and renames did not finish: a shard is stuck")
	}

	if renamed < 10 || !merged[escalated] {
		t.Fatalf("%d renames on loan, escalations %v: the test needs streams renamed while on loan", renamed, merged)
	}
	settle(moving)
	var whole []string
	for _, k := range keys {
		if !merged[k] {
			whole = append(whole, k)
		} else if _, ok := moving.Query(k); !ok {
			t.Fatalf("escalated key %q lost", k)
		}
	}
	sameEstimates(t, "after renames", moving, static, whole)
	// A key holds a workbench iff its reports do not add up to whole
	// periods, under whichever name it lives (the merged ones split into
	// sub-streams and are not comparable).
	loans, moved := static.Stats().Total().InFlightKeys, moving.Stats().Total()
	if loans == 0 || loans > static.Keys() {
		t.Fatalf("static engine: %d keys in flight of %d resident", loans, static.Keys())
	}
	if moved.InFlightKeys < loans-len(merged) || moved.InFlightKeys > moved.ResidentKeys {
		t.Fatalf("moving engine counts %d of %d keys in flight, the static one %d", moved.InFlightKeys, moved.ResidentKeys, loans)
	}

	// Evict → Pool.Put after the renames: every loan must come home to its
	// shard's pool, and the retired operators must serve new keys there
	// like any other.
	for _, k := range keys {
		if !moving.Evict(k) || !static.Evict(k) {
			t.Fatalf("evict %q found nothing", k)
		}
	}
	for i, sh := range moving.Stats().Shards {
		if sh.InFlightKeys != 0 || sh.ResidentKeys != 0 {
			t.Fatalf("shard %d after evicting everything: %d resident, %d workbenches on loan", i, sh.ResidentKeys, sh.InFlightKeys)
		}
	}
	fresh := make([]string, nkeys)
	for i := range fresh {
		fresh[i] = fmt.Sprintf("fresh%d", i)
		for r := 0; r < 5; r++ {
			vs := data[(i*5+r)*report : (i*5+r+1)*report]
			if err := moving.Push(fresh[i], vs); err != nil {
				t.Fatal(err)
			}
			if err := static.Push(fresh[i], vs); err != nil {
				t.Fatal(err)
			}
		}
	}
	sameEstimates(t, "recycled operators", moving, static, fresh)

	moving.Close()
	static.Close()
	<-doneM
	<-doneS
	if err, n := moving.Err(); err != nil {
		t.Fatalf("engine saw %d failures, last: %v", n, err)
	}
}

// TestEngineStreamMoveCarriesLoanGauge escalates keys holding a workbench
// to salt-1 routing and collapses them back while every other shard is
// stalled. Each rename is one control op on the key's own shard: neither
// call may wait on a stalled shard or leave work in its queue. The loan,
// and with it the InFlightKeys gauge, stays on the home shard throughout.
func TestEngineStreamMoveCarriesLoanGauge(t *testing.T) {
	const shards = 4
	cfg := Config{Spec: Window{Size: 64, Period: 32}, Phis: []float64{0.5}}
	e, err := NewEngine(EngineConfig{Config: cfg, Shards: shards, Adapt: &AdaptConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	done := drainResults(e)
	data := workload.Generate(workload.NewNetMon(43), 32)
	fresh := 0
	// alone runs op while every shard but home is stalled: the test holds
	// its keysMu, and a new key's first batch parks the shard goroutine in
	// setKey. It fails if op waits on a stalled shard or queues work there.
	alone := func(label string, home int, op func()) {
		t.Helper()
		var stalled []*engineShard
		for i, s := range e.shards {
			if i == home {
				continue
			}
			k := ""
			for ; k == "" || e.shardIndex(k) != i; fresh++ {
				k = fmt.Sprintf("stall%d", fresh)
			}
			s.keysMu.Lock()
			stalled = append(stalled, s)
			if err := e.Push(k, data); err != nil { // a whole period: no loan
				t.Fatal(err)
			}
			for len(s.in) > 0 {
				runtime.Gosched()
			}
		}
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			op()
		}()
		waited := false
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			waited = true
		}
		queued := 0
		for _, s := range stalled {
			queued += len(s.in)
			s.keysMu.Unlock()
		}
		<-finished
		settle(e) // the stalled shards mint their keys before the next stall
		if waited || queued != 0 {
			t.Fatalf("%s: waited on another shard: %v; control ops left on the others' queues: %d", label, waited, queued)
		}
	}
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%d", i)
		home := e.shardIndex(k)
		if err := e.Push(k, data[:20]); err != nil {
			t.Fatal(err)
		}
		settle(e)
		loans := func(label string) {
			t.Helper()
			for j, sh := range e.Stats().Shards {
				w := 0
				if j == home {
					w = 1
				}
				if sh.InFlightKeys != w {
					t.Fatalf("%s %s: shard %d counts %d workbenches on loan, want %d", k, label, j, sh.InFlightKeys, w)
				}
			}
		}
		loans("before the escalation")
		var ev RouteEvent
		ok := false
		alone("salt-1 escalation of "+k, home, func() { ev, ok = e.escalateKey(k, 1) })
		if !ok || ev.KeyBatches != 1 {
			t.Fatalf("salt-1 escalation of %s: %+v, ok %v", k, ev, ok)
		}
		loans("after the escalation")
		alone("collapse of "+k, home, func() { ev, ok = e.collapseKey(k, 1) })
		if !ok || ev.KeyBatches != 1 {
			t.Fatalf("collapse of %s: %+v, ok %v", k, ev, ok)
		}
		loans("after the collapse")
		if !e.Evict(k) {
			t.Fatalf("evict %s found nothing", k)
		}
	}
	e.Close()
	<-done
}
