// Tests for the Level-1 workbench loans at the engine level: an operator
// borrows from the pool of the shard it runs on, so a key that changes
// shards mid-sub-window must change pools with it.
package qlove

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/internal/workload"
)

// TestEngineMigrationRehomesWorkbenches hands keys between shards — by
// whole-stream moves (a salt-1 escalation sends a key's stream to
// sub-stream 0's shard, its collapse brings it back to the base name's), by
// escalation and by controller passes — while a producer pushes 20-value
// reports against a 32-value period, so the moved operators are nearly
// always holding a workbench on loan from the shard they leave. An
// operator that kept borrowing from (or returning to) its old shard's pool
// would share that pool's free list with another goroutine: a race report
// here, and a hang on a corrupted list in the prototype. The run must finish inside the timeout, every key that was
// not escalated over more than one sub-stream must answer bit-identically
// to an engine that never moved anything (a salt-1 key's merged view is its
// single stream), and once every key is evicted no shard may still count a
// workbench on loan.
func TestEngineMigrationRehomesWorkbenches(t *testing.T) {
	const (
		shards  = 4
		nkeys   = 24
		reports = 3000 // at least; the producer runs until the mover is done
		report  = 20
		moves   = 96
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

	crossings, merged := 0, map[string]bool{} // the mover's, read once finished closes
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		moved := make(chan struct{})
		go func() { // the mover: a fixed script, racing the producer below
			defer close(moved)
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
					// Move a whole stream, or move it back; a key the
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
					case ev.FromShard >= 0 && ev.FromShard != ev.ToShard:
						crossings++ // a stream changed pools
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
		t.Fatal("pushes and stream moves did not finish: a shard is stuck")
	}

	if crossings < 10 || !merged[escalated] {
		t.Fatalf("%d cross-shard stream moves, escalations %v: the test needs keys to move while on loan", crossings, merged)
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
	sameEstimates(t, "after stream moves", moving, static, whole)
	// A key holds a workbench iff its reports do not add up to whole
	// periods, wherever it lives: the moved keys must be counted by the
	// shards they ended up on (the merged ones split into sub-streams and
	// are not comparable).
	loans, moved := static.Stats().Total().InFlightKeys, moving.Stats().Total()
	if loans == 0 || loans > static.Keys() {
		t.Fatalf("static engine: %d keys in flight of %d resident", loans, static.Keys())
	}
	if moved.InFlightKeys < loans-len(merged) || moved.InFlightKeys > moved.ResidentKeys {
		t.Fatalf("moving engine counts %d of %d keys in flight, the static one %d", moved.InFlightKeys, moved.ResidentKeys, loans)
	}

	// Evict → Pool.Put on a shard that did not mint the operator: every
	// loan must come home to the pool the key LAST lived on, and the
	// retired operators must serve new keys there like any other.
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

// TestEngineStreamMoveCarriesLoanGauge moves a key holding a workbench to
// sub-stream 0's shard and back, with no delivery after either move: each
// shard's InFlightKeys gauge must follow the loan at once, not wait for the
// shard's next delivery to republish it.
func TestEngineStreamMoveCarriesLoanGauge(t *testing.T) {
	cfg := Config{Spec: Window{Size: 64, Period: 32}, Phis: []float64{0.5}}
	e, err := NewEngine(EngineConfig{Config: cfg, Shards: 2, Adapt: &AdaptConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	done := drainResults(e)
	k := ""
	for i := 0; k == ""; i++ {
		if c := fmt.Sprintf("k%d", i); e.shardIndex(c) != e.shardIndex(wire.SaltedName(c, 0)) {
			k = c
		}
	}
	home := e.shardIndex(k)
	if err := e.Push(k, workload.Generate(workload.NewNetMon(43), 20)); err != nil {
		t.Fatal(err)
	}
	settle(e)
	loans := func(label string, want int) {
		t.Helper()
		for i, sh := range e.Stats().Shards {
			w := 0
			if i == want {
				w = 1
			}
			if sh.InFlightKeys != w {
				t.Fatalf("%s: shard %d counts %d workbenches on loan, want %d", label, i, sh.InFlightKeys, w)
			}
		}
	}
	loans("before the move", home)
	if ev, ok := e.escalateKey(k, 1); !ok || ev.KeyBatches != 1 {
		t.Fatalf("salt-1 escalation: %+v, ok %v", ev, ok)
	}
	loans("after the move", 1-home)
	if ev, ok := e.collapseKey(k, 1); !ok || ev.KeyBatches != 1 {
		t.Fatalf("collapse: %+v, ok %v", ev, ok)
	}
	loans("after the move back", home)
	e.Close()
	<-done
}
