// Tests for the Engine's backpressure modes and lock-free stats plane:
// blocking delivery must leave operator state bit-identical to drop mode,
// PushContext must bound producer waits without half-ingesting a batch,
// and the counters must account for every evaluation exactly once.
package qlove

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
)

// keyedReports deals n reports of size vals each across keys round-robin,
// drawing values from the NetMon generator.
func keyedReports(seed int64, keys, n, size int) (names []string, vals []float64) {
	data := workload.Generate(workload.NewNetMon(seed), n*size)
	names = make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("key-%03d", i%keys)
	}
	return names, data
}

// TestBackpressureBitEquivalence: a blocking engine with a tiny results
// buffer (so the blocking path actually exercises) and a drop engine with
// a buffer large enough that nothing is shed, fed the same keyed batches,
// must produce byte-identical Export blobs at every shard count — drops
// only ever affect delivery, never operator state.
func TestBackpressureBitEquivalence(t *testing.T) {
	cfg := Config{Spec: Window{Size: 256, Period: 64}, Phis: []float64{0.5, 0.9, 0.99}}
	names, vals := keyedReports(11, 16, 300, 64)
	for _, shards := range []int{1, 2, 8} {
		var blobs [][]byte
		for _, bp := range []Backpressure{BackpressureBlock, BackpressureDrop} {
			buf := 1
			if bp == BackpressureDrop {
				buf = 1 << 16 // large enough that zero evaluations drop
			}
			e, err := NewEngine(EngineConfig{
				Config: cfg, Shards: shards, QueueDepth: 4,
				ResultBuffer: buf, Backpressure: bp,
			})
			if err != nil {
				t.Fatal(err)
			}
			var received atomic.Uint64
			done := make(chan struct{})
			go func() {
				defer close(done)
				for range e.Results() {
					received.Add(1)
				}
			}()
			for i, key := range names {
				if err := e.Push(key, vals[i*64:(i+1)*64]); err != nil {
					t.Fatal(err)
				}
			}
			e.Close()
			<-done
			if n := e.Dropped(); n != 0 {
				t.Fatalf("shards=%d %v: dropped %d evaluations", shards, bp, n)
			}
			st := e.Stats().Total()
			if st.EnqueuedBatches != st.DeliveredBatches+st.FailedBatches {
				t.Fatalf("shards=%d %v: enqueued %d != delivered %d + failed %d",
					shards, bp, st.EnqueuedBatches, st.DeliveredBatches, st.FailedBatches)
			}
			if st.EvalsDelivered != received.Load() {
				t.Fatalf("shards=%d %v: stats say %d delivered, consumer saw %d",
					shards, bp, st.EvalsDelivered, received.Load())
			}
			var blob bytes.Buffer
			if _, err := e.Export(&blob); err != nil {
				t.Fatal(err)
			}
			blobs = append(blobs, blob.Bytes())
		}
		if !bytes.Equal(blobs[0], blobs[1]) {
			t.Fatalf("shards=%d: block-mode export (%d bytes) differs from drop-mode export (%d bytes)",
				shards, len(blobs[0]), len(blobs[1]))
		}
	}
}

// TestEngineStatsPlaneDrops: with a 1-slot results buffer and no consumer,
// drop mode must shed precisely the evaluations that did not fit, and the
// stats plane must account for every one exactly once.
func TestEngineStatsPlaneDrops(t *testing.T) {
	spec := Window{Size: 128, Period: 32}
	e, err := NewEngine(EngineConfig{
		Config: Config{Spec: spec, Phis: []float64{0.5}},
		Shards: 1, ResultBuffer: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := workload.Generate(workload.NewNetMon(3), 640)
	for i := 0; i < 20; i++ {
		if err := e.Push("k", vals[i*32:(i+1)*32]); err != nil {
			t.Fatal(err)
		}
	}
	wantEvals := uint64(spec.Evaluations(640))
	e.Close()
	var received uint64
	for range e.Results() {
		received++
	}
	st := e.Stats().Total()
	if st.EnqueuedBatches != 20 || st.DeliveredBatches != 20 || st.FailedBatches != 0 {
		t.Fatalf("batch accounting: %+v", st)
	}
	if st.EvalsDelivered != received {
		t.Fatalf("stats delivered %d, consumer saw %d", st.EvalsDelivered, received)
	}
	if st.EvalsDropped == 0 {
		t.Fatal("no drops with a 1-slot buffer and no consumer")
	}
	if st.EvalsDelivered+st.EvalsDropped != wantEvals {
		t.Fatalf("delivered %d + dropped %d != %d evaluations",
			st.EvalsDelivered, st.EvalsDropped, wantEvals)
	}
	if e.Dropped() != st.EvalsDropped {
		t.Fatalf("Dropped() %d != stats %d", e.Dropped(), st.EvalsDropped)
	}
	if st.ResidentKeys != 1 {
		t.Fatalf("resident keys %d, want 1", st.ResidentKeys)
	}
}

// TestPushContextBoundsWait: with the shard wedged behind a full results
// channel (block mode, no consumer), PushContext must give up at its
// deadline, the abandoned batch must not count as enqueued, and the
// blocked time must show in the stats plane.
func TestPushContextBoundsWait(t *testing.T) {
	e, err := NewEngine(EngineConfig{
		Config:       Config{Spec: Window{Size: 64, Period: 32}, Phis: []float64{0.5}},
		Shards:       1,
		QueueDepth:   1,
		ResultBuffer: 1,
		Backpressure: BackpressureBlock,
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := workload.Generate(workload.NewNetMon(4), 32)
	// Reports 1-2 fill the window and put eval 1 in the 1-slot results
	// buffer; report 3's eval blocks the shard; report 4 parks in the
	// 1-deep queue. Report 5 then has nowhere to go.
	for i := 0; i < 4; i++ {
		if err := e.Push("k", vals); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := e.PushContext(ctx, "k", vals); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wedged PushContext returned %v, want deadline exceeded", err)
	}
	// An already-cancelled context never touches the engine.
	cancelled, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if err := e.PushContext(cancelled, "k", vals); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled PushContext returned %v", err)
	}
	st := e.Stats().Total()
	if st.EnqueuedBatches != 4 {
		t.Fatalf("enqueued %d batches, want 4 (abandoned pushes must not count)", st.EnqueuedBatches)
	}
	if st.Blocked == 0 {
		t.Fatal("no blocked time recorded while the engine was wedged")
	}
	done := drainResults(e)
	e.Close()
	<-done
	if st := e.Stats().Total(); st.EnqueuedBatches != st.DeliveredBatches {
		t.Fatalf("after close: enqueued %d != delivered %d", st.EnqueuedBatches, st.DeliveredBatches)
	}
}

// TestEngineStressBackpressure hammers one blocking engine from every
// surface at once — PushContext producers with cancellations, a Stats
// poller, an ExportDelta shipper, explicit Evicts, and idle-key expiry on a
// fake clock the producers advance one second per batch — and
// then checks the exactly-once accounting: every evaluation the consumer
// received is counted delivered, nothing is counted dropped, and every
// accepted batch was delivered. Run under -race this is the data-race
// suite for the stats plane.
func TestEngineStressBackpressure(t *testing.T) {
	clk := newFakeClock(time.Unix(1_000_000, 0))
	e, err := NewEngine(EngineConfig{
		Config:         Config{Spec: Window{Size: 128, Period: 32}, Phis: []float64{0.5, 0.99}},
		Shards:         4,
		QueueDepth:     8,
		ResultBuffer:   64,
		Backpressure:   BackpressureBlock,
		KeyTTLDuration: 64 * time.Second,
		Clock:          clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	var received atomic.Uint64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range e.Results() {
			received.Add(1)
		}
	}()

	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(3)
	go func() { // stats poller: must stay lock-free even while producers block
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = e.Stats()
				_ = e.Dropped()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	go func() { // delta shipper with its own cursor
		defer aux.Done()
		cur := new(ExportCursor)
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := e.ExportDelta(io.Discard, cur); err != nil {
					t.Errorf("ExportDelta: %v", err)
					return
				}
				time.Sleep(300 * time.Microsecond)
			}
		}
	}()
	go func() { // evictor
		defer aux.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				e.Evict(fmt.Sprintf("key-%02d", i%24))
				time.Sleep(500 * time.Microsecond)
			}
		}
	}()

	const producers = 6
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vals := workload.Generate(workload.NewNetMon(int64(w+1)), 32)
			for i := 0; i < 150; i++ {
				key := fmt.Sprintf("key-%02d", (w*37+i)%24)
				clk.advance(time.Second)
				switch i % 3 {
				case 0:
					if err := e.Push(key, vals); err != nil {
						t.Errorf("push: %v", err)
						return
					}
				case 1:
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
					err := e.PushContext(ctx, key, vals)
					cancel()
					if err != nil && !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("push context: %v", err)
						return
					}
				default:
					ctx, cancel := context.WithCancel(context.Background())
					cancel() // abandoned before the engine ever sees it
					if err := e.PushContext(ctx, key, vals); !errors.Is(err, context.Canceled) {
						t.Errorf("pre-cancelled push context: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	aux.Wait()
	e.Close()
	<-drained

	st := e.Stats().Total()
	if st.EvalsDropped != 0 || e.Dropped() != 0 {
		t.Fatalf("block mode shed evaluations: dropped=%d Dropped()=%d", st.EvalsDropped, e.Dropped())
	}
	if st.EvalsDelivered != received.Load() {
		t.Fatalf("stats delivered %d evaluations, consumer received %d", st.EvalsDelivered, received.Load())
	}
	if st.FailedBatches != 0 {
		t.Fatalf("built-in path failed %d batches", st.FailedBatches)
	}
	if st.EnqueuedBatches != st.DeliveredBatches {
		t.Fatalf("enqueued %d != delivered %d after close", st.EnqueuedBatches, st.DeliveredBatches)
	}
}
