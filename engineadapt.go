package qlove

import (
	"sort"
	"sync"
	"time"

	"repro/internal/wire"
)

// AdaptConfig switches the Engine into ADAPTIVE routing: an
// occupancy-driven controller watches the per-shard stats plane every
// Interval, and a key dominating a hot shard ESCALATES to salted
// sub-stream routing (pushes spread over adaptSalt sub-streams
// "key\x00<j>", each hash-routed and windowed on its own). It
// DE-ESCALATES back to one stream when its traffic subsides, and
// eventually collapses to plain hash routing once the extra sub-streams
// expire. Salting is the only balancing mechanism: every internal name
// lives on its hash shard, so a shard made hot by several moderate keys,
// none dominating it, is left alone.
//
// Sub-stream 0 hashes to its key's own shard, so a fresh escalation
// renames the base stream to sub-stream 0 and a collapse renames it back,
// each with one closure on that shard's queue, ordered behind every
// batch pushed before the route flipped: per-key delivery order and seal
// generations are never violated. An escalated key, however, is no longer
// one stream:
//
//   - Reads merge: Snapshot, Query, Export and ExportKeys fold the key's
//     resident sub-streams through the core.Snapshot merge (disjoint
//     sub-streams of one logical key, the semantics of cross-engine
//     aggregation), so its capture is a MERGED view, not bit-identical to
//     an unsalted single stream's. Per-key element order holds within a
//     sub-stream, not across them.
//   - Keys() and ShardStats.ResidentKeys count sub-streams.
//   - ExportDelta ships each sub-stream under its INTERNAL name — a single
//     stream with real seal generations, so cursors anchor on it like any
//     other key — and receivers (Aggregator, or any wire consumer grouping
//     on the NUL convention) fold sub-streams back to the logical key at
//     read time.
//   - Results carry the logical key, but each sub-stream evaluates its own
//     window.
//
// Keys must not contain a NUL byte, the sub-stream separator. The
// controller's thresholds are the constants below.
type AdaptConfig struct {
	// Interval is the background controller cadence; it must not be
	// negative. 0 = no background goroutine: rebalancing is left to
	// explicit Engine.Rebalance calls (how the deterministic tests drive
	// it).
	Interval time.Duration
}

// The adaptive controller's thresholds.
const (
	// adaptSalt is the sub-stream fan an escalated key spreads over.
	adaptSalt = 8
	// hotShardFactor flags a shard as hot when its delivered-batch count
	// over the last controller pass exceeds factor × the per-shard mean
	// (strictly: with 2 shards a factor of 2 or more never fires).
	hotShardFactor = 1.5
	// hotKeyFrac decides WHICH key on a hot shard escalates: the shard's
	// top key must carry at least this fraction of the shard's
	// last-interval deliveries (otherwise the imbalance is not one key's
	// fault, salting would not fix it, and the shard is left alone).
	hotKeyFrac = 0.3
	// coolFrac de-escalates an escalated key once its share of the
	// engine's last-interval deliveries falls below this fraction for
	// coolPasses consecutive passes (hysteresis against flapping).
	coolFrac   = 0.05
	coolPasses = 2
	// minBatches is the minimum engine-wide deliveries in a pass for the
	// controller to act at all — below it the sample is noise.
	minBatches = 64
	// topKeys is how many keys per shard the occupancy sample attributes
	// individually.
	topKeys = 8
)

// AdaptSample is one controller pass's observation, recorded whether or
// not the pass acted — the skew-over-time series the repo benchmark
// reports as engine.interval_skew_max.
type AdaptSample struct {
	// At is the engine clock at the pass.
	At time.Time
	// Deliveries is the engine-wide batches delivered since the previous
	// pass.
	Deliveries uint64
	// Skew is the cumulative shard skew (EngineStats.Skew) at the pass.
	Skew float64
	// IntervalSkew is the skew of just the last interval's deliveries —
	// the signal the controller actually acts on (cumulative skew cannot
	// recover quickly from a bad start; interval skew shows the current
	// routing's balance).
	IntervalSkew float64
	// Escalated counts keys currently escalated.
	Escalated int
	// Events is how many routing actions this pass took.
	Events int
}

// adaptLogCap bounds the retained event and sample logs.
const adaptLogCap = 4096

// escState tracks one escalated key's cooling hysteresis.
type escState struct {
	salt int // current fan (1 = de-escalated, awaiting collapse)
	cool int // consecutive passes below coolFrac
}

// adaptState is the controller: its cadence, per-shard delivery marks,
// per-key escalation state, and the bounded event/sample logs. mu
// serializes passes (the background loop and explicit Rebalance calls).
type adaptState struct {
	interval time.Duration

	mu            sync.Mutex
	lastDelivered []uint64
	esc           map[string]*escState
	events        []RouteEvent
	samples       []AdaptSample
	seq           uint64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// startAdapt launches the background controller loop (Interval > 0).
func (e *Engine) startAdapt() {
	a := e.adapt
	if a == nil || a.interval <= 0 {
		return
	}
	a.stop = make(chan struct{})
	a.done = make(chan struct{})
	go func() {
		defer close(a.done)
		t := time.NewTicker(a.interval)
		defer t.Stop()
		for {
			select {
			case <-a.stop:
				return
			case <-t.C:
				e.Rebalance()
			}
		}
	}()
}

// stopAdapt halts the background loop. Close calls it BEFORE taking the
// engine write lock — a pass in flight may itself need that lock for a
// cutover, so stopping afterwards would deadlock.
func (e *Engine) stopAdapt() {
	a := e.adapt
	if a == nil || a.stop == nil {
		return
	}
	a.stopOnce.Do(func() {
		close(a.stop)
		<-a.done
	})
}

// RouteEvents returns a copy of the controller's event log (the most
// recent adaptLogCap events). Nil on non-adaptive engines.
func (e *Engine) RouteEvents() []RouteEvent {
	a := e.adapt
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]RouteEvent(nil), a.events...)
}

// AdaptSamples returns a copy of the skew-over-time series (one sample
// per controller pass, most recent adaptLogCap). Nil on non-adaptive
// engines.
func (e *Engine) AdaptSamples() []AdaptSample {
	a := e.adapt
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]AdaptSample(nil), a.samples...)
}

// Rebalance runs one controller pass: sample the stats plane, de-escalate
// or collapse cooled keys, and escalate the dominant key of each hot
// shard. Returns the routing actions taken, in order. Safe to call
// concurrently with pushes and with the background loop (passes
// serialize); a no-op returning nil on non-adaptive or closed engines. Deterministic drivers (the tests)
// quiesce ingestion, then call Rebalance at their own cadence.
func (e *Engine) Rebalance() []RouteEvent {
	a := e.adapt
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return nil
	}
	return e.rebalance()
}

// rebalance is one pass; the caller holds a.mu.
func (e *Engine) rebalance() []RouteEvent {
	a := e.adapt
	st := e.Stats()
	n := len(st.Shards)
	if len(a.lastDelivered) != n {
		a.lastDelivered = make([]uint64, n)
	}
	deltas := make([]float64, n)
	var total float64
	for i, s := range st.Shards {
		d := s.DeliveredBatches - a.lastDelivered[i]
		a.lastDelivered[i] = s.DeliveredBatches
		deltas[i] = float64(d)
		total += float64(d)
	}
	sample := AdaptSample{
		At:           e.now(),
		Deliveries:   uint64(total),
		Skew:         st.Skew(),
		IntervalSkew: intervalSkew(deltas, total),
		Escalated:    len(a.esc),
	}
	var events []RouteEvent
	defer func() {
		sample.Events = len(events)
		a.samples = appendBounded(a.samples, sample)
		for i := range events {
			a.seq++
			events[i].Seq = a.seq
			events[i].At = sample.At
			a.events = appendBounded(a.events, events[i])
		}
	}()
	if n < 1 || total < minBatches {
		return nil
	}
	// Every shard's top-key delivery attribution since the previous sample;
	// sampling resets the per-key counters.
	loads := make([][]KeyLoad, n)
	e.each(e.shards, func(i int, s *engineShard) { loads[i] = s.sampleLoads(topKeys) })
	mean := total / float64(n)

	// (1) Cooling: de-escalate keys whose engine-wide share stayed below
	// coolFrac for coolPasses passes; collapse drained de-escalated keys;
	// re-escalate a de-escalated key whose traffic came back. Iterated in
	// sorted key order so event sequences are deterministic.
	byBase := make(map[string]float64)
	for _, shardLoads := range loads {
		for _, kl := range shardLoads {
			byBase[wire.LogicalKey(kl.Key)] += float64(kl.Batches)
		}
	}
	escKeys := make([]string, 0, len(a.esc))
	for k := range a.esc {
		escKeys = append(escKeys, k)
	}
	sort.Strings(escKeys)
	for _, base := range escKeys {
		es := a.esc[base]
		load := byBase[base]
		if es.salt > 1 {
			if load < coolFrac*total {
				es.cool++
				if es.cool >= coolPasses {
					if ev, ok := e.deescalateKey(base); ok {
						es.salt, es.cool = 1, 0
						events = append(events, ev)
					}
				}
			} else {
				es.cool = 0
			}
			continue
		}
		// De-escalated: surge back, or drain out.
		if load > hotKeyFrac*mean {
			if ev, ok := e.escalateKey(base, adaptSalt); ok {
				es.salt, es.cool = adaptSalt, 0
				events = append(events, ev)
			}
			continue
		}
		if ov := e.override(base); ov != nil {
			if ev, ok := e.collapseKey(base, ov.maxSalt); ok {
				delete(a.esc, base)
				events = append(events, ev)
			}
		}
	}

	// (2) Escalation: on each hot shard, salt the key dominating it.
	for i := range deltas {
		if deltas[i] <= hotShardFactor*mean {
			continue
		}
		for _, kl := range loads[i] {
			if _, _, salted := wire.SplitName(kl.Key); salted {
				continue // already an escalated key's sub-stream
			}
			if _, ok := a.esc[kl.Key]; ok {
				continue
			}
			if float64(kl.Batches) < hotKeyFrac*deltas[i] {
				break // loads are sorted: no later key dominates either
			}
			if ev, ok := e.escalateKey(kl.Key, adaptSalt); ok {
				a.esc[kl.Key] = &escState{salt: adaptSalt}
				events = append(events, ev)
			}
			break
		}
	}
	return events
}

// intervalSkew is EngineStats.Skew over one interval's deltas.
func intervalSkew(deltas []float64, total float64) float64 {
	if total == 0 || len(deltas) == 0 {
		return 1
	}
	max := 0.0
	for _, d := range deltas {
		if d > max {
			max = d
		}
	}
	return max * float64(len(deltas)) / total
}

// appendBounded appends keeping at most adaptLogCap entries.
func appendBounded[T any](log []T, v T) []T {
	log = append(log, v)
	if len(log) > adaptLogCap {
		log = log[len(log)-adaptLogCap:]
	}
	return log
}
