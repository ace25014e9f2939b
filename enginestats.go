package qlove

import (
	"sync/atomic"
	"time"
)

// Backpressure selects the Engine's overload response when evaluation
// consumers or shard queues fall behind ingestion.
type Backpressure int

const (
	// BackpressureDrop is the default: the results fan-in never blocks a
	// shard. When the Results consumer falls behind the buffer, the newest
	// evaluations are discarded and counted (ShardStats.EvalsDropped,
	// Engine.Dropped) — a monitoring dashboard that has already missed the
	// oldest pending results prefers fresh ingestion over stale delivery.
	// Ingestion itself is lossless either way: Push blocks on a full shard
	// queue, it never drops a batch.
	BackpressureDrop Backpressure = iota
	// BackpressureBlock makes delivery lossless: a shard with a full
	// Results channel blocks until the consumer drains it, the shard's
	// queue then fills, and Push blocks in turn — backpressure propagates
	// to the producers instead of silently shedding evaluations. Operator
	// state is IDENTICAL in both modes for the same accepted batches (drops
	// only ever affect delivery, never ingestion), so snapshots and exports
	// are bit-for-bit the same; only the delivery guarantee changes.
	//
	// Contract: the consumer must keep draining Results until it closes —
	// including while Close runs — or producers and Close wedge behind the
	// full channel. Use PushContext to bound an individual producer's wait.
	BackpressureBlock
)

// String names the mode ("drop" / "block").
func (b Backpressure) String() string {
	if b == BackpressureBlock {
		return "block"
	}
	return "drop"
}

// shardCounters is one shard's lock-free stats plane: producers and the
// shard goroutine update atomics, Stats() reads them without touching the
// engine mutex or the shard queues, so overload is observable even from a
// process that is itself wedged behind backpressure.
type shardCounters struct {
	enqueued       atomic.Uint64 // batches accepted onto the shard queue
	delivered      atomic.Uint64 // batches delivered into operators
	failed         atomic.Uint64 // batches discarded: per-key policy construction failed
	evalsDelivered atomic.Uint64 // evaluations handed to the Results consumer
	evalsDropped   atomic.Uint64 // evaluations shed at the fan-in (drop mode only)
	blockedNanos   atomic.Uint64 // producer + delivery time spent blocked on full queues
	queueHighWater atomic.Int64  // deepest observed shard-queue backlog, in batches
	resident       atomic.Int64  // keys (salted sub-streams) currently resident
	inFlight       atomic.Int64  // Level-1 workbenches out with this shard's keys
	idleBenches    atomic.Int64  // workbenches shelved in the shard's pool

	// Delta-export side (ExportDelta), updated by the shard goroutine except
	// exportTombstones, which the exporting goroutine adds at encode time.
	exports           atomic.Uint64 // delta captures answered
	exportKeysVisited atomic.Uint64 // entries, departure records and cursor keys examined for them
	exportFrames      atomic.Uint64 // key captures contributed to delta blobs
	exportTombstones  atomic.Uint64 // tombstone frames encoded for names hashing here
	exportFullScans   atomic.Uint64 // captures whose tombstones came from the cursor keys, not the departures log
}

// noteDepth raises the queue high-water mark to n if it exceeds the mark.
func (c *shardCounters) noteDepth(n int) {
	for {
		cur := c.queueHighWater.Load()
		if int64(n) <= cur || c.queueHighWater.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// setGauge publishes v, skipping the store (and the cache-line traffic with
// polling readers) when the gauge already reads v.
func setGauge(g *atomic.Int64, v int) {
	if g.Load() != int64(v) {
		g.Store(int64(v))
	}
}

// snapshot copies the counters into an exported view.
func (c *shardCounters) snapshot() ShardStats {
	return ShardStats{
		EnqueuedBatches:  c.enqueued.Load(),
		DeliveredBatches: c.delivered.Load(),
		FailedBatches:    c.failed.Load(),
		EvalsDelivered:   c.evalsDelivered.Load(),
		EvalsDropped:     c.evalsDropped.Load(),
		Blocked:          time.Duration(c.blockedNanos.Load()),
		QueueHighWater:   int(c.queueHighWater.Load()),
		ResidentKeys:     int(c.resident.Load()),
		InFlightKeys:     int(c.inFlight.Load()),
		IdleWorkbenches:  int(c.idleBenches.Load()),

		Exports:           c.exports.Load(),
		ExportKeysVisited: c.exportKeysVisited.Load(),
		ExportFrames:      c.exportFrames.Load(),
		ExportTombstones:  c.exportTombstones.Load(),
		ExportFullScans:   c.exportFullScans.Load(),
	}
}

// ShardStats is a point-in-time copy of one shard's counters. Loss has two
// distinct sides, counted separately:
//
//   - Ingest-side: Push never loses a batch (it blocks on a full queue) and
//     PushContext surfaces abandonment as an error to the caller; the only
//     ingest loss is FailedBatches — batches discarded because the key's
//     TimedPusher could not be built (see Engine.Err).
//   - Delivery-side: EvalsDropped counts evaluations shed at the Results
//     fan-in under BackpressureDrop; it is zero under BackpressureBlock.
type ShardStats struct {
	// EnqueuedBatches counts batches producers placed on the shard queue.
	EnqueuedBatches uint64
	// DeliveredBatches counts batches the shard delivered into operators.
	// After Close, EnqueuedBatches == DeliveredBatches + FailedBatches.
	DeliveredBatches uint64
	// FailedBatches counts batches discarded because their key's
	// TimedPusher could not be built; zero on any engine NewEngine returned.
	FailedBatches uint64
	// EvalsDelivered counts evaluations handed to the Results consumer.
	EvalsDelivered uint64
	// EvalsDropped counts evaluations shed at the fan-in (drop mode only).
	EvalsDropped uint64
	// Blocked accumulates time spent stalled on full channels: producers
	// blocked on this shard's queue plus (in blocking mode) the shard
	// blocked on the Results channel. The direct signal that the engine —
	// not the harness — is the bottleneck.
	Blocked time.Duration
	// QueueHighWater is the deepest shard-queue backlog observed, in
	// batches; a mark stuck at the queue capacity means producers waited.
	QueueHighWater int
	// ResidentKeys is the number of keys currently resident on the shard
	// (an escalated key's sub-streams count individually; see AdaptConfig).
	ResidentKeys int
	// InFlightKeys is how many of those keys hold a Level-1 workbench (the
	// sub-window buffer and seal scratch — 2.2 KB at period 128) because
	// their current sub-window has values in it. A key whose last report
	// ended on a period boundary, or that has been idle since a timed
	// period closed, holds none and costs only its summaries; traffic made
	// of such reports keeps this near zero, while reports that straddle
	// periods push it toward ResidentKeys.
	InFlightKeys int
	// IdleWorkbenches is how many workbenches the shard's pool keeps, at
	// capacity, for the next borrower (at most 64; the rest of a burst is
	// left to the garbage collector).
	IdleWorkbenches int

	// Exports counts the delta captures the shard answered: one per
	// ExportDelta call.
	Exports uint64
	// ExportKeysVisited counts what those captures examined: the journal
	// entries and departure records since the cursor's clock, every
	// resident key when the cursor has no clock, and every cursor key when
	// the shard fell back for its tombstones. Per export it is the work
	// ExportDelta did on this shard; ExportFrames is the part of it that
	// shipped.
	ExportKeysVisited uint64
	// ExportFrames counts the key captures the shard contributed to delta
	// blobs (each becomes one delta or full frame).
	ExportFrames uint64
	// ExportTombstones counts the tombstone frames delta exports encoded
	// for names that hash to this shard (evictions, expiries, and the
	// retirement preceding a re-created key's bootstrap frame).
	ExportTombstones uint64
	// ExportFullScans counts the captures that fell back to scanning the
	// cursor's keys for tombstones: first exports, Reset or foreign cursors
	// (which scan every resident key too), and cursors this shard's
	// departures log no longer covers. At steady state it stays flat while
	// Exports grows.
	ExportFullScans uint64
}

// EngineStats is the engine-wide capture Engine.Stats returns: one entry
// per shard, in shard order.
type EngineStats struct {
	Shards []ShardStats
}

// Total folds every shard's counters into one (QueueHighWater is the max
// across shards, the rest sum).
func (st EngineStats) Total() ShardStats {
	var t ShardStats
	for _, s := range st.Shards {
		t.EnqueuedBatches += s.EnqueuedBatches
		t.DeliveredBatches += s.DeliveredBatches
		t.FailedBatches += s.FailedBatches
		t.EvalsDelivered += s.EvalsDelivered
		t.EvalsDropped += s.EvalsDropped
		t.Blocked += s.Blocked
		if s.QueueHighWater > t.QueueHighWater {
			t.QueueHighWater = s.QueueHighWater
		}
		t.ResidentKeys += s.ResidentKeys
		t.InFlightKeys += s.InFlightKeys
		t.IdleWorkbenches += s.IdleWorkbenches
		t.Exports += s.Exports
		t.ExportKeysVisited += s.ExportKeysVisited
		t.ExportFrames += s.ExportFrames
		t.ExportTombstones += s.ExportTombstones
		t.ExportFullScans += s.ExportFullScans
	}
	return t
}

// Skew measures load imbalance: the hottest shard's delivered-batch count
// over the per-shard mean (1 = perfectly balanced, len(Shards) = one shard
// took everything). Zero deliveries report 1.
func (st EngineStats) Skew() float64 {
	if len(st.Shards) == 0 {
		return 1
	}
	var max, sum uint64
	for _, s := range st.Shards {
		sum += s.DeliveredBatches
		if s.DeliveredBatches > max {
			max = s.DeliveredBatches
		}
	}
	if sum == 0 {
		return 1
	}
	return float64(max) * float64(len(st.Shards)) / float64(sum)
}

// Stats captures every shard's counters. It is lock-free — it reads only
// atomics, never the engine mutex or the shard queues — so it stays
// responsive while producers are blocked on backpressure, and is safe to
// poll from any goroutine at any rate, before and after Close.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{Shards: make([]ShardStats, len(e.shards))}
	for i, s := range e.shards {
		st.Shards[i] = s.counters.snapshot()
	}
	return st
}

// KeyLoad attributes recent delivery load to one resident internal key
// name on one shard — the per-key refinement of ShardStats that lets the
// adaptive controller name the offending key instead of just the shard.
// Batches counts deliveries since the previous sample (sampling resets
// the per-key attribution counter; the cumulative count stays in
// ShardStats.DeliveredBatches).
type KeyLoad struct {
	// Key is the internal key name (a salted sub-stream name "key\x00<j>"
	// for escalated keys).
	Key string
	// Batches is the number of batches delivered into the key's operator
	// since the shard was last sampled.
	Batches uint64
}
