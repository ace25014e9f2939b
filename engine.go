package qlove

import (
	"context"
	"fmt"
	"hash/maphash"
	"io"
	"maps"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/wire"
)

// Engine is the keyed, sharded, concurrent form of the monitoring API: it
// maintains one sliding-window quantile operator per metric key (a
// service, a pod, a route) and scales ingestion across shards, each shard
// a single-writer goroutine owning its slice of the key space. This is the
// deployment shape of datacenter telemetry (§1 of the paper): not one
// stream, but millions of keyed series monitored simultaneously.
//
// Architecture:
//
//   - Keys are hash-partitioned across Shards goroutines. Each shard owns
//     a map from key to its operator and its stream.Position — the
//     count-window state a Monitor drives, held inline — and is the ONLY
//     goroutine that touches those operators, so the hot path needs no
//     locks and no atomic traffic.
//   - Push(key, vs) copies the batch into a recycled buffer and enqueues
//     it on the owning shard's MPSC channel; the shard delivers it through
//     the operator's period-aligned ObserveBatch path, preserving the
//     zero-allocation batched ingestion path end to end. Per-key element
//     order is the order of Push calls (concurrent pushers to the SAME key
//     interleave at batch granularity).
//   - Evaluations fan in on a single buffered Results channel. The
//     overload response is EngineConfig.Backpressure: under the default
//     BackpressureDrop, delivery never blocks ingestion — when the
//     consumer falls behind, the oldest pending results are the ones a
//     monitoring dashboard has already missed, so new evaluations are
//     dropped and counted (Dropped, Stats) rather than stalling every
//     shard; under BackpressureBlock delivery is lossless and the stall
//     propagates back through the shard queues to Push. Either way,
//     overload is observable, not inferred: Engine.Stats reads per-shard
//     counters (delivered batches, queue high-water, blocked time, drops,
//     resident keys) without locks.
//   - Reads never stop ingestion. Query copies one key's sealed state in
//     place, on the caller's goroutine: what the shard has DELIVERED. Snapshot
//     and the exports ride each shard's own queue, so they follow every earlier
//     Push. Both return immutable captures, safe to retain and Merge anywhere.
//
// Every key's operator is a QLOVE operator minted by its shard's core.Pool,
// which also lends it the Level-1 workbench of the sub-window it is filling
// (a flat, period-sized buffer of raw values, sealed by selection): a
// resident key costs its summaries, a shard's keys share a few workbenches,
// and evicted keys recycle instead of feeding the garbage collector.
type Engine struct {
	spec    Window
	shards  []*engineShard
	results chan KeyedResult
	failed  atomic.Uint64
	lastErr atomic.Value // engineErr; atomic.Value needs one concrete type
	seed    maphash.Seed
	id      uint64                     // random instance identity; binds ExportCursors to THIS engine
	block   bool                       // BackpressureBlock: lossless delivery, shards block on Results
	routes  atomic.Pointer[routeTable] // per-key overrides (engineroute.go); nil = pure hash
	adapt   *adaptState                // adaptive controller (engineadapt.go); nil = static
	now     func() time.Time
	bufs    sync.Pool // *[]float64 ingest buffers
	wg      sync.WaitGroup

	// mu guards closed. Push, Query and the queueing of shard work (each)
	// hold it shared; Close, route flips and renames hold it exclusively, as
	// does all shard work after Close, which runs inline (see each).
	mu     sync.RWMutex
	closed bool
}

// KeyedResult is one evaluation produced by the Engine for one key.
type KeyedResult struct {
	// Key is the metric key the evaluation belongs to.
	Key string
	Result
}

// EngineConfig parameterizes an Engine.
type EngineConfig struct {
	// Config parameterizes the QLOVE operator minted for each key;
	// Config.Spec is the engine's count-based window.
	Config Config
	// Shards is the number of ingest goroutines (and key partitions).
	// Defaults to runtime.GOMAXPROCS(0).
	Shards int
	// QueueDepth is the per-shard ingest queue capacity in batches.
	// Default 128.
	QueueDepth int
	// ResultBuffer is the capacity of the fan-in Results channel. Default
	// 1024.
	ResultBuffer int
	// KeyTTLDuration, when positive, expires idle keys on a WALL-CLOCK
	// basis: a key that has received no batch for more than KeyTTLDuration
	// is evicted, its operator recycled through the shard's pool exactly
	// as an explicit Evict would, so churned keys are reclaimed in bounded
	// memory and exported blobs stay bounded. Eviction happens even on a
	// shard receiving no deliveries at all: it runs in the shard's one
	// housekeeping pass (see Engine.Tick), which a ticker fires at least
	// every half TTL and overdue passes also piggyback on deliveries; each
	// pass is O(keys in shard). 0 disables expiry.
	KeyTTLDuration time.Duration
	// TimedWindow and TimedPeriod switch the engine into TIMED mode: every
	// key answers over a wall-clock sliding window of TimedWindow,
	// re-evaluated every TimedPeriod — the paper's §2 "evaluate every one
	// minute for the elements seen last one hour" — instead of count-based
	// Spec windows. Each shard owns a stream.TimedPusher per key (the same
	// state machine a TimedMonitor is): batch deliveries are stamped with
	// the shard's clock, period boundaries seal whatever the sub-window
	// holds, and the shard's housekeeping pass (see Engine.Tick) Flushes
	// every key at least every TimedPeriod, so evaluations fire on wall
	// time even for keys receiving no traffic. The count-based Config.Spec
	// still governs the operator's few-k budgets (and caps a sub-window's
	// element count via the count auto-seal); choose its Size/Period to
	// approximate the expected events per timed window/period. TimedWindow
	// must be a positive multiple of TimedPeriod. Both zero selects the
	// count-based mode.
	TimedWindow time.Duration
	// TimedPeriod is the timed evaluation period; see TimedWindow.
	TimedPeriod time.Duration
	// Clock overrides the wall-clock source for KeyTTLDuration and timed
	// windows (tests use a fake clock for deterministic expiry and timed
	// flushes). nil means time.Now. The function is called from shard
	// goroutines and must be safe for concurrent use.
	Clock func() time.Time
	// Backpressure selects the overload response when the Results consumer
	// falls behind: BackpressureDrop (default) sheds the newest evaluations
	// at the fan-in and counts them; BackpressureBlock propagates the stall
	// to producers instead — delivery is lossless, ingestion blocks, and
	// snapshots/exports stay bit-identical to drop mode fed the same
	// batches. See the Backpressure constants for the consumer contract.
	Backpressure Backpressure
	// Adapt, when non-nil, enables ADAPTIVE routing: a per-key route table
	// consulted on every Push, plus an occupancy-driven controller that
	// escalates hot keys to salted sub-stream routing and de-escalates them
	// when traffic subsides — see AdaptConfig for what an escalated key's
	// reads and exports look like.
	Adapt *AdaptConfig
}

// ErrEngineClosed is returned by Push after Close.
var ErrEngineClosed = fmt.Errorf("qlove: engine closed")

// ErrReservedKey is returned by Push for keys containing a NUL byte — the
// reserved separator of the internal sub-stream names an escalated key
// spreads over (see AdaptConfig).
var ErrReservedKey = fmt.Errorf("qlove: key contains reserved NUL byte")

const (
	defaultQueueDepth   = 128
	defaultResultBuffer = 1024
	defaultBatchCap     = 256
)

type engineShard struct {
	eng *Engine
	in  chan engineMsg
	// keys is written only by the shard goroutine, under keysMu (setKey,
	// dropKey). Query reads it under keysMu.RLock, held until the operator's
	// state is copied, so the entry cannot be evicted and re-minted meanwhile.
	keysMu sync.RWMutex
	keys   map[string]*keyEntry
	pool   *core.Pool // mints, recycles and lends workbenches to this shard's operators

	// Housekeeping: a key idle past wallTTL (KeyTTLDuration > 0) is
	// evicted, and in timed mode (timedWindow > 0) every key is a
	// TimedPusher whose wall-clock sub-windows are Flushed to the shard's
	// clock. One pass (housekeep) does both: a ticker fires it at interval
	// every (so quiet shards still expire and evaluate), a delivery
	// piggybacks it once nextAt is overdue, and Engine.Tick drives it
	// explicitly. every is 0 when neither job is on.
	wallTTL     time.Duration
	ttlEpoch    time.Time // the clock reading entries' lastAt count from (wallTTL > 0)
	timedWindow time.Duration
	timedPeriod time.Duration
	every       time.Duration
	now         func() time.Time
	nextAt      time.Time

	// Delta-export bookkeeping: mutations is the shard's mutation clock,
	// and every tick is journaled under its value. A state change an export
	// could care about (key created or renamed to, any seal) stamps the live
	// entry with a fresh tick and moves it to the tail of journal; a
	// departure (evicted, expired, renamed from) is appended to departed.
	// An ExportDelta whose cursor recorded clock m walks both back
	// from the tail while stamp > m — O(changed since m) — instead of
	// scanning s.keys. exported is the clock at the latest export capture:
	// no cursor holds a later one, so an entry already stamped past it is
	// found by every cursor where it stands and changes again for free — a
	// shard nobody exports from journals each key once. incs mints
	// incarnation numbers: a name always lives on one shard and a rename
	// never leaves it, so a stream keeps its number under its new name and
	// one name's numbers never collide.
	mutations uint64
	incs      uint64
	exported  uint64
	// journal is the sentinel of the intrusive ring of live entries in
	// ascending stamp order: journal.next is the oldest, journal.prev the
	// most recently touched.
	journal keyEntry
	// departed logs departures in ascending clock order, capped at resident
	// keys + departedSlack (a longer walk would cost more than the scan it
	// replaces). Trimming the oldest entry raises depFloor to its clock: a
	// cursor older than depFloor may have missed a departure, so this shard
	// finds its tombstones by scanning the cursor's keys instead.
	departed []departure
	depFloor uint64

	// counters is the shard's lock-free stats plane (Engine.Stats):
	// producers update the enqueue side, the shard goroutine the delivery
	// side, readers poll without locks.
	counters shardCounters
	// stopped is set when run returns: the Results channel is closed, and a
	// housekeeping pass run inline after Close (see Engine.each) must not
	// deliver.
	stopped bool

	// emit is the shard's one evaluation-delivery function (makeEmit): it
	// delivers for delivering, the entry the shard sets before each
	// PushBatch and Flush.
	emit       func(Result)
	delivering *keyEntry
}

// keyEntry is one resident stream of a shard: its operator, its place in
// the window, and the shard's bookkeeping for it. A count-based key keeps
// its window position inline (pos: the elements it has seen) and the shard
// drives it with the engine's spec, so the per-key protocol state is one
// word; a timed key points at its TimedPusher instead. The entry is 112
// bytes (TestKeyEntrySize).
type keyEntry struct {
	op       *core.Policy        // the key's operator, minted by the shard's pool
	timed    *stream.TimedPusher // timed mode; nil in count-based mode, which uses pos
	pos      stream.Position     // count-based mode: the key's window position
	lastAt   int64               // shard clock at this key's most recent batch, in ns since ttlEpoch (wallTTL > 0)
	inc      uint64              // incarnation: unique per key lifetime on its shard
	gen      uint64              // last observed seal generation
	resident int                 // last observed resident summary count
	batches  uint64              // lifetime batches delivered (kept across renames)
	sampled  uint64              // batches already attributed to a load sample (sampleLoads)

	// Mutation journal (see engineShard.mutations): the entry's internal
	// name, the shard clock of its latest journaled change, and its links
	// in the owning shard's stamp-ordered ring.
	name       string
	stamp      uint64
	prev, next *keyEntry
}

// engineMsg is one unit of shard work: an ingest batch for key, or fn, any
// other work (see Engine.each). Both ride the same queue, so fn runs between
// batches, ordered with ingest.
type engineMsg struct {
	key string
	buf *[]float64
	fn  func()
}

// keyCursor is one key's entry in an ExportCursor: the incarnation, seal
// generation and resident summary count the destination last received
// (resident because expiry can change a capture without a new seal).
type keyCursor struct {
	inc, gen uint64
	resident int
}

// shardDeltaResp is one shard's contribution to a delta export: its clock,
// the keys needing a frame, and the cursor keys that hash to it but are no
// longer resident (possibly with repeats). A name lives only on its own
// shard, so each shard answers for its names alone.
type shardDeltaResp struct {
	mutations uint64
	changed   []deltaCapture
	tombs     []string
}

type deltaCapture struct {
	name string
	snap Snapshot
	inc  uint64
}

// departure is one departures-log record: an entry left the name (evicted,
// expired, or renamed) when its mutation clock ticked to clock. The
// incarnation is not kept: whether the name is a tombstone or a re-creation
// is decided from whether it is resident on the shard NOW.
type departure struct {
	name  string
	clock uint64
}

// departedSlack is the constant part of the departures-log cap, so a
// near-empty shard still remembers a burst of evictions.
const departedSlack = 64

// NewEngine builds and starts an engine; callers must Close it to release
// the shard goroutines.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	shards := cfg.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = defaultQueueDepth
	}
	resBuf := cfg.ResultBuffer
	if resBuf <= 0 {
		resBuf = defaultResultBuffer
	}
	if cfg.TimedWindow != 0 || cfg.TimedPeriod != 0 {
		if cfg.TimedPeriod <= 0 || cfg.TimedWindow < cfg.TimedPeriod || cfg.TimedWindow%cfg.TimedPeriod != 0 {
			return nil, fmt.Errorf("qlove: engine timed window %v must be a positive multiple of period %v",
				cfg.TimedWindow, cfg.TimedPeriod)
		}
	}
	e := &Engine{
		spec:    cfg.Config.Spec,
		block:   cfg.Backpressure == BackpressureBlock,
		results: make(chan KeyedResult, resBuf),
		seed:    maphash.MakeSeed(),
		// A fresh random seed hashed over nothing is a cheap random
		// instance id; 1 is added so 0 stays the "unbound cursor" marker.
		id: maphash.Bytes(maphash.MakeSeed(), nil) | 1,
	}
	e.bufs.New = func() any {
		b := make([]float64, 0, defaultBatchCap)
		return &b
	}
	if cfg.KeyTTLDuration < 0 {
		return nil, fmt.Errorf("qlove: engine KeyTTLDuration %v < 0", cfg.KeyTTLDuration)
	}
	now := cfg.Clock
	if now == nil {
		now = time.Now
	}
	e.now = now
	every := housekeepInterval(cfg.KeyTTLDuration, cfg.TimedPeriod)
	// A key's TTL stamp is an offset from one reading of the clock: a
	// Duration between two readings of time.Now is monotonic, and an
	// injected Clock's readings subtract as wall times.
	var ttlEpoch time.Time
	if cfg.KeyTTLDuration > 0 {
		ttlEpoch = now()
	}
	if cfg.Adapt != nil {
		if cfg.Adapt.Interval < 0 {
			return nil, fmt.Errorf("qlove: engine Adapt.Interval %v < 0", cfg.Adapt.Interval)
		}
		e.adapt = &adaptState{
			interval: cfg.Adapt.Interval,
			esc:      make(map[string]*escState),
		}
	}
	e.shards = make([]*engineShard, shards)
	for i := range e.shards {
		pool, err := core.NewPool(cfg.Config)
		if err != nil {
			return nil, err
		}
		s := &engineShard{
			eng:         e,
			pool:        pool,
			in:          make(chan engineMsg, depth),
			keys:        make(map[string]*keyEntry),
			wallTTL:     cfg.KeyTTLDuration,
			ttlEpoch:    ttlEpoch,
			timedWindow: cfg.TimedWindow,
			timedPeriod: cfg.TimedPeriod,
			every:       every,
			now:         now,
		}
		s.journal.prev, s.journal.next = &s.journal, &s.journal
		s.emit = s.makeEmit()
		if every > 0 {
			s.nextAt = now().Add(every)
		}
		e.shards[i] = s
	}
	e.wg.Add(shards)
	for _, s := range e.shards {
		go func(s *engineShard) {
			defer e.wg.Done()
			s.run()
		}(s)
	}
	e.startAdapt()
	return e, nil
}

// shardIndex hash-partitions an internal name. Sub-stream 0 hashes as its
// logical key, so a key and its sub-stream 0 always share a shard and
// escalation and collapse rename a stream in place; sub-streams 1 and up
// hash on their own, which is what spreads an escalated key.
func (e *Engine) shardIndex(name string) int {
	if base, sub, salted := wire.SplitName(name); salted && sub == 0 {
		name = base
	}
	return int(maphash.String(e.seed, name) % uint64(len(e.shards)))
}

func (e *Engine) shardOf(key string) *engineShard {
	return e.shards[e.shardIndex(key)]
}

// route picks the shard a push goes to: an escalated key's next sub-stream
// when the route table overrides it, plain hash dispatch otherwise. Returns
// the shard and the internal key name to deliver under. Called under
// e.mu.RLock — held across route AND enqueue, which is what lets a route
// flip under the write lock act as a cutover barrier (engineroute.go).
func (e *Engine) route(key string) (*engineShard, string) {
	if rt := e.routes.Load(); rt != nil {
		if ov := rt.m[key]; ov != nil {
			j := uint64(0)
			if ov.salt > 1 {
				j = (ov.ctr.Add(1) - 1) % uint64(ov.salt)
			}
			key = wire.SaltedName(key, byte(j))
		}
	}
	return e.shardOf(key), key
}

// enqueue places one batch on the shard queue, accounting the wait when
// the queue is full (ShardStats.Blocked) and the observed backlog
// (ShardStats.QueueHighWater). ctx, when non-nil, bounds the wait.
func (s *engineShard) enqueue(ctx context.Context, msg engineMsg) error {
	select {
	case s.in <- msg:
	default:
		// Queue full: producers are ahead of the shard. Block (that IS the
		// ingest backpressure) and account the stall.
		start := time.Now()
		if ctx == nil {
			s.in <- msg
			s.counters.blockedNanos.Add(uint64(time.Since(start)))
		} else {
			select {
			case s.in <- msg:
				s.counters.blockedNanos.Add(uint64(time.Since(start)))
			case <-ctx.Done():
				s.counters.blockedNanos.Add(uint64(time.Since(start)))
				s.eng.bufs.Put(msg.buf)
				return ctx.Err()
			}
		}
	}
	s.counters.enqueued.Add(1)
	s.counters.noteDepth(len(s.in))
	return nil
}

// each runs fn(i, shards[i]) for every listed shard; it is how every piece
// of shard work other than a batch reaches a shard. Before Close, fn is
// queued behind the batches already pushed and runs on the shard goroutine
// between batches. The fns are queued under e.mu.RLock, so a rename
// (queued and acked under the write lock, see renameStream) lands before
// all of them or after all of them, and awaited outside it, so Close is
// never held up. After Close the shard goroutines are gone and each runs
// fn inline under the write lock, excluding every reader and every other
// post-Close fn: that is the one rule for all work after Close.
func (e *Engine) each(shards []*engineShard, fn func(i int, s *engineShard)) {
	e.mu.RLock()
	if !e.closed {
		wg := queue(shards, fn)
		e.mu.RUnlock()
		wg.Wait() // a shard drains its queue even while Close runs
		return
	}
	e.mu.RUnlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, s := range shards {
		fn(i, s)
	}
}

// queue enqueues fn(i, shards[i]) on every listed shard and returns what
// waits for them all. The caller holds e.mu, read- or write-locked, and has
// seen the engine open: queues close only under the write lock.
func queue(shards []*engineShard, fn func(i int, s *engineShard)) *sync.WaitGroup {
	wg := new(sync.WaitGroup)
	wg.Add(len(shards))
	for i, s := range shards {
		s.in <- engineMsg{fn: func() {
			fn(i, s)
			wg.Done()
		}}
	}
	return wg
}

// Push feeds a batch of elements for one key. The values are copied before
// Push returns, so the caller may reuse vs immediately. Push blocks only
// when the owning shard's queue is full (backpressure), never on result
// delivery — though under BackpressureBlock a stalled Results consumer
// eventually fills the queues and surfaces here. Ingestion is lossless:
// Push never drops a batch. Safe for any number of concurrent callers; use
// PushContext to bound the wait.
func (e *Engine) Push(key string, vs []float64) error {
	return e.push(nil, key, vs)
}

// PushContext is Push with a bounded wait: when the owning shard's queue
// stays full until ctx is done (a wedged consumer under BackpressureBlock,
// or simply sustained overload), it abandons the batch and returns
// ctx.Err(). An abandoned batch is never partially ingested — it either
// reaches the shard queue whole or not at all — and is NOT counted
// enqueued, so producers can tell accepted load from offered load.
func (e *Engine) PushContext(ctx context.Context, key string, vs []float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return e.push(ctx, key, vs)
}

func (e *Engine) push(ctx context.Context, key string, vs []float64) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		// Checked before the empty fast-path so producers using Push's
		// error as their shutdown signal see closure on empty reports too.
		return ErrEngineClosed
	}
	if strings.IndexByte(key, wire.SaltSep) >= 0 {
		// NUL is the internal sub-stream separator; letting it through
		// would let a user key alias an escalated key's sub-stream.
		return ErrReservedKey
	}
	if len(vs) == 0 {
		return nil
	}
	bp := e.bufs.Get().(*[]float64)
	*bp = append((*bp)[:0], vs...)
	s, routed := e.route(key)
	return s.enqueue(ctx, engineMsg{key: routed, buf: bp})
}

// Results returns the evaluation fan-in channel. It closes after Close has
// drained every shard. Evaluations for one key arrive in order; ordering
// across keys is not defined.
func (e *Engine) Results() <-chan KeyedResult { return e.results }

// Dropped returns how many evaluations were discarded because the Results
// consumer fell behind the buffer — DELIVERY-side loss only, the sum of
// ShardStats.EvalsDropped across shards (always zero under
// BackpressureBlock). It says nothing about ingest-side loss, which has
// its own accounting: Push never loses a batch, PushContext abandonment is
// the caller's error, and batches discarded because a key could not be
// built are ShardStats.FailedBatches (see Err). Use Stats for the per-shard
// breakdown.
func (e *Engine) Dropped() uint64 {
	var n uint64
	for _, s := range e.shards {
		n += s.counters.evalsDropped.Load()
	}
	return n
}

// engineErr wraps key-construction failures so lastErr always stores one
// concrete type (atomic.Value panics on inconsistently typed stores, and
// different failure paths produce different error implementations).
type engineErr struct{ err error }

// Err returns the most recent per-key construction failure (a timed key's
// TimedPusher that refused the window — nothing NewEngine's validation lets
// through; a count-based key starts at the zero Position and cannot fail),
// plus how many batches were dropped because of such failures.
func (e *Engine) Err() (error, uint64) {
	we, _ := e.lastErr.Load().(engineErr)
	return we.err, e.failed.Load()
}

// Shards returns the number of shards the engine runs.
func (e *Engine) Shards() int { return len(e.shards) }

// Spec returns the engine's window spec.
func (e *Engine) Spec() Window { return e.spec }

// Snapshot captures every key without stopping ingestion.
// Each shard's capture is taken between batches on the shard's own
// goroutine, so it is consistent with the ingest order of every key it
// owns (captures of different shards are taken at independent instants).
func (e *Engine) Snapshot() EngineSnapshot {
	parts := make([]map[string]Snapshot, len(e.shards))
	e.each(e.shards, func(i int, s *engineShard) {
		parts[i] = make(map[string]Snapshot, len(s.keys))
		for k, ent := range s.keys {
			parts[i][k] = ent.op.Snapshot()
		}
	})
	raw := make(map[string]Snapshot)
	for _, p := range parts {
		maps.Copy(raw, p)
	}
	return EngineSnapshot{keys: e.foldSalted(raw)}
}

// foldSalted collapses internal sub-stream captures to logical keys: the
// identity when nothing is salted; otherwise each key's resident streams
// merge in [base residue, sub-stream 0, 1, …] order (deterministic bytes
// for Export), the same disjoint-sub-stream merge cross-engine aggregation
// uses. Purely syntactic on the NUL convention, so it also handles a base
// residue coexisting with sub-streams mid-escalation.
func (e *Engine) foldSalted(raw map[string]Snapshot) map[string]Snapshot {
	any := false
	for name := range raw {
		if _, _, salted := wire.SplitName(name); salted {
			any = true
			break
		}
	}
	if !any {
		return raw
	}
	// Slot 0 holds the base residue, slot j+1 sub-stream j; absent slots
	// stay zero, the merge identity.
	grouped := make(map[string][]Snapshot)
	for name, sn := range raw {
		base, sub, salted := wire.SplitName(name)
		idx := 0
		if salted {
			idx = int(sub) + 1
		}
		g := grouped[base]
		if len(g) <= idx {
			ng := make([]Snapshot, idx+1)
			copy(ng, g)
			g = ng
		}
		g[idx] = sn
		grouped[base] = g
	}
	out := make(map[string]Snapshot, len(grouped))
	for base, g := range grouped {
		m, err := MergeSnapshots(g)
		if err != nil {
			// Unreachable by construction: every sub-stream's operator is
			// minted from the same config. Keep the first resident view
			// rather than lose the key.
			for _, sn := range g {
				if sn.SubWindows() > 0 {
					m = sn
					break
				}
			}
		}
		out[base] = m
	}
	return out
}

// Query captures one key's snapshot without stopping ingestion or waiting
// for it: the operator is read in place, on the caller's goroutine. The
// capture is the key's state as of the last seal or expiry its shard has
// PERFORMED — a state some prefix of the key's deliveries produced, never a
// torn one — not of batches still queued: a Push that just returned may not
// show yet, and a key whose first batch is queued is unknown. Snapshot and the
// exports follow every earlier Push. ok is false for an unknown key. For an
// escalated key (even one since de-escalated whose fan has not yet drained)
// the capture is the [base, sub-stream 0, 1, …]-ordered merge of the key's
// resident streams, each read at its own instant.
func (e *Engine) Query(key string) (Snapshot, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	max := 0
	if ov := e.override(key); ov != nil {
		max = ov.maxSalt
	}
	if max == 0 {
		return e.queryOne(key)
	}
	snaps := make([]Snapshot, max+1)
	found := false
	if sn, ok := e.queryOne(key); ok {
		snaps[0] = sn
		found = true
	}
	for j := 0; j < max; j++ {
		if sn, ok := e.queryOne(wire.SaltedName(key, byte(j))); ok {
			snaps[j+1] = sn
			found = true
		}
	}
	if !found {
		return Snapshot{}, false
	}
	m, err := MergeSnapshots(snaps) // zero slots are the merge identity
	if err != nil {
		return Snapshot{}, false // unreachable: one config mints every sub-stream
	}
	return m, true
}

// queryOne captures one INTERNAL key name from its hash shard; callers
// hold e.mu.RLock.
func (e *Engine) queryOne(key string) (Snapshot, bool) {
	return e.shardOf(key).query(key)
}

// query reads one operator in place; keysMu spans lookup AND copy.
func (s *engineShard) query(key string) (Snapshot, bool) {
	s.keysMu.RLock()
	defer s.keysMu.RUnlock()
	if ent := s.keys[key]; ent != nil {
		return ent.op.Snapshot(), true
	}
	return Snapshot{}, false
}

// Export captures every key (via Snapshot, so the capture rides the shard
// queues and never stops ingestion) and writes it to w as one wire
// blob — the worker half of the paper's distributed-aggregation sketch.
// Returns the bytes written. Blobs from any number of engines may be
// concatenated and handed to an aggregator (EngineSnapshot.ReadFrom or
// cmd/qlove-agg); keys captured by several engines merge into one
// logical-window view there.
func (e *Engine) Export(w io.Writer) (int64, error) {
	return e.Snapshot().WriteTo(w)
}

// ExportKeys writes the captures of just the named keys to w, skipping
// keys the engine does not monitor.
// Each key is captured with Query, under Query's contract (delivered state,
// not queued batches); Export is the blob ordered after every earlier Push.
func (e *Engine) ExportKeys(w io.Writer, keys ...string) (int64, error) {
	enc := wire.NewEncoder(w)
	var n int64
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			// A repeated argument must not emit two frames: decoders merge
			// same-key frames as disjoint sub-streams, which would
			// double-count this key's (single) stream.
			continue
		}
		seen[k] = true
		sn, ok := e.Query(k)
		if !ok {
			continue
		}
		m, err := enc.Encode(k, sn)
		n += int64(m)
		if err != nil {
			return n, fmt.Errorf("qlove: export key %q: %w", k, err)
		}
	}
	return n, nil
}

// ExportCursor tracks, per destination, what a previous ExportDelta has
// already shipped: each exported key's incarnation and seal generation,
// plus the per-shard mutation clocks the next export resumes each shard's
// journal from. The zero value (or new(ExportCursor)) is a valid first
// cursor — the first export bootstraps every key with a from-generation-0
// delta.
//
// A cursor belongs to the Engine that filled it (the clocks are that
// engine's) and to one destination; it is NOT safe for concurrent use,
// though any number of cursors — of any age, persisted or not — may export
// from one engine concurrently: the journal they read is shared and no
// export consumes it.
type ExportCursor struct {
	keys   map[string]keyCursor
	shards []uint64
	have   bool
	// engine is the instance id of the Engine the cursor was filled
	// against (0 = not yet bound). Incarnations and generations are only
	// meaningful within one engine instance; ExportDelta checks the
	// binding so a persisted cursor restored against a REBUILT engine —
	// whose per-shard incarnation counters restart and readily collide —
	// degrades to a safe tombstone+bootstrap re-ship instead of anchoring
	// deltas on another engine's state.
	engine uint64
}

// Keys returns how many keys the cursor currently tracks.
func (c *ExportCursor) Keys() int { return len(c.keys) }

// Reset forgets everything the cursor has shipped, making the next
// ExportDelta a full re-bootstrap. Call it when a delta blob may not have
// REACHED its destination (a failed push after a successful export): the
// cursor advances at encode time, so a blob lost in transit would
// otherwise leave the destination permanently behind — a lost delta for a
// live key at least surfaces as a fold error there, but a lost TOMBSTONE
// is silent (later exports carry no frame at all for a dead key).
// Re-bootstrapping is always safe: from-generation-0 frames replace.
func (c *ExportCursor) Reset() { *c = ExportCursor{} }

// ExportDelta writes to w only what changed since the cursor's last export
// — the incremental half of the distributed plane. Bytes shipped are always
// O(keys changed since the last export). So is the work, at steady state:
// each shard journals its mutations under a clock the cursor records, and
// an export walks the journal back to that clock without visiting an
// untouched key. Each shard answers for the names that hash to it. The work
// is O(resident keys + cursor keys) on every shard only when there is no
// clock to resume from: a first export, or a cursor after Reset or filled
// by another engine. A cursor so old that one shard's bounded departures
// log no longer reaches back to it costs that shard alone a pass over the
// cursor keys. Either way the blob is byte for byte the same. It carries,
// in sorted key order:
//
//   - a tombstone frame for every key the cursor has that the engine no
//     longer monitors (TTL expiry or explicit Evict), so receivers delete
//     it — none is ever lost, however long ago the eviction: a shard whose
//     departures log no longer covers the cursor checks every cursor key
//     that hashes to it;
//   - for every key sealed past (or unknown to) the cursor, a delta frame
//     with the summaries sealed since the cursor's generation (a key the
//     cursor never saw, or one evicted and re-created since — detected by
//     its incarnation — is bootstrapped with a from-generation-0 replace
//     frame, preceded by a tombstone when re-created).
//
// Like Snapshot, the capture rides the shard queues and never
// stops ingestion. On success the cursor is advanced in place; on error it
// is reset (the next export re-bootstraps — receivers treat
// from-generation-0 deltas as replacements, so this is always safe).
// The cursor advances when the blob is ENCODED, not delivered: a caller
// whose transport later fails must call cursor.Reset before continuing,
// or the destination is left permanently behind (see Reset).
// Receivers fold the blob with Aggregator.Apply (or any wire.DecodeFrame
// consumer); folded state is bit-for-bit the capture Export would have
// shipped whole. Engine.Stats counts exports, keys visited, frames,
// tombstones and full scans per shard.
func (e *Engine) ExportDelta(w io.Writer, cur *ExportCursor) (int64, error) {
	if cur == nil {
		return 0, fmt.Errorf("qlove: ExportDelta needs a cursor; use new(ExportCursor) for a first export")
	}
	if cur.keys == nil {
		cur.keys = make(map[string]keyCursor)
	}
	if cur.engine != 0 && cur.engine != e.id {
		// The cursor was filled against a different engine (a rebuilt
		// worker restoring a persisted cursor): its incarnations,
		// generations and shard clocks mean nothing here and could
		// collide with this engine's counters. Zero the incarnations —
		// no live key has incarnation 0 — so every cursor key re-ships
		// as tombstone + bootstrap, the replacement a destination can
		// always fold, and drop the shard clocks so every shard scans.
		for k, kc := range cur.keys {
			kc.inc = 0
			cur.keys[k] = kc
		}
		cur.shards = nil
		cur.have = false
	}
	have := cur.have && len(cur.shards) == len(e.shards)
	if len(cur.shards) != len(e.shards) {
		cur.shards = make([]uint64, len(e.shards))
	}
	return e.assembleDelta(w, cur, e.captureDelta(cur, have))
}

// captureDelta collects every shard's contribution to one delta export.
// Renames stay out (see each): a stream has exactly one name for the whole
// capture. The shards read cur.keys concurrently; nothing writes it
// meanwhile.
func (e *Engine) captureDelta(cur *ExportCursor, have bool) []*shardDeltaResp {
	resps := make([]*shardDeltaResp, len(e.shards))
	e.each(e.shards, func(i int, s *engineShard) { resps[i] = s.deltaResp(i, cur.keys, cur.shards[i], have) })
	return resps
}

// assembleDelta turns the per-shard captures into sorted tombstone and
// delta frames and advances the cursor. Keys are INTERNAL names: an
// escalated key ships one frame per sub-stream (each a single stream
// with real seal generations — the stable cursor identity that lets delta
// exports survive per-key salting), and receivers fold sub-streams back
// to logical keys at read time.
func (e *Engine) assembleDelta(w io.Writer, cur *ExportCursor, resps []*shardDeltaResp) (int64, error) {
	var tombs []string
	n := 0
	for _, r := range resps {
		tombs = append(tombs, r.tombs...)
		n += len(r.changed)
	}
	slices.Sort(tombs)
	tombs = slices.Compact(tombs) // a name can depart more than once
	changed := make([]*deltaCapture, 0, n)
	for _, r := range resps {
		for i := range r.changed {
			changed = append(changed, &r.changed[i])
		}
	}
	slices.SortFunc(changed, func(a, b *deltaCapture) int { return strings.Compare(a.name, b.name) })

	enc := wire.NewEncoder(w)
	var written int64
	fail := func(err error) (int64, error) {
		// The destination's view is now unknown; reset so the next export
		// re-bootstraps (receivers treat from-generation-0 deltas as
		// replacements, so over-shipping is safe, under-shipping is not).
		*cur = ExportCursor{}
		return written, err
	}
	tombstone := func(k string) error {
		m, err := enc.EncodeTombstone(k)
		written += int64(m)
		if err != nil {
			return fmt.Errorf("qlove: delta export tombstone %q: %w", k, err)
		}
		e.shardOf(k).counters.exportTombstones.Add(1)
		return nil
	}
	for _, k := range tombs {
		if err := tombstone(k); err != nil {
			return fail(err)
		}
		delete(cur.keys, k)
	}
	for _, c := range changed {
		k := c.name
		g := c.snap.SealGen()
		from := uint64(0)
		if kc, ok := cur.keys[k]; ok && kc.inc != c.inc {
			// Re-created since the cursor: the destination still holds the
			// previous incarnation's window; retire it before the
			// bootstrap frame.
			if err := tombstone(k); err != nil {
				return fail(err)
			}
		} else if ok && kc.gen <= g {
			from = kc.gen
		}
		d, err := wire.NewDelta(c.snap, from)
		if err != nil {
			return fail(fmt.Errorf("qlove: delta export key %q: %w", k, err))
		}
		m, err := enc.EncodeDelta(k, d)
		written += int64(m)
		if err != nil {
			return fail(fmt.Errorf("qlove: delta export key %q: %w", k, err))
		}
		cur.keys[k] = keyCursor{inc: c.inc, gen: g, resident: c.snap.SubWindows()}
	}
	for i, r := range resps {
		cur.shards[i] = r.mutations
	}
	cur.have = true
	cur.engine = e.id
	return written, nil
}

// Tick runs every shard's housekeeping pass against the engine's current
// clock: keys idle past KeyTTLDuration are evicted, and every other timed
// key is flushed — period boundaries at or before the clock seal their
// sub-windows, expired sub-windows drop, and the evaluations fan into
// Results. The pass rides each shard's queue, so it is ordered with ingest
// on every key — deterministic (fake-clock) tests and external schedulers
// drive expiry and timed windows through it without waiting for the shard
// tickers. Tick returns after every shard has run its pass; with neither
// KeyTTLDuration nor timed mode set the pass does nothing. After Close it
// runs like every other operation, inline under the engine's write lock —
// expiring idle keys and sealing trailing sub-windows before a last
// Export — but the evaluations are discarded, since the Results channel
// has already closed.
func (e *Engine) Tick() {
	e.each(e.shards, func(_ int, s *engineShard) { s.housekeep(s.now()) })
}

// Evict retires a key, returning whether it existed. The key's operator
// (and the workbench of its unsealed sub-window) goes back to the shard's
// pool for the next new key.
// For an escalated key every resident stream — base residue and
// sub-streams — is retired; any route override stays, so a later push
// re-creates the key under its current routing. After Close it retires
// the key from the final state, inline under the engine's write lock.
func (e *Engine) Evict(key string) bool {
	names := []string{key}
	if ov := e.override(key); ov != nil {
		for j := 0; j < ov.maxSalt; j++ {
			names = append(names, wire.SaltedName(key, byte(j)))
		}
	}
	found := false
	for _, k := range names { // one name per round trip, base first
		e.each([]*engineShard{e.shardOf(k)}, func(_ int, s *engineShard) { found = s.evict(k) || found })
	}
	return found
}

// Keys returns the number of keys currently monitored. It counts resident
// sub-streams (an escalated key may count once per sub-stream, plus a base
// residue), matching the sum of ShardStats.ResidentKeys.
func (e *Engine) Keys() int {
	var n atomic.Int64
	e.each(e.shards, func(_ int, s *engineShard) { n.Add(int64(len(s.keys))) })
	return int(n.Load())
}

// Close stops ingestion, waits for every shard to drain its queue and then
// closes the Results channel (results already buffered stay readable until
// the consumer drains them). Push returns ErrEngineClosed afterwards and
// Rebalance does nothing. Every other operation keeps working against the
// final state: Query reads it in place, and the work that would have ridden
// a shard queue (Snapshot, the exports, Keys, Evict, Tick) runs inline
// under the engine's write lock, one operation at a time. Under
// BackpressureDrop shards never block on result delivery, so Close cannot
// deadlock on a slow consumer; under BackpressureBlock the consumer must
// keep draining Results until it closes, or Close waits behind the full
// channel with the blocked shards.
func (e *Engine) Close() {
	// Stop the adaptive controller BEFORE taking the write lock: a pass in
	// flight may itself need the lock for a route cutover, and would then
	// deadlock behind Close. Explicit Rebalance callers racing Close are
	// safe either way — every controller step re-checks closed under a
	// lock before touching a shard queue.
	e.stopAdapt()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	for _, s := range e.shards {
		close(s.in)
	}
	e.wg.Wait()
	close(e.results)
}

// run is a shard's single-writer loop: every operator in s.keys is touched
// exclusively here. With wall-clock TTL or timed mode enabled a ticker
// wakes the loop for a housekeeping pass, so idle keys expire and timed
// keys evaluate on wall time even on a shard with no deliveries at all.
// The ticker rides the same select as ingest, so passes never stop
// ingestion — they interleave with it between batches.
func (s *engineShard) run() {
	var tick <-chan time.Time
	if s.every > 0 {
		t := time.NewTicker(s.every)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case msg, ok := <-s.in:
			if !ok {
				s.stopped = true
				return
			}
			s.handle(msg)
		case <-tick:
			s.housekeep(s.now())
		}
	}
}

// handle processes one queued unit of shard work.
func (s *engineShard) handle(msg engineMsg) {
	if msg.fn != nil {
		msg.fn()
		return
	}
	// One clock read per delivery, shared by the batch timestamp, the TTL
	// stamp and the overdue check: the hot loop pays a single now() (a
	// mutex round-trip under injected fake clocks) and the whole delivery
	// sees one coherent instant.
	var now time.Time
	if s.every > 0 {
		now = s.now()
	}
	ent, err := s.entry(msg.key)
	if err != nil {
		s.eng.failed.Add(1)
		s.counters.failed.Add(1)
		s.eng.lastErr.Store(engineErr{err})
	} else {
		if s.wallTTL > 0 {
			ent.lastAt = int64(now.Sub(s.ttlEpoch))
		}
		s.delivering = ent
		if ent.timed != nil {
			// The batch is stamped with the shard's clock at delivery;
			// boundary crossings at or before it seal and evaluate first,
			// exactly as a TimedMonitor handed the same timestamp would.
			ent.timed.PushBatch(now, *msg.buf, s.emit)
		} else {
			ent.pos.PushBatch(ent.op, s.eng.spec, *msg.buf, s.emit)
		}
		ent.batches++
		s.counters.delivered.Add(1)
		s.noteMutation(ent)
	}
	s.eng.bufs.Put(msg.buf)
	if s.every > 0 && !now.Before(s.nextAt) {
		s.housekeep(now)
	}
	s.noteBenches()
}

// noteBenches publishes the pool's workbench gauges. Loans change hands
// inside deliveries and timed flushes (borrow, seal) and evictions (Reset),
// and each of those ends here.
func (s *engineShard) noteBenches() {
	setGauge(&s.counters.inFlight, s.pool.Lent())
	setGauge(&s.counters.idleBenches, s.pool.IdleWorkbenches())
}

// noteMutation folds one key's operator-state change into the shard's
// delta-export bookkeeping: the entry is journaled exactly when the key's
// capture would differ — a seal advanced SealGen, or a summary EXPIRED
// without a new seal (the batch after a boundary expires before it
// observes), which only the resident count reflects.
func (s *engineShard) noteMutation(ent *keyEntry) {
	g, r := ent.op.SealGen(), ent.op.SubWindowCount()
	if g == ent.gen && r == ent.resident {
		return
	}
	ent.gen, ent.resident = g, r
	s.touch(ent)
}

// touch journals a change to a live entry: unless the entry already stands
// past every cursor's clock (see engineShard.exported), the mutation clock
// ticks, the entry is stamped with the new value and moved (or, when new to
// the shard, linked) to the tail of the journal ring, which therefore stays
// in ascending stamp order.
func (s *engineShard) touch(ent *keyEntry) {
	if ent.stamp > s.exported {
		return
	}
	s.mutations++
	ent.stamp = s.mutations
	if ent.prev != nil {
		ent.prev.next, ent.next.prev = ent.next, ent.prev
	}
	tail := s.journal.prev
	ent.prev, ent.next = tail, &s.journal
	tail.next, s.journal.prev = ent, ent
}

// arrive journals an entry that just became resident under name (minted,
// or renamed to it).
func (s *engineShard) arrive(name string, ent *keyEntry) {
	ent.name = name
	s.setKey(name, ent)
	s.touch(ent)
}

// setKey and dropKey are the only writers of s.keys (see keysMu).
func (s *engineShard) setKey(name string, ent *keyEntry) {
	s.keysMu.Lock()
	s.keys[name] = ent
	s.keysMu.Unlock()
	s.counters.resident.Store(int64(len(s.keys)))
}

func (s *engineShard) dropKey(name string) {
	s.keysMu.Lock()
	delete(s.keys, name)
	s.keysMu.Unlock()
	s.counters.resident.Store(int64(len(s.keys)))
}

// depart ticks the mutation clock for a live entry leaving its name
// (evicted, expired or renamed): the entry is unlinked from the journal
// ring and its name appended to the departures log, which is then trimmed
// to its cap — raising the floor below which a cursor must rescan.
func (s *engineShard) depart(ent *keyEntry) {
	s.dropKey(ent.name)
	s.mutations++
	ent.prev.next, ent.next.prev = ent.next, ent.prev
	ent.prev, ent.next, ent.stamp = nil, nil, 0
	s.departed = append(s.departed, departure{name: ent.name, clock: s.mutations})
	for len(s.departed) > len(s.keys)+departedSlack {
		// Reslicing past the head leaves it to the next append that grows
		// the backing array, which copies only what is still logged.
		s.depFloor = s.departed[0].clock
		s.departed[0] = departure{}
		s.departed = s.departed[1:]
	}
}

// housekeepInterval spaces housekeeping passes: at most half the TTL, so
// an idle key is reclaimed at most ~1.5×TTL after its last batch while
// each O(keys) pass amortizes over many deliveries, and at most one timed
// period, so evaluations fire on wall time. It is floored so a tiny TTL or
// period cannot arm a busy-looping ticker, and 0 when neither is set.
func housekeepInterval(ttl, period time.Duration) time.Duration {
	if ttl <= 0 && period <= 0 {
		return 0
	}
	iv := period
	if ttl > 0 && (period <= 0 || ttl/2 < period) {
		iv = ttl / 2
	}
	return max(iv, time.Millisecond)
}

// housekeep is the shard's periodic pass. It evicts every key idle for
// more than the TTL — before its flush, so an expiring key emits nothing
// more — and drives every other timed key's state machine to now:
// boundary crossings seal the in-flight sub-windows, expire departed ones,
// and fan evaluations into the engine's results channel. Sealed periods
// advance the same seal-generation bookkeeping batch deliveries do, so
// delta exports ship tick-driven seals exactly like traffic-driven ones.
// It runs on the shard goroutine between batches (from the ticker, a
// delivery piggyback, or Engine.Tick), so it is ordered with ingest on
// every key the shard owns; evicted operators recycle through the pool. A
// pass after Close (Engine.Tick, inline) delivers nothing: the Results
// channel is already closed.
func (s *engineShard) housekeep(now time.Time) {
	at := int64(now.Sub(s.ttlEpoch))
	for k, ent := range s.keys {
		if s.wallTTL > 0 && at-ent.lastAt > int64(s.wallTTL) {
			s.evict(k)
			continue
		}
		if ent.timed != nil {
			emit := s.emit
			if s.stopped {
				emit = nil
			}
			s.delivering = ent
			ent.timed.Flush(now, emit)
			s.noteMutation(ent)
		}
	}
	s.nextAt = now.Add(s.every)
	s.noteBenches()
}

// entry returns the key's state, minting its operator (and, in timed mode,
// its TimedPusher) on first use. A count-based key starts at the zero
// Position.
func (s *engineShard) entry(key string) (*keyEntry, error) {
	if ent, ok := s.keys[key]; ok {
		return ent, nil
	}
	ent := &keyEntry{op: s.pool.Get()}
	if s.timedWindow > 0 {
		tp, err := stream.NewTimedPusher(ent.op, s.timedWindow, s.timedPeriod)
		if err != nil {
			return nil, err
		}
		ent.timed = tp
	}
	s.incs++
	ent.inc = s.incs
	s.arrive(key, ent)
	return ent, nil
}

// makeEmit builds the shard's one evaluation-delivery function, which
// serves every key: it delivers for s.delivering under the LOGICAL key
// name (the salt suffix is an internal detail), read at delivery, so a
// renamed stream needs nothing remade and the emit path stays
// allocation-free at steady state.
func (s *engineShard) makeEmit() func(Result) {
	eng := s.eng
	if eng.block {
		// Lossless delivery: a full Results channel stalls the shard (and,
		// transitively, producers) instead of shedding the evaluation. The
		// stall is accounted so overload is observable via Stats.
		return func(res Result) {
			kr := KeyedResult{Key: wire.LogicalKey(s.delivering.name), Result: res}
			select {
			case eng.results <- kr:
			default:
				start := time.Now()
				eng.results <- kr
				s.counters.blockedNanos.Add(uint64(time.Since(start)))
			}
			s.counters.evalsDelivered.Add(1)
		}
	}
	return func(res Result) {
		select {
		case eng.results <- KeyedResult{Key: wire.LogicalKey(s.delivering.name), Result: res}:
			s.counters.evalsDelivered.Add(1)
		default:
			s.counters.evalsDropped.Add(1)
		}
	}
}

// rename moves the stream resident under from to the name to, returning the
// batches it has observed (0 when from is not resident: the key then mints
// fresh under to, never resurrecting stale seals). The entry itself stays:
// operator, pool loan, incarnation, batch count and TTL stamp all carry
// over, since a rename is not a delivery (emit reads the logical key from
// the name at delivery). Only the journal sees it, as a departure of from
// and an arrival of to. A resident to is never overwritten; no route
// produces one.
func (s *engineShard) rename(from, to string) uint64 {
	ent := s.keys[from]
	if ent == nil || s.keys[to] != nil {
		return 0
	}
	s.depart(ent)
	s.arrive(to, ent)
	return ent.batches
}

// sampleLoads attributes deliveries since the previous sample to keys,
// returning the top n by interval load (ties break on key name, so a
// quiesced engine samples deterministically). Sampling RESETS the
// attribution counters of every key, sampled or not, so each pass sees
// exactly one interval.
func (s *engineShard) sampleLoads(n int) []KeyLoad {
	var loads []KeyLoad
	for k, ent := range s.keys {
		d := ent.batches - ent.sampled
		ent.sampled = ent.batches
		if d == 0 {
			continue
		}
		loads = append(loads, KeyLoad{Key: k, Batches: d})
	}
	sort.Slice(loads, func(i, j int) bool {
		if loads[i].Batches != loads[j].Batches {
			return loads[i].Batches > loads[j].Batches
		}
		return loads[i].Key < loads[j].Key
	})
	if n > 0 && len(loads) > n {
		loads = loads[:n]
	}
	return loads
}

// deltaResp computes shard i's contribution to a delta export: capture
// only the keys the cursor (keys, and mut, its record of this shard's
// mutation clock) has not seen at their current generation, and name the
// cursor keys gone from this shard. With the clock in hand (have: the
// cursor carries this engine's per-shard clocks) the changed keys are found
// by walking the mutation journal back to mut — nothing at all when the
// clock is current, whatever the shard's key count — and the tombstones
// among the names the departures log holds since mut. Otherwise (first
// export, foreign engine, Reset) every key is scanned. A departures log
// that no longer reaches back to mut leaves the journal walk correct (the
// ring holds every live entry) but may have forgotten a tombstone: then,
// as without a clock, every cursor key hashing here that is not resident
// is one.
func (s *engineShard) deltaResp(i int, keys map[string]keyCursor, mut uint64, have bool) *shardDeltaResp {
	r := &shardDeltaResp{mutations: s.mutations}
	s.exported = s.mutations
	visited := 0
	if have {
		// Every tick since the cursor's clock touched at most one entry.
		r.changed = make([]deltaCapture, 0, min(uint64(len(s.keys)), s.mutations-mut))
		for ent := s.journal.prev; ent != &s.journal && ent.stamp > mut; ent = ent.prev {
			visited++
			if kc, ok := keys[ent.name]; !ok || !kc.covers(ent) {
				r.changed = append(r.changed, deltaCapture{name: ent.name, snap: ent.op.Snapshot(), inc: ent.inc})
			}
		}
	} else {
		visited = len(s.keys)
		for k, ent := range s.keys {
			if kc, ok := keys[k]; !ok || !kc.covers(ent) {
				r.changed = append(r.changed, deltaCapture{name: k, snap: ent.op.Snapshot(), inc: ent.inc})
			}
		}
	}
	if have && mut >= s.depFloor {
		for j := len(s.departed) - 1; j >= 0 && s.departed[j].clock > mut; j-- {
			visited++
			// Still resident means re-created or renamed back since.
			k := s.departed[j].name
			if _, tracked := keys[k]; tracked && s.keys[k] == nil {
				r.tombs = append(r.tombs, k)
			}
		}
	} else {
		visited += len(keys)
		for k := range keys {
			if s.keys[k] == nil && s.eng.shardIndex(k) == i {
				r.tombs = append(r.tombs, k)
			}
		}
		s.counters.exportFullScans.Add(1)
	}
	s.counters.exports.Add(1)
	s.counters.exportKeysVisited.Add(uint64(visited))
	s.counters.exportFrames.Add(uint64(len(r.changed)))
	return r
}

// covers reports whether the cursor's record of a key still describes the
// live entry: same incarnation, no seal past the recorded generation, same
// resident summary count.
func (kc keyCursor) covers(ent *keyEntry) bool {
	return kc.inc == ent.inc && ent.op.SealGen() <= kc.gen && ent.op.SubWindowCount() == kc.resident
}

// evict removes a key and recycles its operator.
func (s *engineShard) evict(key string) bool {
	ent, ok := s.keys[key]
	if !ok {
		return false
	}
	s.depart(ent)
	s.pool.Put(ent.op)
	s.noteBenches()
	return true
}

// EngineSnapshot is a point-in-time capture of every key the engine
// monitors. It is immutable and safe to read from any
// goroutine.
type EngineSnapshot struct {
	keys map[string]Snapshot
}

// Query answers one key's configured quantiles from the capture.
func (s EngineSnapshot) Query(key string) ([]float64, bool) {
	sn, ok := s.keys[key]
	if !ok {
		return nil, false
	}
	return sn.Estimates(), true
}

// Get returns one key's raw snapshot, e.g. to Merge it with the same key's
// capture from another engine or datacenter.
func (s EngineSnapshot) Get(key string) (Snapshot, bool) {
	sn, ok := s.keys[key]
	return sn, ok
}

// Len returns the number of captured keys.
func (s EngineSnapshot) Len() int { return len(s.keys) }

// Keys returns the captured key names, sorted.
func (s EngineSnapshot) Keys() []string {
	out := make([]string, 0, len(s.keys))
	for k := range s.keys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WriteTo serializes the capture as one wire blob — a sequence of keyed
// frames in sorted key order, so identical captures produce identical
// bytes. It implements io.WriterTo; the blob is what Export ships across
// process boundaries and ReadFrom (or cmd/qlove-agg) consumes.
func (s EngineSnapshot) WriteTo(w io.Writer) (int64, error) {
	enc := wire.NewEncoder(w)
	var n int64
	for _, k := range s.Keys() {
		m, err := enc.Encode(k, s.keys[k])
		n += int64(m)
		if err != nil {
			return n, fmt.Errorf("qlove: export key %q: %w", k, err)
		}
	}
	return n, nil
}

// ReadFrom decodes keyed frames from r until EOF, merging them into the
// capture key-wise (frames for a key already present — read earlier or
// from a previous ReadFrom — merge as disjoint sub-streams of that key).
// It implements io.ReaderFrom and is the aggregator's accumulation
// primitive: start from the zero EngineSnapshot and fold every worker's
// blob in. On a decode or merge error the capture retains the frames
// merged so far and the byte count says how much input was consumed.
func (s *EngineSnapshot) ReadFrom(r io.Reader) (int64, error) {
	dec := wire.NewDecoder(r)
	for {
		key, sn, err := dec.Decode()
		if err == io.EOF {
			return dec.Consumed(), nil
		}
		if err != nil {
			return dec.Consumed(), fmt.Errorf("qlove: import: %w", err)
		}
		if s.keys == nil {
			s.keys = make(map[string]Snapshot)
		}
		if prev, ok := s.keys[key]; ok {
			m, err := prev.Merge(sn)
			if err != nil {
				return dec.Consumed(), fmt.Errorf("qlove: import key %q: %w", key, err)
			}
			sn = m
		}
		s.keys[key] = sn
	}
}

// Merge combines two captures key-wise: keys present in both merge their
// snapshots (disjoint sub-streams of one logical key — e.g. the same
// service monitored by two engines); keys present in one carry over.
func (s EngineSnapshot) Merge(o EngineSnapshot) (EngineSnapshot, error) {
	out := EngineSnapshot{keys: make(map[string]Snapshot, len(s.keys)+len(o.keys))}
	for k, sn := range s.keys {
		out.keys[k] = sn
	}
	for k, sn := range o.keys {
		if prev, ok := out.keys[k]; ok {
			m, err := prev.Merge(sn)
			if err != nil {
				return EngineSnapshot{}, fmt.Errorf("key %q: %w", k, err)
			}
			out.keys[k] = m
			continue
		}
		out.keys[k] = sn
	}
	return out, nil
}
