package core

// Pool mints and recycles QLOVE operators that share one configuration,
// and lends them their Level-1 workbench. Every operator is minted by a
// pool — one made by New by a pool of its own — and borrows from it alone.
// A monitoring engine serving a
// high-cardinality key space holds one operator per key, but the costly
// part of an operator — the sub-window buffer and the seal scratch — is
// in use only while a sub-window is being filled and is empty again at
// every seal (§3.1: a stream costs its sub-window summaries plus ONE
// transient sub-window). So the pool owns that part: an
// operator borrows a workbench at the first value of a sub-window and
// hands it back when EndPeriod seals it. Keys whose reports end on period
// boundaries, or that sit idle in a timed period, then share a few
// cache-hot workbenches instead of each pinning a cold one, and a resident
// key costs its summaries. A key that IS mid-period keeps its workbench
// until the period completes: a buffer of 8 bytes per value of the period
// (1 KB at 128, 128 KB at 16 000) plus the seal scratch.
//
// Retired operators (Put) are kept too, Reset and without a workbench, so
// key churn costs map traffic instead of allocator traffic.
//
// A Pool is NOT safe for concurrent use: it is designed to be owned by a
// single shard goroutine (one pool per shard), which is also the only
// goroutine allowed to touch the operators homed on it — an operator calls
// into its pool from Observe, EndPeriod and Reset, so an operator never
// changes owners. Use one Pool per owner, not one shared Pool behind a lock.
type Pool struct {
	// shape is the configuration NewPool resolved and validated: every
	// operator and workbench the pool hands out is made from it
	// (Get, newBuilder) and shares it.
	shape *Shape
	free  []*Policy
	// benches holds the idle workbenches, cleared, most recently used
	// last; lent counts the ones out with operators homed here.
	benches []*builder
	lent    int
	// scratch is the few-k merge scratch every operator homed here
	// evaluates and seals with: like the workbenches it is the owner
	// goroutine's alone, so one serves the whole shard.
	scratch mergeScratch
}

// NewPool returns a pool minting operators with cfg. The configuration is
// resolved and validated eagerly, exactly as New does, so Get never fails
// afterwards.
func NewPool(cfg Config) (*Pool, error) {
	sh, err := resolve(cfg)
	if err != nil {
		return nil, err
	}
	return &Pool{shape: sh}, nil
}

// Get returns an operator ready for a fresh stream: a recycled one when
// available (already Reset by Put), newly constructed otherwise.
func (pl *Pool) Get() *Policy {
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		return p
	}
	// Every operator shares the pool's shape, so a pool's thousands of
	// operators do not each hold a copy of it.
	p := &Policy{sh: pl.shape, lender: pl}
	p.agg.sums = make([]float64, len(pl.shape.cfg.Phis))
	return p
}

// maxIdle bounds the free list and the idle-workbench list: a churn burst
// (a million transient keys evicted) or a burst of keys that were all
// mid-period at once must not pin a million buffers forever. Operators and
// workbenches beyond the cap are dropped to the garbage collector.
const maxIdle = 64

// Put resets p and shelves it for reuse. Only operators this pool minted
// are kept: one homed on another pool — whose workbench it may hold, and
// whose owner alone may touch it; one made by New is homed on a pool of
// its own — is dropped untouched, as are operators beyond the maxIdle cap;
// nil is ignored.
func (pl *Pool) Put(p *Policy) {
	if p == nil || p.lender != pl || len(pl.free) >= maxIdle {
		return
	}
	p.Reset()
	pl.free = append(pl.free, p)
}

// Lent returns how many workbenches are out with operators homed here —
// the operators whose in-flight sub-window is not empty.
func (pl *Pool) Lent() int { return pl.lent }

// IdleWorkbenches returns how many workbenches sit in the pool, at
// capacity, waiting for a borrower.
func (pl *Pool) IdleWorkbenches() int { return len(pl.benches) }

// lend hands out a workbench: the most recently returned one (still in the
// CPU cache when a shard works through keys one report at a time), or a
// new one made for the pool's configuration. Only operators the pool
// minted borrow, so a workbench always seals for the configuration it was
// made for.
func (pl *Pool) lend() *builder {
	pl.lent++
	if n := len(pl.benches); n > 0 {
		b := pl.benches[n-1]
		pl.benches[n-1] = nil
		pl.benches = pl.benches[:n-1]
		return b
	}
	return newBuilder(pl.shape)
}

// takeBack clears a returned workbench and shelves it, up to maxIdle.
func (pl *Pool) takeBack(b *builder) {
	pl.lent--
	if len(pl.benches) < maxIdle {
		b.clear()
		pl.benches = append(pl.benches, b)
	}
}
