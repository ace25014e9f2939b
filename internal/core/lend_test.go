package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/window"
	"repro/internal/workload"
)

// sameState fails unless an operator sharing a pool and its stand-alone
// twin — an operator made by New, whose pool serves it alone — are
// bit-identical in everything a caller can read: Result, the exploded
// Snapshot (sums, every summary slice, seal clock) and the two state clocks.
func sameState(t *testing.T, step int, what string, got, want *Policy) {
	t.Helper()
	if got.SealGen() != want.SealGen() || got.SubWindowCount() != want.SubWindowCount() {
		t.Fatalf("step %d (%s): clocks: pooled gen=%d resident=%d, stand-alone gen=%d resident=%d",
			step, what, got.SealGen(), got.SubWindowCount(), want.SealGen(), want.SubWindowCount())
	}
	gr, wr := got.Result(), want.Result()
	for j := range wr {
		if math.Float64bits(gr[j]) != math.Float64bits(wr[j]) {
			t.Fatalf("step %d (%s): Result[%d]: pooled %v, stand-alone %v", step, what, j, gr[j], wr[j])
		}
	}
	// DeepEqual compares floats with ==; no summary field can hold a NaN
	// (they are dropped on entry), so == is bit-identity up to the sign of
	// zero, which Result above covers.
	if gp, wp := got.Snapshot().Parts(), want.Snapshot().Parts(); !reflect.DeepEqual(gp, wp) {
		t.Fatalf("step %d (%s): Snapshot().Parts() diverge:\npooled      %+v\nstand-alone %+v", step, what, gp, wp)
	}
}

// idleClear fails unless every workbench pl keeps idle is empty: a
// workbench is cleared when it is handed back, never when it is lent.
func idleClear(t *testing.T, step int, what, whose string, pl *Pool) {
	t.Helper()
	for j, b := range pl.benches {
		if n := b.len(); n != 0 {
			t.Fatalf("step %d (%s): %s idle workbench %d holds %d values", step, what, whose, j, n)
		}
	}
}

// TestPooledOperatorsMatchStandAlone drives operators that share one
// pool's workbenches and stand-alone twins (each with an unshared pool of
// its own) through one seeded schedule — chunks of every size against the
// period, NaNs, forced seals of empty and partial sub-windows, recycling
// through Put/Get — interleaved so that a workbench returned by one key is
// the next key's. After every step every pair must agree bit for bit,
// and every idle workbench in the shared pool and in each twin's must be
// empty. (Mutation-checked: a takeBack that skips clear fails the idle
// check at step 9 and, without it, the twin comparison at step 10; an
// EndPeriod that keeps an empty workbench fails at step 2.)
func TestPooledOperatorsMatchStandAlone(t *testing.T) {
	const operators, steps = 8, 4000
	phis := []float64{0.5, 0.9, 0.99, 0.999}
	for _, cfg := range []Config{
		{Spec: window.Spec{Size: 512, Period: 128}, Phis: phis, FewK: true},
		{Spec: window.Spec{Size: 64, Period: 16}, Phis: phis, FewK: true},
		{Spec: window.Spec{Size: 100, Period: 10}, Phis: phis},
	} {
		t.Run(cfg.Spec.String(), func(t *testing.T) {
			pool, err := NewPool(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(cfg.Spec.Size)))
			gen := workload.NewNetMon(int64(cfg.Spec.Period))
			pooled := make([]*Policy, operators)
			alone := make([]*Policy, operators)
			for i := range pooled {
				pooled[i] = pool.Get()
				alone[i] = mustNew(t, cfg)
			}
			period, resident := cfg.Spec.Period, cfg.Spec.SubWindows()
			chunk := func() []float64 {
				var n int
				switch rng.Intn(5) {
				case 0:
					n = 0
				case 1:
					n = 1
				case 2:
					n = 1 + rng.Intn(period-1) // below the period
				case 3:
					n = period // exactly one sub-window
				default:
					n = period + 1 + rng.Intn(3*period) // spans several
				}
				vs := workload.Generate(gen, n)
				switch rng.Intn(8) {
				case 0: // a glitchy report
					for i := range vs {
						if rng.Intn(4) == 0 {
							vs[i] = math.NaN()
						}
					}
				case 1: // nothing but glitches
					for i := range vs {
						vs[i] = math.NaN()
					}
				}
				return vs
			}
			for step := 0; step < steps; step++ {
				i := rng.Intn(operators)
				var what string
				switch op := rng.Intn(20); {
				case op < 12:
					what = "ObserveBatch"
					vs := chunk()
					pooled[i].ObserveBatch(vs)
					alone[i].ObserveBatch(vs)
				case op < 15:
					what = "Observe"
					for _, v := range chunk() {
						pooled[i].Observe(v)
						alone[i].Observe(v)
					}
				case op < 18:
					what = "EndPeriod"
					pooled[i].EndPeriod()
					alone[i].EndPeriod()
				case op < 19:
					what = "Put/Get"
					pool.Put(pooled[i])
					pooled[i] = pool.Get()
					alone[i] = mustNew(t, cfg)
				default:
					what = "Reset"
					pooled[i].Reset()
					alone[i].Reset()
				}
				// Slide the window the way a pusher would.
				for pooled[i].SubWindowCount() > resident {
					pooled[i].Expire(nil)
					alone[i].Expire(nil)
				}
				idleClear(t, step, what, "shared pool", pool)
				lent := 0
				for k := range pooled {
					sameState(t, step, what, pooled[k], alone[k])
					idleClear(t, step, what, "twin's pool", alone[k].lender)
					if pooled[k].builder != nil {
						lent++
						if pooled[k].builder.len() == 0 {
							t.Fatalf("step %d (%s): operator %d sits on an empty workbench", step, what, k)
						}
					}
				}
				if pool.Lent() != lent {
					t.Fatalf("step %d (%s): pool counts %d workbenches lent, operators hold %d", step, what, pool.Lent(), lent)
				}
				if n := pool.IdleWorkbenches(); n > operators {
					t.Fatalf("step %d (%s): %d idle workbenches for %d operators", step, what, n, operators)
				}
			}
		})
	}
}

// TestPoolPutDropsForeignOperator: an operator retired on a pool that did
// not mint it — another pool's, still holding that pool's workbench, or a
// stand-alone one, homed on a pool of its own — is dropped untouched, and
// neither pool's lists change.
func TestPoolPutDropsForeignOperator(t *testing.T) {
	cfg := Config{Spec: window.Spec{Size: 400, Period: 100}, Phis: []float64{0.5, 0.99}, FewK: true}
	src, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := src.Get()
	q.ObserveBatch(workload.Generate(workload.NewNetMon(3), 30))
	if src.Lent() != 1 {
		t.Fatalf("source lent = %d, want 1", src.Lent())
	}
	dst.Put(q)
	if q.lender != src || q.builder == nil || q.inFlight() != 30 {
		t.Fatalf("Put touched an operator homed elsewhere: lender %p, builder %p", q.lender, q.builder)
	}
	if src.Lent() != 1 || src.IdleWorkbenches() != 0 || len(src.free) != 0 {
		t.Fatalf("source lists changed: lent %d, idle %d, free %d", src.Lent(), src.IdleWorkbenches(), len(src.free))
	}
	if dst.Lent() != 0 || dst.IdleWorkbenches() != 0 || len(dst.free) != 0 {
		t.Fatalf("destination lists changed: lent %d, idle %d, free %d", dst.Lent(), dst.IdleWorkbenches(), len(dst.free))
	}
	if r := dst.Get(); r == q {
		t.Fatal("the destination handed out an operator it did not mint")
	}
	// An operator made by New of the very same configuration is foreign too:
	// its pool is its own.
	dst.Put(mustNew(t, cfg))
	if len(dst.free) != 0 {
		t.Fatal("pool kept a stand-alone operator")
	}
}

// TestPoolCapsIdleWorkbenches: a burst of keys that are all mid-period at
// once borrows one workbench each; when they seal, the pool keeps maxIdle
// of them and leaves the rest to the collector.
func TestPoolCapsIdleWorkbenches(t *testing.T) {
	cfg := Config{Spec: window.Spec{Size: 40, Period: 10}, Phis: []float64{0.5}}
	pool, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]*Policy, 3*maxIdle)
	for i := range ops {
		ops[i] = pool.Get()
		ops[i].Observe(float64(i))
	}
	if pool.Lent() != len(ops) || pool.IdleWorkbenches() != 0 {
		t.Fatalf("mid-burst: lent %d idle %d", pool.Lent(), pool.IdleWorkbenches())
	}
	for _, p := range ops {
		p.EndPeriod()
	}
	if pool.Lent() != 0 || pool.IdleWorkbenches() != maxIdle {
		t.Fatalf("after the burst: lent %d idle %d, want 0 and %d", pool.Lent(), pool.IdleWorkbenches(), maxIdle)
	}
}
