package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/window"
	"repro/internal/workload"
)

// sameState fails unless a pooled operator and its stand-alone twin are
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

// TestPooledOperatorsMatchStandAlone drives operators that share one
// pool's workbenches and stand-alone twins through one seeded schedule —
// chunks of every size against the period, NaNs, forced seals of empty and
// partial sub-windows, recycling through Put/Get — interleaved so that a
// workbench returned by one key is the next key's. After every step every
// pair must agree bit for bit. (Mutation-checked: a takeBack that skips
// clear fails at step 10, an EndPeriod that keeps an empty workbench at
// step 2.)
func TestPooledOperatorsMatchStandAlone(t *testing.T) {
	const operators, steps = 8, 4000
	phis := []float64{0.5, 0.9, 0.99, 0.999}
	for _, cfg := range []Config{
		{Spec: window.Spec{Size: 512, Period: 128}, Phis: phis, FewK: true},
		{Spec: window.Spec{Size: 64, Period: 16}, Phis: phis, FewK: true, Adaptive: true},
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
				lent := 0
				for k := range pooled {
					sameState(t, step, what, pooled[k], alone[k])
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

// TestPoolRehomesOperators: an operator handed from one owner's pool to
// another's takes its in-flight sub-window along, stops touching the pool
// it left, and returns its workbench to the pool it now lives on.
func TestPoolRehomesOperators(t *testing.T) {
	cfg := Config{Spec: window.Spec{Size: 400, Period: 100}, Phis: []float64{0.5, 0.99}, FewK: true}
	src, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := workload.Generate(workload.NewNetMon(3), 200)
	p, twin := src.Get(), mustNew(t, cfg)
	p.ObserveBatch(data[:130]) // one seal, 30 values in flight
	twin.ObserveBatch(data[:130])
	if src.Lent() != 1 {
		t.Fatalf("source lent = %d, want 1", src.Lent())
	}
	src.Disown(p)
	if src.Lent() != 0 || p.lender != nil {
		t.Fatalf("after Disown: source lent = %d, lender = %p", src.Lent(), p.lender)
	}
	dst.Adopt(p)
	if dst.Lent() != 1 || p.lender != dst {
		t.Fatalf("after Adopt: destination lent = %d, lender = %p", dst.Lent(), p.lender)
	}
	p.ObserveBatch(data[130:]) // completes the straddled sub-window at the destination
	twin.ObserveBatch(data[130:])
	sameState(t, 0, "after re-homing", p, twin)
	if src.IdleWorkbenches() != 0 || dst.IdleWorkbenches() != 1 {
		t.Fatalf("workbench went home to the wrong pool: source %d, destination %d",
			src.IdleWorkbenches(), dst.IdleWorkbenches())
	}

	// Put re-homes by itself: an operator retired on a pool it was not
	// minted by (and that nobody disowned) must leave that pool alone.
	q := src.Get()
	q.ObserveBatch(data[:30])
	idle := src.IdleWorkbenches()
	dst.Put(q)
	if q.lender != dst || q.builder != nil {
		t.Fatalf("Put left the operator homed on %p with builder %p", q.lender, q.builder)
	}
	if src.IdleWorkbenches() != idle {
		t.Fatal("Put on the destination touched the source's workbench list")
	}
	if r := dst.Get(); r != q || r.SubWindowCount() != 0 || r.inFlight() != 0 {
		t.Fatal("re-homed operator was not recycled clean")
	}

	// A foreign configuration is never lent this pool's workbenches.
	other := mustNew(t, Config{Spec: cfg.Spec, Phis: cfg.Phis})
	dst.Adopt(other)
	if other.lender != nil {
		t.Fatal("pool adopted an operator of another configuration")
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
