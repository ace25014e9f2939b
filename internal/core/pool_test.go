package core

import (
	"math"
	"testing"

	"repro/internal/window"
	"repro/internal/workload"
)

// driveWindow runs a policy through n full window-protocol evaluations and
// returns every estimate produced.
func driveWindow(p *Policy, data []float64, spec window.Spec) [][]float64 {
	var out [][]float64
	pos := 0
	for i := 0; i < spec.Evaluations(len(data)); i++ {
		_, hi := spec.EvalBounds(i)
		if i > 0 {
			p.Expire(nil)
		}
		p.ObserveBatch(data[pos:hi])
		pos = hi
		out = append(out, p.Result())
	}
	return out
}

// TestResetRestoresFreshBehaviour: a Reset operator must be bit-identical
// to a freshly constructed one on the same subsequent stream, even after a
// bursty first life that left its burst flags set.
func TestResetRestoresFreshBehaviour(t *testing.T) {
	spec := window.Spec{Size: 2000, Period: 500}
	phis := []float64{0.5, 0.99, 0.999}
	for name, cfg := range map[string]Config{
		"fewk": {Spec: spec, Phis: phis, FewK: true},
	} {
		t.Run(name, func(t *testing.T) {
			recycled := mustNew(t, cfg)
			first := workload.Generate(workload.NewNetMon(8), 3*spec.Size)
			first = workload.InjectBursts(first, spec.Size, spec.Period, 0.99, 10)
			driveWindow(recycled, first, spec)
			recycled.Reset()

			fresh := mustNew(t, cfg)
			second := workload.Generate(workload.NewNetMon(9), 3*spec.Size)
			got := driveWindow(recycled, second, spec)
			want := driveWindow(fresh, second, spec)
			if len(got) != len(want) {
				t.Fatalf("evaluations %d != %d", len(got), len(want))
			}
			for i := range want {
				for j := range want[i] {
					if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
						t.Fatalf("eval %d ϕ=%v: recycled %v != fresh %v",
							i, phis[j], got[i][j], want[i][j])
					}
				}
			}
			if recycled.SubWindowCount() != fresh.SubWindowCount() {
				t.Fatal("resident counts diverge")
			}
		})
	}
}

func TestPoolRecyclesOperators(t *testing.T) {
	cfg := Config{Spec: window.Spec{Size: 400, Period: 100}, Phis: []float64{0.5, 0.999}, FewK: true}
	pool, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.free) != 0 {
		t.Fatalf("idle after construction = %d, want 0 (NewPool mints no operator)", len(pool.free))
	}
	p1 := pool.Get()
	p1.ObserveBatch(workload.Generate(workload.NewNetMon(1), cfg.Spec.Size))
	pool.Put(p1)
	p2 := pool.Get()
	if p2 != p1 {
		t.Fatal("pool minted a new operator instead of recycling")
	}
	if p2.SubWindowCount() != 0 {
		t.Fatal("recycled operator carries stale summaries")
	}
	// A second Get with the pool empty mints a distinct operator.
	p3 := pool.Get()
	if p3 == p2 {
		t.Fatal("same operator handed out twice")
	}
	// Foreign-config operators are refused.
	other := mustNew(t, Config{Spec: window.Spec{Size: 400, Period: 100}, Phis: []float64{0.5, 0.999}})
	pool.Put(other)
	if len(pool.free) != 0 {
		t.Fatal("pool accepted a mismatched operator")
	}
	pool.Put(nil)
	if len(pool.free) != 0 {
		t.Fatal("pool accepted nil")
	}
}

func TestPoolValidatesEagerly(t *testing.T) {
	if _, err := NewPool(Config{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestPoolMintsIdenticalConfigs: config resolution is not idempotent
// (user Digits<0 resolves to 0 "identity", which a re-resolution would
// turn into the default 3), so freshly minted operators must match the
// seeded one exactly — otherwise a pool with quantization disabled would
// hand out 3-digit-quantizing operators from the second Get on, and Put
// would refuse to recycle them.
func TestPoolMintsIdenticalConfigs(t *testing.T) {
	cfg := Config{Spec: window.Spec{Size: 100, Period: 10}, Phis: []float64{0.5}, Digits: -1}
	pool, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := pool.Get()
	second := pool.Get()
	if first.sh != pool.shape || second.sh != pool.shape {
		t.Fatal("minted operators do not share the pool's shape")
	}
	if second.Config().Digits != 0 {
		t.Fatalf("Digits re-resolved to %d, want 0 (identity)", second.Config().Digits)
	}
	// Both recycle.
	pool.Put(first)
	pool.Put(second)
	if len(pool.free) != 2 {
		t.Fatalf("idle = %d, want 2", len(pool.free))
	}
	// And unquantized operators really don't quantize.
	p := pool.Get()
	p.Observe(1234.5678)
	p.EndPeriod()
	if got := p.Result()[0]; got != 1234.5678 {
		t.Fatalf("minted operator quantized: %v", got)
	}
}

// TestPoolRecycledOperatorKeepsArena: a recycled operator's first
// sub-window must reuse a retained workbench buffer — no per-element
// allocations beyond the retained Summary slices.
func TestPoolRecycledOperatorKeepsArena(t *testing.T) {
	spec := window.Spec{Size: 1024, Period: 256}
	cfg := Config{Spec: spec, Phis: []float64{0.5, 0.99}}
	pool, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, spec.Period)
	for i := range vals {
		vals[i] = 100 + float64(i%512)
	}
	p := pool.Get()
	for i := 0; i < 8; i++ {
		p.ObserveBatch(vals) // grow the workbench to working-set size
	}
	pool.Put(p)
	p = pool.Get()
	allocs := testing.AllocsPerRun(5, func() {
		p.ObserveBatch(vals)
	})
	// One sealed Summary per period allocates its retained slices; the
	// ingest itself must not allocate per element.
	if perElement := allocs / float64(spec.Period); perElement > 0.05 {
		t.Fatalf("recycled operator allocates %v/element on first fills", perElement)
	}
}
