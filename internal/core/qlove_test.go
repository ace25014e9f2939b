package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/window"
	"repro/internal/workload"
)

func mustNew(t *testing.T, cfg Config) *Policy {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	good := Config{Spec: window.Spec{Size: 100, Period: 10}, Phis: []float64{0.5, 0.99}}
	if _, err := New(good); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Spec = window.Spec{Size: 5, Period: 10}
	if _, err := New(bad); err == nil {
		t.Fatal("invalid spec accepted")
	}
	bad = good
	bad.Phis = nil
	if _, err := New(bad); err == nil {
		t.Fatal("empty phis accepted")
	}
	bad = good
	bad.Phis = []float64{0.9, 0.5}
	if _, err := New(bad); err == nil {
		t.Fatal("unsorted phis accepted")
	}
	bad = good
	bad.Fraction = 1.5
	if _, err := New(bad); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
	// 17 significant digits round-trip every float64; more overflow the
	// quantizer's scale.
	for _, digits := range []int{18, 400} {
		bad = good
		bad.Digits = digits
		if _, err := New(bad); err == nil {
			t.Fatalf("digits %d accepted", digits)
		}
	}
	good.Digits = 17
	if _, err := New(good); err != nil {
		t.Fatal(err)
	}
}

func TestDefaults(t *testing.T) {
	p := mustNew(t, Config{Spec: window.Spec{Size: 100, Period: 10}, Phis: []float64{0.5}})
	cfg := p.Config()
	if cfg.Digits != 3 || cfg.Fraction != 0.5 || cfg.StatThreshold != 10 ||
		cfg.BurstAlpha != 0.05 || cfg.HighPhiMin != 0.95 {
		t.Fatalf("defaults = %+v", cfg)
	}
	// Digits < 0 disables quantization.
	p = mustNew(t, Config{Spec: window.Spec{Size: 100, Period: 10}, Phis: []float64{0.5}, Digits: -1})
	if p.Config().Digits != 0 {
		t.Fatalf("Digits = %d, want 0 (identity)", p.Config().Digits)
	}
}

func TestLevel2IsMeanOfSubWindowQuantiles(t *testing.T) {
	// Core §3.1 claim: the window estimate equals the mean of the exact
	// sub-window quantiles. Quantization off for an exact check.
	spec := window.Spec{Size: 40, Period: 10}
	phis := []float64{0.5, 0.9}
	p := mustNew(t, Config{Spec: spec, Phis: phis, Digits: -1})
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, 40)
	for i := range data {
		data[i] = math.Floor(rng.Float64() * 1000)
	}
	for _, v := range data {
		p.Observe(v)
	}
	got := p.Result()
	for j, phi := range phis {
		var want float64
		for s := 0; s < 4; s++ {
			want += stats.Quantile(data[s*10:(s+1)*10], phi)
		}
		want /= 4
		if math.Abs(got[j]-want) > 1e-9 {
			t.Errorf("phi=%v: got %v, want mean-of-subwindows %v", phi, got[j], want)
		}
	}
}

func TestSlidingDeaccumulatesWholeSubWindow(t *testing.T) {
	spec := window.Spec{Size: 40, Period: 10}
	p := mustNew(t, Config{Spec: spec, Phis: []float64{0.5}, Digits: -1})
	data := make([]float64, 80)
	for i := range data {
		data[i] = float64(i)
	}
	evals, _, err := stream.Run(p, spec, data)
	if err != nil {
		t.Fatal(err)
	}
	// Window [40, 80): sub-window medians (rank ⌈0.5·10⌉ = 5 of each run
	// of 10 consecutive integers) are 44, 54, 64, 74 -> mean 59.
	last := evals[len(evals)-1].Estimates[0]
	if math.Abs(last-59) > 1e-9 {
		t.Fatalf("final estimate = %v, want 59", last)
	}
	if p.SubWindowCount() != 4 {
		t.Fatalf("resident summaries = %d, want 4", p.SubWindowCount())
	}
}

func TestResultBeforeAnySummary(t *testing.T) {
	p := mustNew(t, Config{Spec: window.Spec{Size: 100, Period: 10}, Phis: []float64{0.5, 0.9}})
	got := p.Result()
	if got[0] != 0 || got[1] != 0 {
		t.Fatalf("empty Result = %v", got)
	}
	p.Expire(nil) // must not panic on empty aggregator
}

func TestAccuracyOnNetMon(t *testing.T) {
	// The headline claim: < 5% average relative value error across
	// quantiles on NetMon-like telemetry (16K period, 128K window scaled
	// down 8x for test speed: 2K period, 16K window — same N/P ratio).
	spec := window.Spec{Size: 16000, Period: 2000}
	phis := []float64{0.5, 0.9, 0.99}
	data := workload.Generate(workload.NewNetMon(1), 64000)
	p := mustNew(t, Config{Spec: spec, Phis: phis})
	evals, _, err := stream.Run(p, spec, data)
	if err != nil {
		t.Fatal(err)
	}
	accs := make([]stats.ErrorAccumulator, len(phis))
	_ = spec.Iter(data, func(idx int, w []float64) {
		want := stats.Quantiles(w, phis)
		for j := range phis {
			accs[j].Observe(evals[idx].Estimates[j], want[j], 0, 0, 0, false)
		}
	})
	for j, phi := range phis {
		if got := accs[j].AvgRelErrPct(); got > 5 {
			t.Errorf("phi=%v: avg rel err = %.2f%%, want < 5%%", phi, got)
		}
	}
}

func TestQuantizationBoundsError(t *testing.T) {
	// 3-digit quantization alone must keep values within 0.5%.
	spec := window.Spec{Size: 1000, Period: 1000} // tumbling: level1 only
	p := mustNew(t, Config{Spec: spec, Phis: []float64{0.5}})
	rng := rand.New(rand.NewSource(3))
	data := make([]float64, 1000)
	for i := range data {
		data[i] = 1000 + rng.Float64()*8000
	}
	for _, v := range data {
		p.Observe(v)
	}
	got := p.Result()[0]
	want := stats.Quantile(data, 0.5)
	if rel := math.Abs(got-want) / want; rel > 0.005 {
		t.Fatalf("median = %v, exact %v, rel err %v > 0.005", got, want, rel)
	}
}

func TestSpaceUsageBenefitsFromRedundancy(t *testing.T) {
	spec := window.Spec{Size: 8000, Period: 4000}
	redundant := mustNew(t, Config{Spec: spec, Phis: []float64{0.5}})
	distinct := mustNew(t, Config{Spec: spec, Phis: []float64{0.5}, Digits: -1})
	rng := rand.New(rand.NewSource(4))
	var maxRed, maxDist int
	for i := 0; i < 4000; i++ {
		// Fractional values are all unique raw; 3-digit quantization
		// collapses them onto at most 800 buckets in [1000, 9000).
		v := 1000 + rng.Float64()*8000
		redundant.Observe(v)
		distinct.Observe(v)
		if s := redundant.SpaceUsage(); s > maxRed {
			maxRed = s
		}
		if s := distinct.SpaceUsage(); s > maxDist {
			maxDist = s
		}
	}
	if maxRed*2 >= maxDist {
		t.Fatalf("quantized space %d not well below raw %d", maxRed, maxDist)
	}
}

func TestFewKManagedSelection(t *testing.T) {
	spec := window.Spec{Size: 128000, Period: 16000}
	p := mustNew(t, Config{Spec: spec, Phis: []float64{0.5, 0.9, 0.99, 0.999}, FewK: true})
	if managed := p.sh.managed; !slices.Equal(managed, []int{2, 3}) {
		t.Fatalf("managed indexes = %v, want [2 3] (ϕ 0.99 and 0.999)", managed)
	}
	// Few-k disabled: nothing managed.
	p = mustNew(t, Config{Spec: spec, Phis: []float64{0.999}})
	if len(p.sh.managed) != 0 {
		t.Fatal("few-k disabled but quantiles managed")
	}
}

func TestFewKTopKFixesStatisticalInefficiency(t *testing.T) {
	// Paper Table 2 vs Table 3: with a 1K period and 16K window, Q0.999
	// is decided by ~2 points per sub-window; averaging degrades, top-k
	// merging repairs it.
	spec := window.Spec{Size: 16000, Period: 1000}
	phis := []float64{0.999}
	data := workload.Generate(workload.NewNetMon(5), 64000)
	run := func(fewK bool, fraction float64) float64 {
		p := mustNew(t, Config{Spec: spec, Phis: phis, FewK: fewK, Fraction: fraction})
		evals, _, err := stream.Run(p, spec, data)
		if err != nil {
			t.Fatal(err)
		}
		var acc stats.ErrorAccumulator
		_ = spec.Iter(data, func(idx int, w []float64) {
			want := stats.Quantile(w, 0.999)
			acc.Observe(evals[idx].Estimates[0], want, 0, 0, 0, false)
		})
		return acc.AvgRelErrPct()
	}
	without := run(false, 0.5)
	with := run(true, 0.5)
	if with >= without {
		t.Fatalf("few-k did not improve Q0.999: %.2f%% vs %.2f%% without", with, without)
	}
	if with > 5 {
		t.Fatalf("few-k error %.2f%% above the 5%% target", with)
	}
}

func TestFewKSampleKHandlesBurst(t *testing.T) {
	// Paper Table 4: inject a 10x burst into every (N/P)-th sub-window of
	// the paper's own dimensions (128K window, 16K period); sample-k
	// merging must keep Q0.999 sane while plain averaging collapses.
	// Sample resolution scales with the budget, so the test needs the
	// real window size — at toy sizes k_s is a handful of points against
	// a 10x value cliff (the paper's fraction-0.1 rows show the same
	// degradation).
	spec := window.Spec{Size: 128000, Period: 16000}
	phis := []float64{0.999}
	base := workload.Generate(workload.NewNetMon(6), 384000)
	data := workload.InjectBursts(base, spec.Size, spec.Period, 0.999, 10)
	run := func(fewK bool) float64 {
		p := mustNew(t, Config{Spec: spec, Phis: phis, FewK: fewK, Fraction: 0.5})
		evals, _, err := stream.Run(p, spec, data)
		if err != nil {
			t.Fatal(err)
		}
		var acc stats.ErrorAccumulator
		_ = spec.Iter(data, func(idx int, w []float64) {
			want := stats.Quantile(w, 0.999)
			acc.Observe(evals[idx].Estimates[0], want, 0, 0, 0, false)
		})
		return acc.AvgRelErrPct()
	}
	without := run(false)
	with := run(true)
	if with >= without {
		t.Fatalf("few-k did not improve burst handling: %.2f%% vs %.2f%%", with, without)
	}
	if with > 15 {
		t.Fatalf("few-k burst error %.2f%% too high", with)
	}
}

func TestBurstDetectedFlag(t *testing.T) {
	spec := window.Spec{Size: 16000, Period: 2000}
	base := workload.Generate(workload.NewNetMon(7), 64000)
	data := workload.InjectBursts(base, spec.Size, spec.Period, 0.999, 10)
	p := mustNew(t, Config{Spec: spec, Phis: []float64{0.999}, FewK: true})
	sawBurst := false
	pos := 0
	n := spec.Evaluations(len(data))
	for i := 0; i < n; i++ {
		lo, hi := spec.EvalBounds(i)
		if i > 0 {
			p.Expire(data[lo-spec.Period : lo])
		}
		for ; pos < hi; pos++ {
			p.Observe(data[pos])
		}
		p.Result()
		if p.BurstDetected() {
			sawBurst = true
		}
	}
	if !sawBurst {
		t.Fatal("burst never detected on injected-burst stream")
	}
}

func TestErrorBoundCoversObserved(t *testing.T) {
	// Appendix A: the observed |ya - ye| should fall within the 95% bound
	// for i.i.d. normal data at the median.
	spec := window.Spec{Size: 20000, Period: 2000}
	phis := []float64{0.5}
	data := workload.Generate(workload.NewNormal(8, 1e6, 5e4), 60000)
	p := mustNew(t, Config{Spec: spec, Phis: phis, Digits: -1})
	evals, _, err := stream.Run(p, spec, data)
	if err != nil {
		t.Fatal(err)
	}
	bounds := p.ErrorBounds(0.05)
	if bounds[0] <= 0 {
		t.Fatal("bound not informative")
	}
	misses := 0
	_ = spec.Iter(data, func(idx int, w []float64) {
		want := stats.Quantile(w, 0.5)
		if math.Abs(evals[idx].Estimates[0]-want) > bounds[0] {
			misses++
		}
	})
	n := spec.Evaluations(len(data))
	if misses > n/5 {
		t.Fatalf("bound missed %d/%d evaluations", misses, n)
	}
}

func TestErrorBoundsEmpty(t *testing.T) {
	p := mustNew(t, Config{Spec: window.Spec{Size: 100, Period: 10}, Phis: []float64{0.5}})
	b := p.ErrorBounds(0.05)
	if b[0] != 0 {
		t.Fatalf("empty bounds = %v", b)
	}
}

// TestErrorBoundsPartialSubWindows: the mean of n sub-window quantiles of
// mᵢ values has variance ϕ(1−ϕ)·Σ(1/mᵢ)/(n²f²), so once EndPeriod seals
// short sub-windows (sizes P, P/4, P/2 here) the bound reads the harmonic
// size n²/Σ(1/mᵢ) where full ones read n·P — and with every sub-window
// full it is stats.CLTErrorBound(ϕ, n, P, f, α), bit for bit.
func TestErrorBoundsPartialSubWindows(t *testing.T) {
	const period, alpha = 400, 0.05
	phis := []float64{0.5, 0.9}
	gen := workload.NewNormal(3, 1e6, 5e4)
	z := stats.NormalQuantile(1 - alpha/2)
	for _, sizes := range [][]int{{period, period / 4, period / 2}, {period, period, period}} {
		p := mustNew(t, Config{Spec: window.Spec{Size: 3 * period, Period: period}, Phis: phis, Digits: -1})
		for _, m := range sizes {
			p.ObserveBatch(workload.Generate(gen, m))
			p.EndPeriod() // a no-op after a full sub-window sealed itself
		}
		summaries := p.Snapshot().Parts().Summaries
		if len(summaries) != len(sizes) {
			t.Fatalf("sizes %v: %d resident sub-windows", sizes, len(summaries))
		}
		got := p.ErrorBounds(alpha)
		for i, phi := range phis {
			var fsum, inv float64
			var fn int
			for k := range summaries {
				if summaries[k].Count != sizes[k] {
					t.Fatalf("sub-window %d holds %d values, want %d", k, summaries[k].Count, sizes[k])
				}
				if d := summaries[k].Density(i); d > 0 && !math.IsInf(d, 1) {
					fsum += d
					fn++
				}
				inv += 1 / float64(sizes[k])
			}
			f, n := fsum/float64(fn), float64(len(sizes))
			if sizes[1] == period {
				if want := stats.CLTErrorBound(phi, len(sizes), period, f, alpha); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Errorf("full sub-windows, ϕ=%v: bound %v, want %v", phi, got[i], want)
				}
				continue
			}
			want := 2 * z * math.Sqrt(phi*(1-phi)) * math.Sqrt(inv) / (n * f)
			if math.Abs(got[i]-want) > 1e-12*want {
				t.Errorf("sizes %v, ϕ=%v: bound %v, want %v", sizes, phi, got[i], want)
			}
		}
	}
}

func TestNonIIDAccuracy(t *testing.T) {
	// §5.4 Table 5: AR(1) data keeps competitive accuracy even at high
	// correlation.
	spec := window.Spec{Size: 16000, Period: 2000}
	phis := []float64{0.5, 0.9, 0.99}
	for _, psi := range []float64{0, 0.8} {
		data := workload.Generate(workload.NewAR1(9, 1e6, 5e4, psi), 48000)
		p := mustNew(t, Config{Spec: spec, Phis: phis})
		evals, _, err := stream.Run(p, spec, data)
		if err != nil {
			t.Fatal(err)
		}
		var acc stats.ErrorAccumulator
		_ = spec.Iter(data, func(idx int, w []float64) {
			want := stats.Quantiles(w, phis)
			for j := range phis {
				acc.Observe(evals[idx].Estimates[j], want[j], 0, 0, 0, false)
			}
		})
		if got := acc.AvgRelErrPct(); got > 1 {
			t.Errorf("psi=%v: avg rel err = %.3f%%, want < 1%%", psi, got)
		}
	}
}

func TestTumblingWindowWorks(t *testing.T) {
	spec := window.Spec{Size: 1000, Period: 1000}
	p := mustNew(t, Config{Spec: spec, Phis: []float64{0.5}, Digits: -1})
	data := make([]float64, 3000)
	for i := range data {
		data[i] = float64(i % 1000)
	}
	evals, _, err := stream.Run(p, spec, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 3 {
		t.Fatalf("evals = %d", len(evals))
	}
	for _, e := range evals {
		if e.Estimates[0] != 499 {
			t.Fatalf("tumbling median = %v, want 499", e.Estimates[0])
		}
	}
}

func TestName(t *testing.T) {
	p := mustNew(t, Config{Spec: window.Spec{Size: 100, Period: 10}, Phis: []float64{0.5}})
	if p.Name() != "QLOVE" {
		t.Fatalf("Name = %q", p.Name())
	}
}

// TestSealGenClock pins the seal-generation contract the timed plane and
// delta exports lean on: the clock advances exactly once per sealed
// summary — count-triggered or EndPeriod-forced — never on empty periods,
// never on expiry, and Reset rewinds it to zero. The operator also
// implements the full stream.TimedPolicy surface, which is what lets an
// Engine drive it through wall-clock windows.
func TestSealGenClock(t *testing.T) {
	var _ stream.TimedPolicy = (*Policy)(nil)
	p := mustNew(t, Config{Spec: window.Spec{Size: 8, Period: 4}, Phis: []float64{0.5}})
	if p.SealGen() != 0 {
		t.Fatalf("fresh operator at generation %d", p.SealGen())
	}
	// An empty forced seal is a no-op on the clock.
	p.EndPeriod()
	if p.SealGen() != 0 {
		t.Fatal("empty EndPeriod advanced the seal clock")
	}
	// A partial sub-window force-seals: one generation.
	p.Observe(1)
	p.EndPeriod()
	if p.SealGen() != 1 || p.SubWindowCount() != 1 {
		t.Fatalf("after forced seal: gen=%d resident=%d", p.SealGen(), p.SubWindowCount())
	}
	// A full count period auto-seals: one more generation.
	p.ObserveBatch([]float64{2, 3, 4, 5})
	if p.SealGen() != 2 || p.SubWindowCount() != 2 {
		t.Fatalf("after count seal: gen=%d resident=%d", p.SealGen(), p.SubWindowCount())
	}
	// Expiry shrinks the residency but NEVER the generation clock — the
	// invariant that lets a delta cursor distinguish "new seals to ship"
	// from "window slid" (which only SubWindowCount reflects).
	p.Expire(nil)
	if p.SealGen() != 2 || p.SubWindowCount() != 1 {
		t.Fatalf("after expiry: gen=%d resident=%d", p.SealGen(), p.SubWindowCount())
	}
	p.Reset()
	if p.SealGen() != 0 || p.SubWindowCount() != 0 {
		t.Fatalf("after Reset: gen=%d resident=%d", p.SealGen(), p.SubWindowCount())
	}
}

// TestBurstGateSkipsOnlyUnreachableTests: the seal skips §4.3's burst test
// only where no input can reach its level, and every flag it raises is the
// independent reference test's. At 64/16 with the whole budget, ϕ = 0.95
// retains 4 values a sub-window and 4 against 4 can reach α/3, so a 1000×
// burst is flagged; at 512/128, ϕ = 0.99 retains 3 and 3 against 3 cannot.
func TestBurstGateSkipsOnlyUnreachableTests(t *testing.T) {
	calm := workload.Generate(workload.NewNetMon(3), 6*128)
	for _, tc := range []struct {
		name string
		cfg  Config
		want bool // whether the burst sub-window is flagged
	}{
		{"64/16", Config{Spec: window.Spec{Size: 64, Period: 16}, Phis: []float64{0.95}, FewK: true, Fraction: 1}, true},
		{"512/128", Config{Spec: window.Spec{Size: 512, Period: 128}, Phis: []float64{0.99}, FewK: true}, false},
	} {
		p := mustNew(t, tc.cfg)
		per := tc.cfg.Spec.Period
		alpha := p.Config().BurstAlpha / float64(tc.cfg.Spec.SubWindows()-1)
		for w := 0; w < 6; w++ {
			vs := append([]float64(nil), calm[w*per:(w+1)*per]...)
			if w == 5 {
				for i := range vs {
					vs[i] *= 1000
				}
			}
			p.ObserveBatch(vs) // nothing expires: Level 2 keeps every summary
			if w == 0 {
				continue
			}
			cur, prev := &p.agg.summaries[w], &p.agg.summaries[w-1]
			if got, want := cur.Bursty(0), referenceBursty(cur, prev, 0, alpha); got != want {
				t.Fatalf("%s sub-window %d: flag %v, reference %v", tc.name, w, got, want)
			}
			if w == 5 && cur.Bursty(0) != tc.want {
				t.Fatalf("%s: the burst is flagged %v, want %v (retained %d against %d)", tc.name, cur.Bursty(0), tc.want, len(cur.Tail(0)), len(prev.Tail(0)))
			}
		}
	}
}

func TestEndPeriodPartialSubWindow(t *testing.T) {
	// Time-driven sealing: a partial sub-window still yields a summary
	// and contributes to Level 2.
	spec := window.Spec{Size: 40, Period: 10}
	p := mustNew(t, Config{Spec: spec, Phis: []float64{0.5}, Digits: -1})
	for i := 0; i < 5; i++ {
		p.Observe(float64(i + 1)) // 1..5, median 3
	}
	p.EndPeriod()
	if p.SubWindowCount() != 1 {
		t.Fatalf("summaries = %d, want 1", p.SubWindowCount())
	}
	if got := p.Result()[0]; got != 3 {
		t.Fatalf("partial sub-window median = %v, want 3", got)
	}
	// Empty EndPeriod is a no-op.
	p.EndPeriod()
	if p.SubWindowCount() != 1 {
		t.Fatal("empty EndPeriod produced a summary")
	}
}
