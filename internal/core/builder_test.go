package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/compress"
	"repro/internal/stats"
	"repro/internal/window"
	"repro/internal/workload"
)

// builderPhis are the quantiles the builder tests seal: two Level-2-only
// ones and two few-k-managed ones, so every part of the block is written.
var builderPhis = []float64{0.5, 0.9, 0.99, 0.999}

// fuzzProgram is a byte program for FuzzBuilderSeal. Each op byte's top two
// bits pick the call and its low six bits size it; values follow the op
// byte, one byte each (see value), so runs of one byte are runs of one
// value.
type fuzzProgram []byte

// specials are the values a program names by one byte below 16.
var specials = [16]float64{
	math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
	math.MaxFloat64, -math.MaxFloat64, 1e-300, -1e-300, 1e300, 1, -1, 0.5,
}

// value decodes one value: a special below 16, eight raw little-endian
// bytes after 0xF0 and above, and a multiple of 0.37 (negative too)
// otherwise. ok is false once the program ends.
func (p *fuzzProgram) value() (v float64, ok bool) {
	if len(*p) == 0 {
		return 0, false
	}
	c := (*p)[0]
	*p = (*p)[1:]
	switch {
	case c < 16:
		return specials[c], true
	case c >= 0xF0:
		if len(*p) < 8 {
			return 0, false
		}
		v = math.Float64frombits(binary.LittleEndian.Uint64(*p))
		*p = (*p)[8:]
		return v, true
	default:
		return float64(int(c)-128) * 0.37, true
	}
}

// values decodes up to n values.
func (p *fuzzProgram) values(n int) []float64 {
	var vs []float64
	for len(vs) < n {
		v, ok := p.value()
		if !ok {
			break
		}
		vs = append(vs, v)
	}
	return vs
}

// seedProgram is a program that seals a few full sub-windows of period
// values through every call kind, with a forced partial seal, heavy
// duplicates, −0 before +0, NaN and raw values on the way.
func seedProgram(period int) []byte {
	var p []byte
	val := func(i int) {
		switch i % 11 {
		case 0:
			p = append(p, 1, 2) // −0 then +0
		case 1:
			p = append(p, 0) // NaN
		case 2:
			p = append(p, 0xF0)
			p = binary.LittleEndian.AppendUint64(p, math.Float64bits(float64(i)*1.0001e-3))
		default:
			p = append(p, byte(16+i*7%200))
		}
	}
	for i := 0; i < period+3; i++ { // element-at-a-time past one seal
		p = append(p, 0)
		val(i)
	}
	p = append(p, 2<<6) // force a partial seal
	for left := 2 * period; left > 0; {
		n, op := left, byte(1<<6|(left-1))
		if n > 64 {
			n = min(left, 64*16) / 16 * 16
			op = byte(3<<6 | (n/16 - 1))
		}
		p = append(p, op)
		for i := 0; i < n; i++ {
			val(i * 3)
		}
		left -= n
	}
	return append(p, 2<<6)
}

// partialSeedProgram forces partial seals of a and b values by turns, four
// of each, fed in batches: a plan made for one length and read for the
// other puts the ranks, densities and tail depth of the wrong length in the
// summary.
func partialSeedProgram(a, b int) []byte {
	var p []byte
	for round := 0; round < 4; round++ {
		for _, n := range []int{a, b} {
			for left := n; left > 0; {
				k := min(left, 64)
				p = append(p, byte(1<<6|(k-1)))
				for i := 0; i < k; i++ {
					p = append(p, byte(16+(round*31+n+left*7+i*13)%200))
				}
				left -= k
			}
			p = append(p, 2<<6)
		}
	}
	return p
}

// referenceSeal is Level 1 by full sort: every value quantized (−0 stored
// as +0), the copy sorted with slices.Sort and every rank read by index —
// it shares only plan and assemble with the operator's seal, not the
// selection, and plans afresh on a new workbench every time. Its
// workbench's quantizer is the identity, so assemble reads the values
// quantized here as they are, and the operator's quantized reads of raw
// order statistics must match quantize-then-sort; prev, when
// not nil, is the summary the burst flags compare against, by
// referenceBursty rather than the operator's rank test.
func referenceSeal(p *Policy, values []float64, prev *Summary) Summary {
	cfg := p.Config()
	q := compress.NewQuantizer(cfg.Digits)
	b := newBuilder(p.sh)
	b.quant = compress.NewQuantizer(0)
	for _, v := range values {
		x := q.Quantize(v)
		if x == 0 {
			x = 0
		}
		b.vals = append(b.vals, x)
	}
	slices.Sort(b.vals)
	b.plan()
	s := b.assemble(p.sh.budgets)
	if len(p.sh.managed) > 0 && prev != nil {
		alpha := cfg.BurstAlpha
		if pairs := cfg.Spec.SubWindows() - 1; pairs > 1 {
			alpha /= float64(pairs)
		}
		for mi := range p.sh.managed {
			if referenceBursty(&s, prev, mi, alpha) {
				s.setBursty(mi)
			}
		}
	}
	return s
}

// referenceBursty is §4.3's burst test by the textbook recipe, sharing no
// code with the merge walk the operator ranks by: pool every value cur and
// prev retain for managed quantile mi (the tail, and the samples below
// it), sort the pool ascending, give each run of ties its midrank, and
// compare the tie-corrected one-sided p-value with alpha.
func referenceBursty(cur, prev *Summary, mi int, alpha float64) bool {
	type obs struct {
		v     float64
		fromX bool
	}
	var pool []obs
	nx := 0
	for _, s := range []*Summary{cur, prev} {
		tail := s.Tail(mi)
		for _, v := range tail {
			pool = append(pool, obs{v, s == cur})
		}
		values, _ := s.Samples(mi)
		for _, v := range values {
			if len(tail) == 0 || v < tail[len(tail)-1] {
				pool = append(pool, obs{v, s == cur})
			}
		}
		if s == cur {
			nx = len(pool)
		}
	}
	n := len(pool)
	ny := n - nx
	if nx == 0 || ny == 0 {
		return false
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].v < pool[j].v })
	var rankSumX, tieTerm float64
	for i := 0; i < n; {
		j := i
		for j < n && pool[j].v == pool[i].v {
			j++
		}
		mid := (float64(i+1) + float64(j)) / 2
		for k := i; k < j; k++ {
			if pool[k].fromX {
				rankSumX += mid
			}
		}
		if t := float64(j - i); t > 1 {
			tieTerm += t*t*t - t
		}
		i = j
	}
	u := rankSumX - float64(nx)*float64(nx+1)/2
	mu := float64(nx) * float64(ny) / 2
	nn := float64(n)
	sigma2 := float64(nx) * float64(ny) / 12 * (nn + 1 - tieTerm/(nn*(nn-1)))
	if sigma2 <= 0 {
		return false
	}
	z := (u - mu - 0.5) / math.Sqrt(sigma2)
	return 1-stats.NormalCDF(z) < alpha
}

// sameSummary reports whether two summaries are identical, block bit for
// bit.
func sameSummary(a, b *Summary) bool {
	if a.count != b.count || a.dims != b.dims || len(a.block) != len(b.block) {
		return false
	}
	for i := range a.block {
		if math.Float64bits(a.block[i]) != math.Float64bits(b.block[i]) {
			return false
		}
	}
	return true
}

// nearInvertedBoundaries returns values next to 1e24, 1e-20 and 1e30 —
// powers of ten where a quantizer that rounds each decade alone decreases
// at three digits: the previous float rounds up past what the power itself
// quantizes to. Three floats either side of each, the power, and values
// that round up to it or just miss.
func nearInvertedBoundaries() []float64 {
	var near []float64
	for _, b := range []float64{1e24, 1e-20, 1e30} {
		lo, hi := b, b
		for range 3 {
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
			near = append(near, lo, hi)
		}
		near = append(near, b, b*0.9995, b*0.99951, b*0.99949, b*1.0005)
	}
	return near
}

// boundarySeedProgram feeds three sub-windows and a partial one of
// nearInvertedBoundaries values in both signs, with ±0, ±Inf and NaN mixed
// in (see TestSealAtInvertedBoundaries).
func boundarySeedProgram(period int) []byte {
	near := nearInvertedBoundaries()
	var p []byte
	left, i := 3*period+period/2, 0
	for left > 0 {
		k := min(left, 64)
		p = append(p, byte(1<<6|(k-1)))
		for j := 0; j < k; j++ {
			if i++; i%7 == 0 {
				p = append(p, byte(i/7%5)) // NaN, −0, +0, +Inf, −Inf
				continue
			}
			v := near[i*5%len(near)]
			if i%3 == 0 {
				v = -v
			}
			p = append(p, 0xF0)
			p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
		}
		left -= k
	}
	return append(p, 2<<6)
}

// smallIntSeedProgram feeds two and a half sub-windows of period values
// in batches: whole numbers from lo to hi as raw values, with repeats, a
// +0 and a NaN now and then. Their keys vary in at most three bytes (512–527
// alone in one), so at periods 128 and 1 000 the seal sorts such
// sub-windows outright by radix.
func smallIntSeedProgram(period, lo, hi int) []byte {
	var p []byte
	left, i := 2*period+period/2, 0
	for left > 0 {
		k := min(left, 64)
		p = append(p, byte(1<<6|(k-1)))
		for j := 0; j < k; j++ {
			switch i++; {
			case i%97 == 0:
				p = append(p, 2) // +0
			case i%89 == 0:
				p = append(p, 0) // NaN
			default:
				v := lo + (i*i*7+i*13)%(hi-lo+1)
				if i%5 == 0 {
					v = lo + (i/5)%4 // a few values repeat throughout
				}
				p = append(p, 0xF0)
				p = binary.LittleEndian.AppendUint64(p, math.Float64bits(float64(v)))
			}
		}
		left -= k
	}
	return append(p, 2<<6)
}

// FuzzBuilderSeal drives one operator, with a pool of its own or sharing
// one, with arbitrary values split arbitrarily into Observe and
// ObserveBatch calls and EndPeriod forced at arbitrary partial counts, and
// holds every
// summary it seals — by selection, or sorted outright by radix — to the
// full-sort reference, byte for byte. The window is 16 periods, so the
// high quantiles' tails are deeper than their top-k shares and the seal
// takes interval samples too. Most seeds' values vary in many key bytes
// and take selection; the small-integer seeds take the radix sort.
func FuzzBuilderSeal(f *testing.F) {
	for _, period := range []uint16{1, 2, 3, 4, 16, 128, 255, 256, 257, 1000} {
		f.Add(period, false, seedProgram(int(period)))
		f.Add(period, true, seedProgram(int(period)))
	}
	for _, c := range []struct{ period, a, b int }{{16, 3, 15}, {300, 7, 250}, {1000, 999, 500}} {
		f.Add(uint16(c.period), false, partialSeedProgram(c.a, c.b))
		f.Add(uint16(c.period), true, partialSeedProgram(c.a, c.b))
	}
	for _, period := range []uint16{16, 128} {
		f.Add(period, false, boundarySeedProgram(int(period)))
		f.Add(period, true, boundarySeedProgram(int(period)))
	}
	for _, c := range []struct{ period, lo, hi int }{{128, 0, 999}, {1000, 512, 1023}, {1000, 512, 527}} {
		f.Add(uint16(c.period), false, smallIntSeedProgram(c.period, c.lo, c.hi))
		f.Add(uint16(c.period), true, smallIntSeedProgram(c.period, c.lo, c.hi))
	}
	f.Fuzz(func(t *testing.T, period uint16, pooled bool, program []byte) {
		if period == 0 || period > 1100 {
			t.Skip("period outside 1..1100")
		}
		cfg := Config{Spec: window.Spec{Size: 16 * int(period), Period: int(period)}, Phis: builderPhis, FewK: true}
		var p *Policy
		if pooled {
			pool, err := NewPool(cfg)
			if err != nil {
				t.Skip(err)
			}
			p = pool.Get()
		} else {
			var err error
			if p, err = New(cfg); err != nil {
				t.Skip(err)
			}
		}
		var (
			pending []float64 // the reference's in-flight sub-window
			want    []Summary // the reference's seals not yet matched
			prev    *Summary
		)
		seal := func() {
			s := referenceSeal(p, pending, prev)
			want = append(want, s)
			prev = &want[len(want)-1]
			pending = pending[:0]
		}
		feed := func(vs []float64) {
			for _, v := range vs {
				if math.IsNaN(v) {
					continue
				}
				if pending = append(pending, v); len(pending) == int(period) {
					seal()
				}
			}
		}
		prog := fuzzProgram(program)
		for sealed := uint64(0); len(prog) > 0; {
			op := prog[0]
			prog = prog[1:]
			n := int(op&63) + 1
			switch op >> 6 {
			case 0:
				if v, ok := prog.value(); ok {
					p.Observe(v)
					feed([]float64{v})
				}
			case 1, 3:
				if op>>6 == 3 {
					n *= 16
				}
				vs := prog.values(n)
				p.ObserveBatch(vs)
				feed(vs)
			case 2:
				p.EndPeriod()
				if len(pending) > 0 {
					seal()
				}
			}
			got := p.SealGen() - sealed
			if got != uint64(len(want)) {
				t.Fatalf("operator sealed %d summaries, reference %d", got, len(want))
			}
			summaries := p.agg.summaries[len(p.agg.summaries)-int(got):]
			for i := range summaries {
				if !sameSummary(&summaries[i], &want[i]) {
					t.Fatalf("summary %d of %d values differs from the full-sort reference:\n got %v\nwant %v",
						sealed+uint64(i)+1, want[i].Count(), summaries[i].block, want[i].block)
				}
			}
			sealed += got
			// Keep the last one as the next reference seal's burst baseline.
			if len(want) > 0 {
				last := want[len(want)-1]
				want, prev = want[:0], &last
			}
		}
		if p.inFlight() != len(pending) {
			t.Fatalf("%d values in flight, reference %d", p.inFlight(), len(pending))
		}
	})
}

// TestBuilderOneZero pins the one zero a sub-window answers: −0 and +0
// both stay in the buffer, and whichever arrives first, every read of the
// sub-window answers +0 — sealed by one network leaf, which puts −0 first,
// or by partitioning alike — and the summary is the full-sort reference's,
// byte for byte. It is TestSelectSealAdversarial's ±0 row; the radix sort's
// is TestRadixSortRefusesAndSorts.
func TestBuilderOneZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, period := range []int{16, 300} {
		for _, negFirst := range []bool{true, false} {
			for _, batch := range []bool{false, true} {
				p := mustNew(t, Config{Spec: window.Spec{Size: 2 * period, Period: period}, Phis: builderPhis, FewK: true})
				vs := make([]float64, period)
				for i := range vs {
					if (i%2 == 0) == negFirst {
						vs[i] = negZero
					}
				}
				if batch {
					p.ObserveBatch(vs)
				} else {
					for _, v := range vs {
						p.Observe(v)
					}
				}
				if p.SubWindowCount() != 1 {
					t.Fatalf("period %d: %d summaries sealed, want 1", period, p.SubWindowCount())
				}
				s := &p.agg.summaries[0]
				if want := referenceSeal(p, vs, nil); !sameSummary(s, &want) {
					t.Errorf("period %d, −0 first %v, batch %v: summary differs from the full-sort reference:\n got %v\nwant %v",
						period, negFirst, batch, s.block, want.block)
				}
				for i := range builderPhis {
					if q := s.Quantile(i); math.Float64bits(q) != 0 {
						t.Errorf("period %d, −0 first %v, batch %v: quantile %d = %v (bits %#x), want +0",
							period, negFirst, batch, i, q, math.Float64bits(q))
					}
				}
				for mi := 0; mi < s.Managed(); mi++ {
					values, _ := s.Samples(mi)
					for _, v := range append(s.Tail(mi), values...) {
						if math.Float64bits(v) != 0 {
							t.Errorf("period %d, −0 first %v, batch %v: cached value %v, want +0", period, negFirst, batch, v)
						}
					}
				}
			}
		}
	}
}

// TestSelectSealAdversarial seals the inputs that defeat a naive
// quickselect — all equal, sorted either way, organ pipe, two alternating
// values — unquantized, through an operator with a pool of its own and
// one sharing a pool, over a window of 16 periods (so the seal takes interval samples), and holds
// each summary to the full-sort reference, byte for byte. ±0 mixed is
// TestBuilderOneZero.
func TestSelectSealAdversarial(t *testing.T) {
	inputs := map[string]func(i, n int) float64{
		"all-equal":   func(i, n int) float64 { return 7 },
		"ascending":   func(i, n int) float64 { return float64(i) },
		"descending":  func(i, n int) float64 { return float64(n - i) },
		"organ-pipe":  func(i, n int) float64 { return float64(min(i, n-1-i)) },
		"alternating": func(i, n int) float64 { return float64(i % 2) },
	}
	for _, period := range []int{256, 16_000} {
		for name, gen := range inputs {
			for _, pooled := range []bool{false, true} {
				t.Run(fmt.Sprintf("%d/%s/pooled=%v", period, name, pooled), func(t *testing.T) {
					cfg := Config{Spec: window.Spec{Size: 16 * period, Period: period}, Phis: builderPhis, FewK: true, Digits: -1}
					p := mustNew(t, cfg)
					if pooled {
						pool, err := NewPool(cfg)
						if err != nil {
							t.Fatal(err)
						}
						p = pool.Get()
					}
					vs := make([]float64, period)
					for i := range vs {
						vs[i] = gen(i, period)
					}
					p.ObserveBatch(vs)
					if p.SubWindowCount() != 1 {
						t.Fatalf("%d summaries sealed, want 1", p.SubWindowCount())
					}
					if want := referenceSeal(p, vs, nil); !sameSummary(&p.agg.summaries[0], &want) {
						t.Fatalf("summary differs from the full-sort reference:\n got %v\nwant %v", p.agg.summaries[0].block, want.block)
					}
				})
			}
		}
	}
}

// TestSealAtInvertedBoundaries seals sub-windows of
// nearInvertedBoundaries values with ±0, ±Inf and NaN mixed in, both
// signs, at 512/128 and 64/16 with few-k on, on an unshared and a shared
// pool. The seal quantizes only the order statistics it reads, which equals
// quantizing every value and sorting only where the quantizer never
// decreases: every summary must equal referenceSeal's, block bit for bit.
func TestSealAtInvertedBoundaries(t *testing.T) {
	near := nearInvertedBoundaries()
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(43))
	for _, spec := range []window.Spec{{Size: 512, Period: 128}, {Size: 64, Period: 16}} {
		for _, pooled := range []bool{false, true} {
			t.Run(fmt.Sprintf("%d-%d/pooled=%v", spec.Size, spec.Period, pooled), func(t *testing.T) {
				cfg := Config{Spec: spec, Phis: builderPhis, FewK: true}
				p := mustNew(t, cfg)
				if pooled {
					pool, err := NewPool(cfg)
					if err != nil {
						t.Fatal(err)
					}
					p = pool.Get()
				}
				var prev *Summary
				for sw := 0; sw < 24; sw++ {
					vs := make([]float64, spec.Period)
					for i := range vs {
						switch v := near[rng.Intn(len(near))]; {
						case rng.Intn(8) == 0:
							vs[i] = specials[rng.Intn(len(specials))]
						case sw%3 == 2 && rng.Intn(2) == 0:
							vs[i] = -v
						default:
							vs[i] = v
						}
					}
					p.ObserveBatch(vs) // the NaNs leave the sub-window short
					p.EndPeriod()
					kept := slices.DeleteFunc(slices.Clone(vs), math.IsNaN)
					got := &p.agg.summaries[p.agg.count()-1]
					if want := referenceSeal(p, kept, prev); !sameSummary(got, &want) {
						t.Fatalf("sub-window %d differs from quantize-then-sort:\n got %v\nwant %v", sw, got.block, want.block)
					}
					last := *got
					prev = &last
				}
			})
		}
	}
}

// TestSealQuantilesAreQuantizedOrderStatistics is §3.1 as an assertion:
// on seeded NetMon and Search data, every sealed sub-window's ϕ-quantile is
// Quantize of the exact raw order statistic at ϕ's rank, and lies within
// the quantizer's relative error of it (below 1% at three digits).
func TestSealQuantilesAreQuantizedOrderStatistics(t *testing.T) {
	for _, c := range []struct {
		name string
		gen  workload.Generator
	}{{"netmon", workload.NewNetMon(31)}, {"search", workload.NewSearch(31)}} {
		for _, spec := range []window.Spec{{Size: 512, Period: 128}, {Size: 64, Period: 16}, {Size: 16_000, Period: 1000}} {
			p := mustNew(t, Config{Spec: spec, Phis: builderPhis, FewK: true})
			q := compress.NewQuantizer(p.Config().Digits)
			bound := q.MaxRelativeError()
			if bound <= 0 || bound >= 0.01 {
				t.Fatalf("three digits bound the relative error by %v, want (0, 1%%)", bound)
			}
			for sw := 0; sw < 40; sw++ {
				vs := workload.Generate(c.gen, spec.Period)
				p.ObserveBatch(vs)
				s := &p.agg.summaries[p.agg.count()-1]
				sorted := slices.Sorted(slices.Values(vs))
				for i, phi := range builderPhis {
					raw := sorted[stats.CeilRank(phi, len(sorted))-1]
					got := s.Quantile(i)
					if want := q.Quantize(raw); got != want {
						t.Fatalf("%s %d-%d sub-window %d: ϕ=%v quantile %v, want Quantize(%v) = %v",
							c.name, spec.Size, spec.Period, sw, phi, got, raw, want)
					}
					if rel := math.Abs(got-raw) / math.Abs(raw); rel > bound {
						t.Fatalf("%s %d-%d sub-window %d: ϕ=%v quantile %v is %.3g off the raw %v, above %v",
							c.name, spec.Size, spec.Period, sw, phi, got, rel, raw, bound)
					}
				}
			}
		}
	}
}

// TestMultiSelectDepthFallback: a segment that has used up its depth
// budget is sorted outright, so at budget 0 the whole buffer comes back
// sorted whatever was requested.
func TestMultiSelectDepthFallback(t *testing.T) {
	const n = 1000
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(min(i, n-1-i)) // organ pipe
	}
	want := slices.Sorted(slices.Values(v))
	multiSelect(v, 0, []rankReq{{rank: n / 2}}, n, 0)
	if !slices.Equal(v, want) {
		t.Fatalf("multiSelect at depth 0 left the buffer unsorted: %v", v)
	}
}

// TestSpaceUsageLeavesBufferInPlace: mid-period, SpaceUsage counts the
// distinct quantized values in flight plus the resident summaries, and
// asking leaves the buffer of raw values as it was — stream.Run asks every
// period.
func TestSpaceUsageLeavesBufferInPlace(t *testing.T) {
	const period = 128
	p := mustNew(t, Config{Spec: window.Spec{Size: 4 * period, Period: period}, Phis: builderPhis, FewK: true})
	q := compress.NewQuantizer(p.Config().Digits)
	v := func(i int) float64 { return float64(i%37)*1.0007 + float64(i%5)*1e-4 }
	for i := 0; i < 2*period; i++ {
		p.Observe(v(i))
	}
	distinct := map[float64]bool{}
	var arrived []float64
	for i := 0; i < 100; i++ {
		p.Observe(v(i * 3))
		arrived = append(arrived, v(i*3))
		distinct[q.Quantize(v(i*3))] = true
		if got, want := p.SpaceUsage(), len(distinct)+p.agg.spaceUsage(); got != want {
			t.Fatalf("after %d values in flight: SpaceUsage = %d, want %d distinct + %d summary slots",
				i+1, got, len(distinct), p.agg.spaceUsage())
		}
	}
	if !slices.Equal(p.builder.vals, arrived) {
		t.Fatalf("buffer after SpaceUsage = %v, want the values in arrival order %v", p.builder.vals, arrived)
	}
}

// BenchmarkLevel1Seal times the seal kernel alone — plan, order and
// assemble — on workbenches lent by a Pool, at the engine benchmarks'
// shapes 512/128 and 64/16 with few-k on: each iteration borrows a
// workbench, fills it with the next period of raw values, seals it
// (quantizing what the summary reads) and hands it back. One op is one
// seal. The unnamed rows seal NetMon, whose keys vary in three bytes, so
// 512/128 sorts outright; the search and normal rows (four and seven
// varying bytes) price the selection the cost check keeps for them.
func BenchmarkLevel1Seal(b *testing.B) {
	for _, in := range []struct {
		name string
		gen  workload.Generator
	}{{"", workload.NewNetMon(1)}, {"-search", workload.NewSearch(1)}, {"-normal", workload.NewNormal(1, 1e6, 5e4)}} {
		data := workload.Generate(in.gen, 1<<16)
		for _, spec := range []window.Spec{{Size: 512, Period: 128}, {Size: 64, Period: 16}} {
			b.Run(fmt.Sprintf("%d-%d%s", spec.Size, spec.Period, in.name), func(b *testing.B) {
				pool, err := NewPool(Config{Spec: spec, Phis: builderPhis, FewK: true})
				if err != nil {
					b.Fatal(err)
				}
				p := pool.Get()
				wb := pool.lend()
				wb.addBatch(data)
				raw := slices.Clone(wb.vals)
				pool.takeBack(wb)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					off := i * spec.Period % (len(raw) - spec.Period)
					wb := pool.lend()
					wb.vals = append(wb.vals, raw[off:off+spec.Period]...)
					wb.seal(p.sh.budgets, &pool.scratch)
					pool.takeBack(wb)
				}
			})
		}
	}
}
