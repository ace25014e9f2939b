package compress

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestQuantizeThreeDigits(t *testing.T) {
	q := NewQuantizer(3)
	cases := []struct{ in, want float64 }{
		{1247, 1250},
		{798, 798},
		{74265, 74300},
		{1874, 1870},
		{0.0012345, 0.00123},
		{999.6, 1000},
		{1, 1},
		{0, 0},
		{-1247, -1250},
		{123456789, 123000000},
	}
	for _, c := range cases {
		if got := q.Quantize(c.in); math.Abs(got-c.want) > math.Abs(c.want)*1e-12 {
			t.Errorf("Quantize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestQuantizeIdentity(t *testing.T) {
	q := NewQuantizer(0)
	for _, v := range []float64{1247.89, -3.5, 0} {
		if got := q.Quantize(v); got != v {
			t.Errorf("identity Quantize(%v) = %v", v, got)
		}
	}
	if q.MaxRelativeError() != 0 {
		t.Fatal("identity quantizer should report 0 max error")
	}
}

func TestQuantizeSpecials(t *testing.T) {
	q := NewQuantizer(3)
	if !math.IsNaN(q.Quantize(math.NaN())) {
		t.Fatal("NaN should pass through")
	}
	if !math.IsInf(q.Quantize(math.Inf(1)), 1) {
		t.Fatal("+Inf should pass through")
	}
	if !math.IsInf(q.Quantize(math.Inf(-1)), -1) {
		t.Fatal("-Inf should pass through")
	}
}

func TestMaxRelativeError(t *testing.T) {
	if got := NewQuantizer(3).MaxRelativeError(); math.Abs(got-0.005) > 1e-15 {
		t.Fatalf("MaxRelativeError(3) = %v, want 0.005", got)
	}
	if got := NewQuantizer(1).MaxRelativeError(); math.Abs(got-0.5) > 1e-15 {
		t.Fatalf("MaxRelativeError(1) = %v, want 0.5", got)
	}
}

// Property from the paper: 3 significant digits keeps relative error < 1%.
func TestQuickQuantizeErrorBound(t *testing.T) {
	q := NewQuantizer(3)
	f := func(mantissa uint32, expSeed int8) bool {
		exp := float64(expSeed % 12)
		v := (1 + float64(mantissa)/float64(math.MaxUint32)*9) * math.Pow(10, exp)
		got := q.Quantize(v)
		rel := math.Abs(got-v) / v
		return rel <= q.MaxRelativeError()+1e-12 && rel < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantization is idempotent.
func TestQuickQuantizeIdempotent(t *testing.T) {
	q := NewQuantizer(3)
	f := func(raw uint32) bool {
		v := float64(raw%10_000_000) + 1
		once := q.Quantize(v)
		return q.Quantize(once) == once
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantization is monotone (order preserving).
func TestQuickQuantizeMonotone(t *testing.T) {
	q := NewQuantizer(3)
	f := func(a, b uint32) bool {
		x, y := float64(a%1_000_000)+1, float64(b%1_000_000)+1
		if x > y {
			x, y = y, x
		}
		return q.Quantize(x) <= q.Quantize(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuantizeMonotoneAtEveryDecade probes where Quantize can decrease:
// both sides of every power of ten in the decade table — the boundaries
// where one decade's rounded-up top meets the next decade's bottom, among
// them the pass-through edges 1e-80 and 1e80 — and the values that round
// up to them, in both signs, at every digit count from 1 to 17. Sorted
// ascending, the probes must quantize to a non-decreasing run, and
// AppendQuantized over the run must equal Quantize element by element.
func TestQuantizeMonotoneAtEveryDecade(t *testing.T) {
	probes := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	for _, b := range pow10 {
		lo, hi := math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1))
		probes = append(probes, math.Nextafter(lo, 0), lo, b, hi, math.Nextafter(hi, math.Inf(1)), b*0.99999, b*0.9996, b*0.996, b*0.96)
	}
	for _, v := range probes[4:] {
		probes = append(probes, -v)
	}
	slices.Sort(probes)
	for digits := 1; digits <= 17; digits++ {
		q := NewQuantizer(digits)
		got := q.AppendQuantized(nil, probes)
		for i, v := range probes {
			if want := q.Quantize(v); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Errorf("digits %d: AppendQuantized gives %v for %v, Quantize %v", digits, got[i], v, want)
			}
			if i > 0 && got[i] < got[i-1] {
				t.Errorf("digits %d: Quantize(%v) = %v > Quantize(%v) = %v", digits, probes[i-1], got[i-1], v, got[i])
			}
		}
	}
}

// FuzzQuantizeMonotone: for every digit count from 1 to 17 and any three
// values, a <= b implies Quantize(a) <= Quantize(b), and AppendQuantized
// over the three in the given order — which moves its decade cache
// between them — equals Quantize element by element, bit for bit.
func FuzzQuantizeMonotone(f *testing.F) {
	below := func(v float64) float64 { return math.Nextafter(v, 0) }
	for _, c := range []struct {
		digits  uint8
		a, b, c float64
	}{
		{3, below(1e24), 1e24, 1e-20},
		{3, below(1e-20), 1e-20, -1e24},
		{3, below(1e30), 1e30, 0},
		{1, 99_999, 100_000, 1e5},
		{3, below(1e80), 1e80, 1e-81},
		{3, below(1e-80), 1e-80, math.Inf(-1)},
		{17, 1247.89, -0.5, math.Copysign(0, -1)},
	} {
		f.Add(c.digits, c.a, c.b, c.c)
	}
	f.Fuzz(func(t *testing.T, digits uint8, a, b, c float64) {
		q := NewQuantizer(1 + int(digits-1)%17)
		vs := []float64{a, b, c}
		got := q.AppendQuantized(nil, vs)
		for i, v := range vs {
			if want := q.Quantize(v); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%d digits: AppendQuantized(%v) = %v at %v, Quantize gives %v", q.digits, vs, got[i], v, want)
			}
			for j, w := range vs {
				if v <= w && got[i] > got[j] {
					t.Fatalf("%d digits: %v <= %v but Quantize gives %v > %v", q.digits, v, w, got[i], got[j])
				}
			}
		}
	})
}

func TestDropLowDigits(t *testing.T) {
	cases := []struct {
		v    float64
		d    int
		want float64
	}{
		{1247, 2, 1200},
		{1299, 2, 1200},
		{74265, 2, 74200},
		{99, 2, 0},
		{1247, 0, 1247},
		{-1247, 2, -1200},
	}
	for _, c := range cases {
		if got := DropLowDigits(c.v, c.d); got != c.want {
			t.Errorf("DropLowDigits(%v, %d) = %v, want %v", c.v, c.d, got, c.want)
		}
	}
}
