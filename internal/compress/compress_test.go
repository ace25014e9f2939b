package compress

import (
	"math"
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
