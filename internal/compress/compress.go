// Package compress implements QLOVE's value compression (§3.1): zeroing out
// insignificant low-order digits so that values collapse onto a small set
// of recurring numbers. Keeping the three most significant digits bounds
// the quantization relative error below 1% while greatly increasing data
// redundancy. Level 1 applies it to what a sub-window's summary keeps —
// its order statistics and tail — not to every arriving value: the
// quantizer never decreases, so quantizing the k-th smallest raw value
// gives the k-th smallest quantized one.
package compress

import (
	"math"
	"sync"
)

// Quantizer rounds values to a fixed number of significant decimal digits.
// Make one with NewQuantizer; digits <= 0, like the zero value, means
// "identity" (no quantization).
type Quantizer struct {
	digits int
	dec    *decades // nil for the identity
}

// decades holds, for one digit count and each decade i of pow10 but the
// top one (pow10[i] <= mag < pow10[i+1]), the scale its magnitudes round at
// — 10^(digits−1−exponent) — and the ceiling of its outputs: what decade
// i+1 makes of its smallest value, pow10[i+1]. Rounding up at a decade's
// top gains a digit (999.6 -> 1000) and lands on about pow10[i+1], but the
// two decades compute that power with different scales, and at some
// boundaries the lower decade's result is an ulp above the upper's —
// Q(prevfloat(1e24)) = 1.0000000000000001e24 > Q(1e24) = 1e24 at three
// digits. Capping each decade at its ceiling makes Quantize
// non-decreasing, and changes no output but those.
type decades [numDecades - 1]struct{ scale, ceil float64 }

// decadeTables shares one decades table per digit count among all
// quantizers.
var decadeTables sync.Map // digits -> *decades

// NewQuantizer returns a Quantizer keeping the given number of most
// significant decimal digits. The paper uses three.
func NewQuantizer(digits int) Quantizer {
	q := Quantizer{digits: digits}
	if digits <= 0 {
		return q
	}
	if t, ok := decadeTables.Load(digits); ok {
		q.dec = t.(*decades)
		return q
	}
	t := new(decades)
	for i := range t {
		exp := i + minDecade
		if si := (digits - 1) - exp - minDecade; si >= 0 && si < numDecades {
			t[i].scale = pow10[si]
		} else {
			// Digit counts past the table's reach fall back to math.Pow.
			t[i].scale = math.Pow(10, float64(digits-1-exp))
		}
	}
	for i := range t {
		if i+1 == len(t) {
			t[i].ceil = pow10[i+1] // the next magnitude passes through
			continue
		}
		next := t[i+1].scale
		t[i].ceil = math.Round(pow10[i+1]*next) / next
	}
	shared, _ := decadeTables.LoadOrStore(digits, t)
	q.dec = shared.(*decades)
	return q
}

// pow10 holds powers of ten for the fast decade lookup, computed once via
// math.Pow (repeated multiplication would accumulate rounding drift).
var pow10 = func() [numDecades]float64 {
	var t [numDecades]float64
	for i := range t {
		t[i] = math.Pow(10, float64(i+minDecade))
	}
	return t
}()

const (
	numDecades = 161 // 10^-80 .. 10^80
	minDecade  = -80 // exponent of pow10[0]
)

// decadeOf returns the index i such that pow10[i] <= mag < pow10[i+1].
// The decade is derived from the IEEE-754 binary exponent in O(1):
// floor(e2·log10(2)) approximated by the classic (e2·1233)>>12 shift is
// within one of the true decade, and a bounded correction loop (at most
// one step in practice) lands it exactly — no binary search, no Log10 on
// the hot path. mag must be positive and within table range.
func decadeOf(mag float64) int {
	e2 := int((math.Float64bits(mag)>>52)&0x7ff) - 1023
	i := (e2*1233)>>12 - minDecade
	if i < 0 {
		i = 0
	} else if i >= numDecades {
		i = numDecades - 1
	}
	for i+1 < numDecades && pow10[i+1] <= mag {
		i++
	}
	for i > 0 && pow10[i] > mag {
		i--
	}
	return i
}

// quantized reports whether Quantize rounds a value of magnitude mag:
// zero, NaN, infinities and magnitudes outside [1e-80, 1e80) pass through
// unchanged.
func quantized(mag float64) bool {
	return mag >= pow10[0] && mag < pow10[numDecades-1]
}

// round rounds mag to the nearest multiple of 1/scale, capped at ceil.
func round(mag, scale, ceil float64) float64 {
	if out := math.Round(mag*scale) / scale; out < ceil {
		return out
	}
	return ceil
}

// Quantize rounds v to the configured significant digits. Zero, NaN,
// infinities and magnitudes outside [1e-80, 1e80) pass through unchanged;
// negative values quantize by magnitude. It never decreases: a <= b
// implies Quantize(a) <= Quantize(b), so quantizing a sorted run keeps it
// sorted.
func (q Quantizer) Quantize(v float64) float64 {
	mag := math.Abs(v)
	if q.dec == nil || !quantized(mag) {
		return v
	}
	d := &q.dec[decadeOf(mag)]
	return math.Copysign(round(mag, d.scale, d.ceil), v)
}

// AppendQuantized appends Quantize(v) for every v in src to dst and
// returns the extended slice; dst may be src[:0], quantizing src in place.
// Results are bit-identical to per-element Quantize calls; the batch form
// keeps the last decade's bounds, scale and ceiling in registers, so a run
// of values within one order of magnitude — a sorted run, or clustered
// telemetry — finds its decade by two comparisons instead of decadeOf.
func (q Quantizer) AppendQuantized(dst, src []float64) []float64 {
	if q.dec == nil {
		return append(dst, src...)
	}
	// The cached decade spans [lo, hi), inside the quantized range; it
	// starts empty, so the first value — and any NaN — takes the slow path.
	lo, hi := 1.0, 0.0
	var scale, ceil float64
	for _, v := range src {
		mag := math.Abs(v)
		if !(mag >= lo && mag < hi) {
			if !quantized(mag) {
				dst = append(dst, v)
				continue
			}
			i := decadeOf(mag)
			lo, hi = pow10[i], pow10[i+1] // quantized excludes pow10's top entry
			scale, ceil = q.dec[i].scale, q.dec[i].ceil
		}
		dst = append(dst, math.Copysign(round(mag, scale, ceil), v))
	}
	return dst
}

// MaxRelativeError returns the worst-case relative error introduced by the
// quantizer: half a unit in the last kept digit, i.e. 0.5·10^(1-digits).
// Identity quantizers return 0.
func (q Quantizer) MaxRelativeError() float64 {
	if q.digits <= 0 {
		return 0
	}
	return 0.5 * math.Pow(10, float64(1-q.digits))
}

// DropLowDigits zeroes the d lowest decimal digits of v (truncation toward
// zero), used by the §5.4 data-redundancy study to derive low-precision
// datasets (e.g. 100us precision from 1us inputs with d=2).
func DropLowDigits(v float64, d int) float64 {
	if d <= 0 {
		return v
	}
	p := math.Pow(10, float64(d))
	return math.Trunc(v/p) * p
}
