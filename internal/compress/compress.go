// Package compress implements QLOVE's value compression (§3.1): zeroing out
// insignificant low-order digits so that streamed values collapse onto a
// small set of recurring numbers. Keeping the three most significant
// digits bounds the quantization relative error below 1% while greatly
// increasing data redundancy, which shrinks the red-black-tree state and,
// per the paper, lowers space usage by ~5x.
package compress

import "math"

// Quantizer rounds values to a fixed number of significant decimal digits.
// The zero value is invalid; use NewQuantizer. Digits <= 0 means "identity"
// (no quantization).
type Quantizer struct {
	digits int
}

// NewQuantizer returns a Quantizer keeping the given number of most
// significant decimal digits. The paper uses three.
func NewQuantizer(digits int) Quantizer { return Quantizer{digits: digits} }

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
// the hot insert path. mag must be positive and within table range.
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

// Quantize rounds v to the configured significant digits. Zero, NaN,
// infinities and magnitudes outside [1e-80, 1e80] pass through unchanged;
// negative values quantize by magnitude.
func (q Quantizer) Quantize(v float64) float64 {
	if q.digits <= 0 || v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	mag := math.Abs(v)
	if mag < pow10[0] || mag >= pow10[numDecades-1] {
		return v
	}
	exp := decadeOf(mag) + minDecade
	scaleIdx := (q.digits - 1) - exp - minDecade
	var out float64
	if scaleIdx >= 0 && scaleIdx < numDecades {
		scale := pow10[scaleIdx]
		out = math.Round(mag*scale) / scale
	} else {
		// Degenerate digit counts fall back to the slow path.
		scale := math.Pow(10, float64(q.digits-1-exp))
		out = math.Round(mag*scale) / scale
	}
	// Rounding up can gain a digit (999.6 -> 1000); that is still exactly
	// representable at this precision, so no correction is needed.
	if v < 0 {
		return -out
	}
	return out
}

// AppendQuantized appends Quantize(v) for every v in src to dst and
// returns the extended slice. Results are bit-identical to per-element
// Quantize calls; the batch form exists for the ingestion hot path, where
// it caches the last decade hit. Telemetry values cluster heavily within
// one order of magnitude, so most elements skip the binary search over the
// power-of-ten table and reuse the previous element's scale directly.
func (q Quantizer) AppendQuantized(dst, src []float64) []float64 {
	if q.digits <= 0 {
		return append(dst, src...)
	}
	ci := -1 // cached decade index; pow10[ci] <= previous mag < pow10[ci+1]
	var scale float64
	for _, v := range src {
		if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			dst = append(dst, v)
			continue
		}
		mag := math.Abs(v)
		if mag < pow10[0] || mag >= pow10[numDecades-1] {
			dst = append(dst, v)
			continue
		}
		if ci < 0 || mag < pow10[ci] || mag >= pow10[ci+1] {
			// The range guard above excludes the top decade, so ci+1 is
			// always a valid table index.
			ci = decadeOf(mag)
			exp := ci + minDecade
			scaleIdx := (q.digits - 1) - exp - minDecade
			if scaleIdx >= 0 && scaleIdx < numDecades {
				scale = pow10[scaleIdx]
			} else {
				// Degenerate digit counts fall back to the slow path.
				scale = math.Pow(10, float64(q.digits-1-exp))
			}
		}
		out := math.Round(mag*scale) / scale
		if v < 0 {
			out = -out
		}
		dst = append(dst, out)
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
