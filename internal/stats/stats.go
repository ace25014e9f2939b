// Package stats provides the statistical machinery QLOVE depends on: exact
// quantiles of finite samples, the normal distribution (for the Appendix A
// CLT error bound), the Mann–Whitney U test used by §4.3's bursty-traffic
// detector, and the accuracy metrics of §5.1 (average relative value error
// and average rank error).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// ValidatePhis checks that quantile targets are sorted in non-decreasing
// order and lie in (0, 1].
func ValidatePhis(phis []float64) error {
	if len(phis) == 0 {
		return fmt.Errorf("no quantiles specified")
	}
	prev := 0.0
	for _, phi := range phis {
		if phi <= 0 || phi > 1 {
			return fmt.Errorf("quantile %v outside (0, 1]", phi)
		}
		if phi < prev {
			return fmt.Errorf("quantiles not sorted at %v", phi)
		}
		prev = phi
	}
	return nil
}

// CeilRank returns the 1-based rank ceil(phi*n) clamped to [1, n], the
// paper's quantile definition. It panics when n == 0.
func CeilRank(phi float64, n int) int {
	if n <= 0 {
		panic("stats: CeilRank with n <= 0")
	}
	r := int(math.Ceil(phi * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Quantile returns the exact ϕ-quantile of data, defined as the element at
// rank ceil(ϕ·len) of the sorted sample. The input is not modified. It
// panics on empty data.
func Quantile(data []float64, phi float64) float64 {
	if len(data) == 0 {
		panic("stats: Quantile of empty data")
	}
	s := append([]float64(nil), data...)
	sort.Float64s(s)
	return s[CeilRank(phi, len(s))-1]
}

// QuantileSorted returns the ϕ-quantile of already-sorted data without
// copying. It panics on empty data.
func QuantileSorted(sorted []float64, phi float64) float64 {
	if len(sorted) == 0 {
		panic("stats: QuantileSorted of empty data")
	}
	return sorted[CeilRank(phi, len(sorted))-1]
}

// Quantiles returns the exact ϕ-quantiles for each phi. One sort is shared
// across all queries.
func Quantiles(data []float64, phis []float64) []float64 {
	if len(data) == 0 {
		panic("stats: Quantiles of empty data")
	}
	s := append([]float64(nil), data...)
	sort.Float64s(s)
	out := make([]float64, len(phis))
	for i, phi := range phis {
		out[i] = s[CeilRank(phi, len(s))-1]
	}
	return out
}

// Mean returns the arithmetic mean. It panics on empty data.
func Mean(data []float64) float64 {
	if len(data) == 0 {
		panic("stats: Mean of empty data")
	}
	var sum float64
	for _, v := range data {
		sum += v
	}
	return sum / float64(len(data))
}

// Variance returns the unbiased sample variance (n-1 denominator). It
// returns 0 for samples of size < 2.
func Variance(data []float64) float64 {
	if len(data) < 2 {
		return 0
	}
	m := Mean(data)
	var ss float64
	for _, v := range data {
		d := v - m
		ss += d * d
	}
	return ss / float64(len(data)-1)
}

// StdDev returns the sample standard deviation.
func StdDev(data []float64) float64 { return math.Sqrt(Variance(data)) }

// RelativeError returns |est-exact|/|exact|. When exact is zero it returns
// 0 if est is also zero and +Inf otherwise.
func RelativeError(est, exact float64) float64 {
	if exact == 0 {
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(est-exact) / math.Abs(exact)
}

// NormalCDF returns Φ(x), the standard normal cumulative distribution.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalQuantile returns Φ⁻¹(p) for p in (0, 1), the inverse of NormalCDF.
// It uses the Acklam rational approximation refined by one Halley step,
// giving ~1e-15 absolute accuracy. It panics for p outside (0,1).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: NormalQuantile requires 0 < p < 1")
	}
	// Acklam's algorithm.
	const (
		a1 = -3.969683028665376e+01
		a2 = 2.209460984245205e+02
		a3 = -2.759285104469687e+02
		a4 = 1.383577518672690e+02
		a5 = -3.066479806614716e+01
		a6 = 2.506628277459239e+00

		b1 = -5.447609879822406e+01
		b2 = 1.615858368580409e+02
		b3 = -1.556989798598866e+02
		b4 = 6.680131188771972e+01
		b5 = -1.328068155288572e+01

		c1 = -7.784894002430293e-03
		c2 = -3.223964580411365e-01
		c3 = -2.400758277161838e+00
		c4 = -2.549732539343734e+00
		c5 = 4.374664141464968e+00
		c6 = 2.938163982698783e+00

		d1 = 7.784695709041462e-03
		d2 = 3.224671290700398e-01
		d3 = 2.445134137142996e+00
		d4 = 3.754408661907416e+00

		plow  = 0.02425
		phigh = 1 - plow
	)
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	case p <= phigh:
		q := p - 0.5
		r := q * q
		x = (((((a1*r+a2)*r+a3)*r+a4)*r+a5)*r + a6) * q /
			(((((b1*r+b2)*r+b3)*r+b4)*r+b5)*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	}
	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// DensityAt estimates the probability density of the sample's underlying
// distribution at its ϕ-quantile using a finite-difference of the empirical
// quantile function: f(p_ϕ) ≈ 2h / (Q(ϕ+h) − Q(ϕ−h)). It is used to
// instantiate the Appendix A error bound. The bandwidth h adapts to the
// sample size. Returns +Inf when the local quantile spread is zero (point
// mass), and panics on empty data.
func DensityAt(data []float64, phi float64) float64 {
	if len(data) == 0 {
		panic("stats: DensityAt of empty data")
	}
	s := append([]float64(nil), data...)
	sort.Float64s(s)
	n := len(s)
	// Bandwidth ~ n^(-1/3) balances bias and variance of the finite
	// difference, clamped so both evaluation points stay inside (0, 1].
	h := math.Pow(float64(n), -1.0/3.0)
	if edge := 0.5 * math.Min(phi, 1-phi); edge > 0 && h > edge {
		h = edge
	}
	if h < 1.0/float64(n) {
		h = 1.0 / float64(n)
	}
	lo := math.Max(phi-h, 1.0/float64(n))
	hi := math.Min(phi+h, 1)
	qlo := s[CeilRank(lo, n)-1]
	qhi := s[CeilRank(hi, n)-1]
	if qhi <= qlo {
		return math.Inf(1)
	}
	return (hi - lo) / (qhi - qlo)
}

// CLTErrorBound computes the Appendix A bound on |ya − ye| at confidence
// 1−alpha for n sub-windows of m elements each, for the ϕ-quantile of a
// distribution with density fPhi at that quantile:
//
//	2·Φ⁻¹(1−α/2)·√(ϕ(1−ϕ)) / (√(n·m)·f(p_ϕ))
//
// It returns 0 when fPhi is +Inf (point mass: the estimate is exact).
func CLTErrorBound(phi float64, n, m int, fPhi, alpha float64) float64 {
	if n <= 0 || m <= 0 {
		panic("stats: CLTErrorBound requires positive n, m")
	}
	if math.IsInf(fPhi, 1) {
		return 0
	}
	z := NormalQuantile(1 - alpha/2)
	return 2 * z * math.Sqrt(phi*(1-phi)) / (math.Sqrt(float64(n)*float64(m)) * fPhi)
}
