// Package workload provides the data sources of the paper's evaluation
// (§5.1, §5.4). The proprietary NetMon and Search datasets are replaced by
// calibrated synthetic surrogates (NetMon and Search below give their
// anchors; README "Quick start" names cmd/qlove-gen, which writes them); the
// Normal, Uniform, Pareto and AR(1) datasets follow the paper's published
// parameters exactly. All generators are deterministic given a seed.
package workload

import (
	"math"
	"math/rand"
)

// Generator produces an endless stream of telemetry values.
type Generator interface {
	// Next returns the next value of the stream.
	Next() float64
}

// Generate draws n values from g into a fresh slice.
func Generate(g Generator, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Func adapts a closure to the Generator interface.
type Func func() float64

// Next implements Generator.
func (f Func) Next() float64 { return f() }

// --- NetMon surrogate ---

// NetMon models datacenter RTT telemetry in microseconds, calibrated to the
// paper's published anchors: median ≈ 798us, >90% below 1,247us, Q0.99 ≈
// 1,874us, and a heavy Pareto tail reaching ≈ 74,265us. The body is
// lognormal (self-similar, highly redundant after rounding to integer
// microseconds); a small mixture weight lands in the tail.
type NetMon struct {
	rng *rand.Rand
}

// NewNetMon returns a NetMon generator seeded deterministically.
func NewNetMon(seed int64) *NetMon {
	return &NetMon{rng: rand.New(rand.NewSource(seed))}
}

// NetMon calibration constants.
const (
	netmonMedian   = 798.0   // us, paper §1
	netmonSigma    = 0.35    // lognormal shape matching P90 ≈ 1,247us
	netmonTailProb = 0.004   // mixture weight of the heavy tail
	netmonTailMin  = 1900.0  // tail onset just above Q0.99
	netmonTailAlph = 1.05    // Pareto shape: very heavy tail
	netmonTailCap  = 74265.0 // paper's observed maximum
)

// Next implements Generator.
func (g *NetMon) Next() float64 {
	if g.rng.Float64() < netmonTailProb {
		// Pareto tail capped at the paper's observed max.
		u := g.rng.Float64()
		v := netmonTailMin * math.Pow(1-u, -1/netmonTailAlph)
		if v > netmonTailCap {
			v = netmonTailCap
		}
		return math.Round(v)
	}
	v := netmonMedian * math.Exp(netmonSigma*g.rng.NormFloat64())
	if v < 1 {
		v = 1
	}
	return math.Round(v)
}

// --- Search surrogate ---

// Search models index-serving-node query response times in microseconds.
// Per the paper's footnote, the ISN enforces a response-time SLA (200ms):
// queries cut off by the SLA concentrate probability mass near the cap, so
// the tail of the distribution is *dense* — which is why the paper reports
// <1% value error on Search even for Q0.999.
type Search struct {
	rng *rand.Rand
}

// NewSearch returns a Search generator seeded deterministically.
func NewSearch(seed int64) *Search {
	return &Search{rng: rand.New(rand.NewSource(seed))}
}

const (
	searchMedian = 20000.0  // 20ms typical response
	searchSigma  = 0.9      // wide lognormal body
	searchSLA    = 200000.0 // 200ms SLA cap
)

// Next implements Generator.
func (g *Search) Next() float64 {
	v := searchMedian * math.Exp(searchSigma*g.rng.NormFloat64())
	if v >= searchSLA {
		// SLA termination: report the cap with small scheduler jitter so
		// the spike is dense but not a single point mass.
		v = searchSLA - math.Abs(g.rng.NormFloat64())*500
	}
	if v < 100 {
		v = 100
	}
	return math.Round(v)
}

// --- Synthetic distributions with the paper's exact parameters ---

// Normal generates N(mean, stddev²) values (§5.2 scalability: mean 1e6,
// stddev 5e4).
type Normal struct {
	rng          *rand.Rand
	mean, stddev float64
}

// NewNormal returns a normal generator.
func NewNormal(seed int64, mean, stddev float64) *Normal {
	return &Normal{rng: rand.New(rand.NewSource(seed)), mean: mean, stddev: stddev}
}

// Next implements Generator.
func (g *Normal) Next() float64 { return g.mean + g.stddev*g.rng.NormFloat64() }

// Uniform generates values uniform in [lo, hi) (§5.2 scalability: 90–110).
type Uniform struct {
	rng    *rand.Rand
	lo, hi float64
}

// NewUniform returns a uniform generator.
func NewUniform(seed int64, lo, hi float64) *Uniform {
	if hi < lo {
		lo, hi = hi, lo
	}
	return &Uniform{rng: rand.New(rand.NewSource(seed)), lo: lo, hi: hi}
}

// Next implements Generator.
func (g *Uniform) Next() float64 { return g.lo + (g.hi-g.lo)*g.rng.Float64() }

// Pareto generates integer values from a Pareto distribution. The §5.4
// skewness study uses Q0.5 = 20 and Q0.999 = 10,000, which pins the shape
// to α = ln(500)/ln(500) = 1 and the scale to xm = 10; the observed
// maximum over 10M draws is then ≈ 1.1 billion, matching the paper.
type Pareto struct {
	rng       *rand.Rand
	xm, alpha float64
}

// NewPareto returns a Pareto generator with scale xm and shape alpha.
func NewPareto(seed int64, xm, alpha float64) *Pareto {
	return &Pareto{rng: rand.New(rand.NewSource(seed)), xm: xm, alpha: alpha}
}

// NewPaperPareto returns the Pareto generator with the paper's §5.4
// calibration (xm=10, α=1).
func NewPaperPareto(seed int64) *Pareto { return NewPareto(seed, 10, 1) }

// Next implements Generator.
func (g *Pareto) Next() float64 {
	u := g.rng.Float64()
	for u == 0 {
		u = g.rng.Float64()
	}
	return math.Round(g.xm * math.Pow(u, -1/g.alpha))
}

// AR1 generates a first-order autoregressive sequence whose marginal
// distribution is N(mean, stddev²) for any coefficient ψ in [0, 1): the
// innovation variance is scaled by (1−ψ²). ψ=0 reduces to i.i.d. normal
// (§5.4 non-i.i.d. study).
type AR1 struct {
	rng          *rand.Rand
	mean, stddev float64
	psi          float64
	prev         float64
	started      bool
}

// NewAR1 returns an AR(1) generator with correlation coefficient psi.
func NewAR1(seed int64, mean, stddev, psi float64) *AR1 {
	return &AR1{rng: rand.New(rand.NewSource(seed)), mean: mean, stddev: stddev, psi: psi}
}

// Next implements Generator.
func (g *AR1) Next() float64 {
	if !g.started {
		g.started = true
		g.prev = g.mean + g.stddev*g.rng.NormFloat64()
		return g.prev
	}
	innov := g.stddev * math.Sqrt(1-g.psi*g.psi) * g.rng.NormFloat64()
	g.prev = g.mean + g.psi*(g.prev-g.mean) + innov
	return g.prev
}

// --- Burst injection (§5.3) ---

// InjectBursts returns a copy of data where, in every (N/P)-th sub-window
// of size P, the top N·(1−phi) values of that sub-window are multiplied by
// factor — the paper's §5.3 bursty-traffic injection (factor 10). The data
// length should be a multiple of P; a trailing partial sub-window is left
// untouched.
func InjectBursts(data []float64, windowN, periodP int, phi, factor float64) []float64 {
	out := append([]float64(nil), data...)
	if periodP <= 0 || windowN <= 0 {
		return out
	}
	stride := windowN / periodP // burst every (N/P)-th sub-window
	if stride <= 0 {
		stride = 1
	}
	k := int(math.Round(float64(windowN) * (1 - phi)))
	if k < 1 {
		k = 1
	}
	numSub := len(out) / periodP
	for s := 0; s < numSub; s += stride {
		lo := s * periodP
		boostTopK(out[lo:lo+periodP], k, factor)
	}
	return out
}

// boostTopK multiplies the k largest elements of seg by factor in place.
func boostTopK(seg []float64, k int, factor float64) {
	if k >= len(seg) {
		for i := range seg {
			seg[i] *= factor
		}
		return
	}
	// Min-heap of the k largest (index, value) pairs seen so far.
	top := make([]iv, 0, k)
	for i, v := range seg {
		if len(top) < k {
			top = append(top, iv{i, v})
			if len(top) == k {
				heapify(top)
			}
			continue
		}
		if v > top[0].v {
			top[0] = iv{i, v}
			siftDown(top, 0)
		}
	}
	for _, e := range top {
		seg[e.idx] *= factor
	}
}

type iv struct {
	idx int
	v   float64
}

func heapify(h []iv) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

func siftDown(h []iv, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h[l].v < h[smallest].v {
			smallest = l
		}
		if r < n && h[r].v < h[smallest].v {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}
