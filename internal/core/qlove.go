// Package core implements QLOVE — approximate Quantiles with LOw Value
// Error — the primary contribution of the paper. QLOVE partitions a
// sliding window into period-aligned sub-windows; Level 1 computes each
// sub-window's exact quantiles — selected from a flat buffer of its raw
// values and quantized as they are read, the same quantiles Algorithm 1's
// {value, count} red-black tree of quantized values would read — Level 2
// averages the
// sub-window quantiles across the window (justified by the CLT,
// Appendix A), and few-k merging (§4)
// repairs high quantiles under statistical inefficiency and bursty
// traffic by retaining a few tail values per sub-window.
package core

import (
	"fmt"

	"repro/internal/core/fewk"
	"repro/internal/window"
)

// Config parameterizes a QLOVE policy. The zero value of optional fields
// selects the paper's defaults.
type Config struct {
	// Spec is the window specification (size and period in elements).
	// The period is at most MaxSummaryCount.
	Spec window.Spec
	// Phis are the quantiles to answer, sorted non-decreasing, in (0, 1]:
	// at most MaxSummaryQuantiles of them.
	Phis []float64
	// Digits is the number of significant decimal digits kept by value
	// compression (§3.1). 0 applies the paper's default of 3; negative
	// disables quantization; more than 17 is rejected.
	Digits int
	// FewK enables few-k merging (§4). The paper's §5.2 comparison runs
	// with it disabled; §5.3 enables it.
	FewK bool
	// Fraction scales each sub-window's few-k cache relative to the
	// N(1−ϕ) values that guarantee exactness (Tables 3–4). Default 0.5.
	Fraction float64
	// StatThreshold is T_s in §4.3: top-k merging activates for ϕ with
	// P(1−ϕ) < T_s. Default 10.
	StatThreshold float64
	// BurstAlpha is the significance level of the Mann–Whitney burst
	// detector. Default 0.05.
	BurstAlpha float64
	// HighPhiMin is the smallest ϕ eligible for few-k management.
	// Default 0.95.
	HighPhiMin float64
	// TopKOnly devotes the entire few-k budget to the top-k pipeline
	// (k_t = k, k_s = 0), matching the paper's Table 3 experiment.
	TopKOnly bool
	// SampleKOnly devotes the entire budget to interval sampling
	// (k_t = 0, k_s = k) and always reads the sample-k outcome for
	// managed quantiles, matching Table 4. Mutually exclusive with
	// TopKOnly.
	SampleKOnly bool
}

// withDefaults resolves zero-valued optional fields.
func (c Config) withDefaults() Config {
	if c.Digits == 0 {
		c.Digits = 3
	}
	if c.Digits < 0 {
		c.Digits = 0 // quantizer identity
	}
	if c.Fraction == 0 {
		c.Fraction = 0.5
	}
	if c.StatThreshold == 0 {
		c.StatThreshold = fewk.DefaultStatThreshold
	}
	if c.BurstAlpha == 0 {
		c.BurstAlpha = fewk.DefaultBurstAlpha
	}
	if c.HighPhiMin == 0 {
		c.HighPhiMin = 0.95
	}
	return c
}

// Policy is the QLOVE sliding-window multi-quantile operator. It
// implements the stream.Policy contract.
type Policy struct {
	// sh is the operator's configuration, shared with every operator,
	// workbench and capture of it.
	sh *Shape
	// builder is the Level-1 workbench of the sub-window in flight, on loan
	// from lender, the Pool that minted the operator, from the sub-window's
	// first value until EndPeriod seals it.
	builder *builder
	lender  *Pool
	// agg is the operator's Level 2, held by value: one object with the
	// operator.
	agg level2

	// prev is the most recently sealed summary once it is no longer
	// resident (Expire saves it when it removes the last one); while it is
	// resident it is the newest in agg and prev stays nil. The burst
	// detector compares each new sub-window against it.
	prev *Summary

	// burstActive[i] records, per managed quantile, whether the last
	// evaluation detected bursty traffic (exported for observability).
	burstActive []bool

	// sealGen counts the summaries sealed since construction (or the last
	// Reset) — the monotonic per-operator generation clock delta exports
	// cursor against. Summary g (1-based) stays resident until it slides
	// out of the window, so a capture taken at generation G holds exactly
	// the last SubWindowCount() generations (G-count, G].
	sealGen uint64
}

// New returns a QLOVE policy for the given configuration, minted by a Pool
// of its own.
func New(cfg Config) (*Policy, error) {
	pl, err := NewPool(cfg)
	if err != nil {
		return nil, err
	}
	return pl.Get(), nil
}

// resolve applies cfg's defaults, validates the result and makes its Shape,
// over a private copy of the ϕ set.
func resolve(cfg Config) (*Shape, error) {
	cfg = cfg.withDefaults()
	if err := validateResolved(cfg); err != nil {
		return nil, fmt.Errorf("qlove: %w", err)
	}
	cfg.Phis = append([]float64(nil), cfg.Phis...)
	return newShape(cfg)
}

// Reset returns the operator to its as-constructed state while keeping
// every internal buffer at capacity — the Level-2 summary slots here, the
// workbench (the Level-1 buffer and seal scratch) back in its pool for the
// next borrower — so a recycled
// operator ingests its first sub-window with zero heap allocations. It is
// the enabler for operator pooling: an engine monitoring (and evicting)
// millions of keys hands retired operators back to a Pool instead of
// rebuilding buffers from scratch. After Reset the operator is
// observationally indistinguishable from a freshly constructed one with
// the same Config.
func (p *Policy) Reset() {
	p.returnBench()
	p.agg.mu.Lock()
	p.agg.reset()
	p.sealGen = 0
	p.agg.mu.Unlock()
	p.prev = nil
	for i := range p.burstActive {
		p.burstActive[i] = false
	}
}

// ExpiresWholeSummaries implements stream.SummaryExpirer: QLOVE expires a
// whole sub-window summary per period and never reads the Expire slice, so
// per-stream front ends can skip the O(N) replay ring.
func (p *Policy) ExpiresWholeSummaries() bool { return true }

// Name implements stream.Policy.
func (p *Policy) Name() string { return "QLOVE" }

// Config returns the resolved configuration.
func (p *Policy) Config() Config { return p.sh.cfg }

// Observe implements stream.Policy: Level-1 accumulation. A completed
// sub-window seals into a summary handed to Level 2 — a tumbling window
// inside the sliding window, so raw values never need deaccumulation.
func (p *Policy) Observe(v float64) {
	b := p.bench()
	b.add(v)
	if n := b.len(); n == p.sh.cfg.Spec.Period || n == 0 {
		p.EndPeriod() // seal a full sub-window; release a still-empty workbench
	}
}

// bench returns the workbench of the in-flight sub-window, borrowing one
// from the operator's pool at the sub-window's first value.
func (p *Policy) bench() *builder {
	if p.builder == nil {
		p.builder = p.lender.lend()
	}
	return p.builder
}

// returnBench hands the operator's workbench (if it holds one) back to its
// pool, discarding whatever the sub-window in flight contained.
func (p *Policy) returnBench() {
	if p.builder != nil {
		p.lender.takeBack(p.builder)
		p.builder = nil
	}
}

// inFlight returns the number of elements in the unsealed sub-window.
func (p *Policy) inFlight() int {
	if p.builder == nil {
		return 0
	}
	return p.builder.len()
}

// ObserveBatch implements stream.Policy: the native batch ingestion path.
// Each period-bounded chunk is appended to the sub-window buffer in one
// pass, raw; the seal quantizes what it reads. Sub-windows seal exactly
// where the element-at-a-time path would seal, so evaluations are
// bit-identical to repeated Observe calls. NaN elements are dropped and
// (as in Observe) do not advance the period.
func (p *Policy) ObserveBatch(vs []float64) {
	for len(vs) > 0 {
		chunk := vs
		if room := p.sh.cfg.Spec.Period - p.inFlight(); len(chunk) > room {
			chunk = chunk[:room]
		}
		b := p.bench()
		b.addBatch(chunk)
		if n := b.len(); n == p.sh.cfg.Spec.Period || n == 0 {
			p.EndPeriod() // seal a full sub-window; release a still-empty workbench
		}
		vs = vs[len(chunk):]
	}
}

// Expire implements stream.Policy: one whole sub-window summary is
// deaccumulated per period in O(l) — QLOVE's answer to the Exact
// baseline's per-element deaccumulation cost.
func (p *Policy) Expire([]float64) {
	if len(p.sh.managed) > 0 && p.agg.count() == 1 {
		last := p.agg.summaries[0]
		p.prev = &last
	}
	p.agg.mu.Lock()
	p.agg.deaccumulate()
	p.agg.mu.Unlock()
}

// EndPeriod force-seals the in-flight sub-window even when it holds fewer
// than Period elements. Time-driven deployments (§2's "evaluate every one
// minute for the elements seen last one hour") call this at each period
// boundary, where sub-window populations vary with traffic; the Level-2
// estimator is unchanged (the CLT argument of Appendix A holds for
// variable m). An empty sub-window is skipped entirely — its quantiles
// are undefined and it carries no information.
func (p *Policy) EndPeriod() {
	n := p.inFlight()
	if n == 0 {
		p.returnBench() // borrowed for values that all turned out NaN
		return
	}
	sc := &p.lender.scratch // the pool owner's alone, like the workbench
	s := p.builder.seal(p.sh.budgets, sc)
	p.returnBench()
	prev := p.prev
	if c := p.agg.count(); c > 0 {
		prev = &p.agg.summaries[c-1]
	}
	if len(p.sh.managed) > 0 && prev != nil {
		alpha := p.sh.cfg.BurstAlpha
		if pairs := p.sh.cfg.Spec.SubWindows() - 1; pairs > 1 {
			alpha /= float64(pairs)
		}
		for mi := range p.sh.managed {
			if sc.burstyVsPrev(&s, prev, mi, alpha) {
				s.setBursty(mi) // still private: published by accumulate below
			}
		}
	}
	p.agg.mu.Lock() // a concurrent Snapshot sees the summary and its generation together
	p.agg.accumulate(s)
	p.sealGen++
	p.agg.mu.Unlock()
	p.prev = nil
}

// SealGen returns the operator's seal-generation clock: how many sub-window
// summaries it has sealed since construction (or the last Reset). The clock
// only advances when a summary seals, so an unchanged SealGen means an
// unchanged Snapshot — the invariant incremental (delta) exports rely on to
// skip idle keys.
func (p *Policy) SealGen() uint64 { return p.sealGen }

// Result implements stream.Policy. Non-high quantiles come from the
// Level-2 average; few-k-managed quantiles select between Level 2, top-k
// merging and sample-k merging per §4.3.
func (p *Policy) Result() []float64 {
	return answer(p.sh, p.agg.sums, p.agg.summaries, 1, &p.lender.scratch, p.burstActive)
}

// BurstDetected reports whether the most recent evaluation flagged bursty
// traffic for any managed quantile.
func (p *Policy) BurstDetected() bool {
	for _, b := range p.burstActive {
		if b {
			return true
		}
	}
	return false
}

// ErrorBounds returns the Appendix A probabilistic bound on |ya − ye| at
// confidence 1−alpha for each configured quantile, instantiated with the
// mean sub-window density estimate and the resident sub-windows' sizes. A
// zero entry means the bound is not informative (no usable density
// estimate yet).
func (p *Policy) ErrorBounds(alpha float64) []float64 {
	return errorBounds(p.sh, p.agg.summaries, alpha)
}

// SpaceUsage implements stream.Policy: the in-flight sub-window's distinct
// values — the {value, count} entries Algorithm 1's tree would hold, not
// the 8 bytes per value the flat buffer keeps — plus every resident
// summary slot (the paper's l(N/P) + O(P) space model, with O(P) shrunk by
// data redundancy and few-k storage added). Asking changes nothing: the
// count runs on a copy.
func (p *Policy) SpaceUsage() int {
	n := p.agg.spaceUsage()
	if p.builder != nil {
		n += p.builder.unique()
	}
	return n
}

// FewKSpace returns the number of resident few-k cache entries (tail
// values plus samples), the space the paper's Tables 3–4 report.
func (p *Policy) FewKSpace() int { return p.agg.fewkSpace() }

// SubWindowCount returns the number of resident sub-window summaries.
func (p *Policy) SubWindowCount() int { return p.agg.count() }
