package moments

import (
	"fmt"

	"repro/internal/window"
)

// Policy adapts the moment sketch to the sliding-window Policy contract:
// one sketch per sub-window, merged (by moment addition) at query time.
// When the max-entropy inversion fails, the estimate falls back to a
// uniform interpolation between the observed min and max — the error shows
// up in the accuracy metrics rather than crashing the pipeline, mirroring
// how a production deployment would degrade.
type Policy struct {
	spec     window.Spec
	phis     []float64
	k        int
	sealed   []*Sketch
	current  *Sketch
	inFlight int
}

// NewPolicy returns a Moment policy of order k (the paper uses K=12).
func NewPolicy(spec window.Spec, phis []float64, k int) (*Policy, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(phis) == 0 {
		return nil, fmt.Errorf("moments: no quantiles specified")
	}
	cur, err := NewSketch(k)
	if err != nil {
		return nil, err
	}
	return &Policy{
		spec:    spec,
		phis:    append([]float64(nil), phis...),
		k:       k,
		current: cur,
	}, nil
}

// Name implements stream.Policy.
func (p *Policy) Name() string { return "Moment" }

// Observe implements stream.Policy.
func (p *Policy) Observe(v float64) {
	p.current.Insert(v)
	p.inFlight++
	if p.inFlight == p.spec.Period {
		p.seal()
	}
}

// seal retires the completed sub-window sketch and starts a fresh one.
func (p *Policy) seal() {
	p.sealed = append(p.sealed, p.current)
	p.current, _ = NewSketch(p.k) // k validated in NewPolicy
	p.inFlight = 0
}

// ObserveBatch implements stream.Policy, inserting period-bounded chunks
// so the seal check runs once per chunk instead of once per element.
func (p *Policy) ObserveBatch(vs []float64) {
	for len(vs) > 0 {
		chunk := vs
		if room := p.spec.Period - p.inFlight; len(chunk) > room {
			chunk = chunk[:room]
		}
		for _, v := range chunk {
			p.current.Insert(v)
		}
		p.inFlight += len(chunk)
		if p.inFlight == p.spec.Period {
			p.seal()
		}
		vs = vs[len(chunk):]
	}
}

// Expire implements stream.Policy: drop the oldest sub-window sketch.
func (p *Policy) Expire([]float64) {
	if len(p.sealed) > 0 {
		p.sealed = p.sealed[1:]
	}
}

// ExpiresWholeSummaries implements stream.SummaryExpirer: the moment
// sketch drops a whole sub-window per period and never reads the Expire
// slice.
func (p *Policy) ExpiresWholeSummaries() bool { return true }

// Result implements stream.Policy.
func (p *Policy) Result() []float64 {
	out := make([]float64, len(p.phis))
	merged, _ := NewSketch(p.k)
	for _, s := range p.sealed {
		_ = merged.Merge(s)
	}
	if p.inFlight > 0 {
		_ = merged.Merge(p.current)
	}
	if merged.Count == 0 {
		return out
	}
	for i, phi := range p.phis {
		q, err := merged.Quantile(phi)
		if err != nil {
			q = merged.Min + (merged.Max-merged.Min)*phi
		}
		out[i] = q
	}
	return out
}

// SpaceUsage implements stream.Policy.
func (p *Policy) SpaceUsage() int {
	n := p.current.SpaceUsage()
	for _, s := range p.sealed {
		n += s.SpaceUsage()
	}
	return n
}
