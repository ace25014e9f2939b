// Package exact implements the paper's Exact baseline (§5.1 policy 1): a
// red-black tree of {value, count} pairs over the full sliding window,
// extended from Algorithm 1 with deaccumulation — the expired element's
// node decrements its frequency and is deleted when it reaches zero. The
// paper notes this outperformed other exact methods; its deaccumulation
// cost on large windows is precisely what QLOVE's sub-window summaries
// avoid.
package exact

import (
	"fmt"
	"math"

	"repro/internal/rbtree"
	"repro/internal/stats"
	"repro/internal/window"
)

// Policy is the exact sliding-window multi-quantile operator.
type Policy struct {
	phis []float64
	tree *rbtree.Tree
}

// New returns an Exact policy answering the given quantiles, which must be
// sorted in non-decreasing order and lie in (0, 1].
func New(spec window.Spec, phis []float64) (*Policy, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := stats.ValidatePhis(phis); err != nil {
		return nil, fmt.Errorf("exact: %w", err)
	}
	return &Policy{
		phis: append([]float64(nil), phis...),
		tree: rbtree.New(),
	}, nil
}

// Name implements stream.Policy.
func (p *Policy) Name() string { return "Exact" }

// Observe implements stream.Policy (Accumulate in Algorithm 1). NaN
// values are dropped — they have no order-statistic meaning and would
// corrupt tree comparisons.
func (p *Policy) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	p.tree.Insert(v)
}

// ObserveBatch implements stream.Policy: a direct insert loop on the
// concrete receiver, sparing the per-element interface dispatch of the
// runner's element-at-a-time path.
func (p *Policy) ObserveBatch(vs []float64) {
	for _, v := range vs {
		if math.IsNaN(v) {
			continue
		}
		p.tree.Insert(v)
	}
}

// Expire implements stream.Policy: element-wise deaccumulation.
func (p *Policy) Expire(old []float64) {
	for _, v := range old {
		if math.IsNaN(v) {
			continue
		}
		p.tree.Remove(v)
	}
}

// Result implements stream.Policy: one in-order traversal answers all
// quantiles (ComputeResult in Algorithm 1).
func (p *Policy) Result() []float64 {
	if p.tree.Empty() {
		return make([]float64, len(p.phis))
	}
	return p.tree.Quantiles(p.phis)
}

// SpaceUsage implements stream.Policy: one resident {value, count} node per
// unique value in the window.
func (p *Policy) SpaceUsage() int { return p.tree.Unique() }

// Len returns the number of elements currently inside the window.
func (p *Policy) Len() uint64 { return p.tree.Len() }
