package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core/fewk"
	"repro/internal/stats"
)

// SnapshotParts is the exploded, exported form of a Snapshot: everything a
// transport needs to serialize a capture and rebuild it on the other side
// of a process or datacenter boundary. Parts and NewSnapshot are the
// encapsulation seam between core and the wire codec — the codec never
// sees Snapshot's private fields, and core never sees bytes.
//
// The slices are SHARED with the Snapshot they came from (or are handed
// to): a summary's block is immutable after seal, so sharing is safe as
// long as holders honour the same read-only contract the Snapshot itself
// relies on. A decoder that just unmarshalled fresh blocks hands them over
// outright; nothing is copied in either direction. The Shape is shared the
// same way, by every capture and part of one configuration.
type SnapshotParts struct {
	// Shape is the FULL resolved configuration the captured operator ran
	// with — not just the merge-shape fields — validated, with the
	// managed-quantile set derived from it. Estimates on the rebuilt
	// capture reads Digits-independent state, but Merge compatibility and
	// the managed-quantile set both derive from it.
	Shape *Shape
	// Streams is the number of merged sub-streams (>= 1).
	Streams int
	// Sums holds the Level-2 running quantile sums, one per configured ϕ.
	Sums []float64
	// Summaries are the resident sub-window summaries, oldest first per
	// merged capture.
	Summaries []Summary
	// SealGen is the source operator's seal-generation clock at capture
	// time (0 when unknown: merged captures, wire v1 sources). When
	// non-zero, the resident summaries are generations
	// (SealGen-len(Summaries), SealGen].
	SealGen uint64
}

// Parts explodes the capture for serialization. The returned slices are
// shared with s and MUST be treated as read-only.
func (s Snapshot) Parts() SnapshotParts {
	return SnapshotParts{
		Shape:     s.sh,
		Streams:   s.streams,
		Sums:      s.sums,
		Summaries: s.summaries,
		SealGen:   s.sealGen,
	}
}

// NewSnapshot rebuilds a capture from its exploded parts, revalidating
// every structural invariant a live capture carries by construction: the
// Level-2 sums must align with the ϕ set, and every summary's shape must
// agree with the configuration's quantile and managed-quantile counts. The
// configuration itself was validated, and the managed set derived, once
// when the Shape was made, so a rebuilt capture Merges and Estimates
// exactly — bit for bit — like the never-serialized original.
//
// NewSnapshot takes ownership of the part slices; callers must not mutate
// them afterwards. It validates structure, not values: ordering and
// NaN policies for the float payloads are the transport's concern (see
// internal/wire), where corrupt input is actually possible.
func NewSnapshot(p SnapshotParts) (Snapshot, error) {
	sh := p.Shape
	if sh == nil {
		return Snapshot{}, fmt.Errorf("qlove: snapshot parts: no shape")
	}
	if p.Streams < 1 {
		return Snapshot{}, fmt.Errorf("qlove: snapshot parts: streams %d < 1", p.Streams)
	}
	l := len(sh.cfg.Phis)
	if len(p.Sums) != l {
		return Snapshot{}, fmt.Errorf("qlove: snapshot parts: %d sums for %d quantiles", len(p.Sums), l)
	}
	if p.SealGen != 0 && uint64(len(p.Summaries)) > p.SealGen {
		return Snapshot{}, fmt.Errorf("qlove: snapshot parts: %d resident summaries exceed seal generation %d", len(p.Summaries), p.SealGen)
	}
	for i := range p.Summaries {
		if err := validateSummary(&p.Summaries[i], l, len(sh.managed)); err != nil {
			return Snapshot{}, fmt.Errorf("qlove: snapshot parts: summary %d: %w", i, err)
		}
	}
	return Snapshot{
		sh:        sh,
		streams:   p.Streams,
		sums:      p.Sums,
		summaries: p.Summaries,
		sealGen:   p.SealGen,
	}, nil
}

// Shape is one resolved, validated configuration together with what every
// operator and capture of it derives from it: the managed-quantile set and
// the few-k budgets, planned once, that every operator of it seals with. It
// is immutable and shared by pointer — by a Pool's operators and
// workbenches, by every capture and SnapshotParts of one operator, by the
// frames a decoder reads with one configuration and by the aggregator
// states folded from them — so a configuration is validated and derived
// once, not copied into every state that runs or holds it.
type Shape struct {
	cfg Config
	// managed[i] is the index into cfg.Phis of the i-th few-k-managed
	// quantile; budgets[i] its per-sub-window budget, the plan every
	// operator of the shape seals with.
	managed []int
	budgets []fewk.Budget
}

// zeroShape is what the zero Snapshot reads its configuration from.
var zeroShape Shape

// NewShape validates cfg as a RESOLVED configuration (as produced by New —
// zero defaults already applied) and derives its managed set and budgets.
// A config that would merely resolve to a valid one (e.g. Digits 0 or
// negative) is rejected: resolving here would break bit-identity between a
// rebuilt capture and its source. cfg.Phis is retained, not copied.
func NewShape(cfg Config) (*Shape, error) {
	if err := validateResolved(cfg); err != nil {
		return nil, fmt.Errorf("qlove: snapshot parts: %w", err)
	}
	return newShape(cfg)
}

// newShape derives the managed set and budgets of a valid resolved cfg.
func newShape(cfg Config) (*Shape, error) {
	sh := &Shape{cfg: cfg, managed: managedIndexes(cfg)}
	for _, i := range sh.managed {
		b, err := fewk.PlanBudget(cfg.Spec.Size, cfg.Spec.Period, cfg.Phis[i], cfg.Fraction)
		if err != nil {
			return nil, err
		}
		sh.budgets = append(sh.budgets, splitBudget(cfg, b))
	}
	return sh, nil
}

// splitBudget applies the TopKOnly / SampleKOnly modes to a planned budget.
func splitBudget(cfg Config, b fewk.Budget) fewk.Budget {
	switch {
	case cfg.TopKOnly:
		return fewk.Budget{K: b.K, Kt: b.K, Ks: 0}
	case cfg.SampleKOnly:
		return fewk.Budget{K: b.K, Kt: 0, Ks: b.K}
	}
	return b
}

// managedIndexes derives, from a RESOLVED configuration, which ϕ indexes
// are under few-k management: every configured ϕ in [HighPhiMin, 1) when
// FewK is enabled.
func managedIndexes(cfg Config) []int {
	if !cfg.FewK {
		return nil
	}
	var out []int
	for i, phi := range cfg.Phis {
		if phi >= cfg.HighPhiMin && phi < 1 {
			out = append(out, i)
		}
	}
	return out
}

// Config returns the configuration the shape was built from.
func (sh *Shape) Config() Config { return sh.cfg }

// Equal reports whether two shapes hold identical configurations in every
// field — the equality Snapshot.Merge requires and delta folding re-checks
// across frames of one key. One shared shape is equal to itself without a
// field compared.
func (sh *Shape) Equal(o *Shape) bool {
	if sh == o {
		return true
	}
	a, b := &sh.cfg, &o.cfg
	return a.Spec == b.Spec && slices.Equal(a.Phis, b.Phis) &&
		a.Digits == b.Digits && a.FewK == b.FewK && a.Fraction == b.Fraction &&
		a.StatThreshold == b.StatThreshold && a.BurstAlpha == b.BurstAlpha &&
		a.HighPhiMin == b.HighPhiMin && a.TopKOnly == b.TopKOnly &&
		a.SampleKOnly == b.SampleKOnly
}

// maxDigits is the most significant digits a configuration may keep: 17
// already round-trip every float64, and more overflow the quantizer's
// decimal scale (NaN at 400).
const maxDigits = 17

// validateResolved checks that cfg is a valid configuration in RESOLVED
// form — the invariants New establishes (withDefaults, then this check)
// and every capture therefore carries. A config that would merely
// resolve to a valid one (e.g. Digits 0 or negative) is rejected: resolving
// here would break bit-identity between a rebuilt capture and its source.
func validateResolved(cfg Config) error {
	if err := cfg.Spec.Validate(); err != nil {
		return err
	}
	if cfg.Spec.Period > MaxSummaryCount {
		return fmt.Errorf("period %d > %d, the most elements a summary counts", cfg.Spec.Period, MaxSummaryCount)
	}
	if err := stats.ValidatePhis(cfg.Phis); err != nil {
		return err
	}
	if len(cfg.Phis) > MaxSummaryQuantiles {
		return fmt.Errorf("%d phis > %d, the most a summary answers", len(cfg.Phis), MaxSummaryQuantiles)
	}
	if cfg.Digits < 0 {
		return fmt.Errorf("unresolved digits %d", cfg.Digits)
	}
	if cfg.Digits > maxDigits {
		return fmt.Errorf("digits %d > %d", cfg.Digits, maxDigits)
	}
	if cfg.Fraction <= 0 || cfg.Fraction > 1 {
		return fmt.Errorf("fraction %v outside (0, 1]", cfg.Fraction)
	}
	if cfg.StatThreshold == 0 || cfg.BurstAlpha == 0 || cfg.HighPhiMin == 0 {
		return fmt.Errorf("unresolved zero-valued threshold fields")
	}
	if cfg.TopKOnly && cfg.SampleKOnly {
		return fmt.Errorf("TopKOnly and SampleKOnly are mutually exclusive")
	}
	return nil
}

// validateSummary checks one summary's shape against the configuration:
// l quantiles and densities, one tail and one sample list per managed
// quantile (NewSummary already guarantees the lists and any burst flags agree
// with each other), and per-summary population cross-checks (a sub-window
// cannot cache more tail values, or represent more tail ranks, than it
// contained; a weight is a whole number of ranks).
func validateSummary(s *Summary, l, nManaged int) error {
	count := s.Count()
	if count < 1 {
		return fmt.Errorf("count %d < 1", count)
	}
	if s.NumQuantiles() != l {
		return fmt.Errorf("%d quantiles, config has %d", s.NumQuantiles(), l)
	}
	if s.Managed() != nManaged {
		return fmt.Errorf("%d tail and sample lists for %d managed quantiles", s.Managed(), nManaged)
	}
	for mi := 0; mi < nManaged; mi++ {
		if n := len(s.Tail(mi)); n > count {
			return fmt.Errorf("tail %d holds %d values, sub-window held %d", mi, n, count)
		}
		ranks := 0.0
		for _, w := range s.SampleWeights(mi) {
			if !(w >= 1) || w != math.Trunc(w) {
				return fmt.Errorf("sample list %d: weight %v is not a count of tail ranks", mi, w)
			}
			ranks += w
		}
		if ranks > float64(count) {
			return fmt.Errorf("sample list %d represents %v tail ranks, sub-window held %d", mi, ranks, count)
		}
	}
	return nil
}
