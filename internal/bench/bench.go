// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§5). Each experiment is a function
// taking Options and writing a formatted table to Options.W; the
// cmd/qlove-bench tool and the repository's bench_test.go drive them. Order
// is the per-experiment index (cmd/qlove-bench -list prints it); README
// "Benchmarks & perf trajectory" says how to run them and "Measured
// throughput" records measured numbers.
package bench

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/window"
)

// Options configures an experiment run.
type Options struct {
	// W receives the formatted table.
	W io.Writer
	// Seed makes dataset generation deterministic.
	Seed int64
	// Scale in (0, 1] shrinks dataset sizes for quick runs; 1 reproduces
	// the paper's sizes (10M-element datasets). Experiments round scaled
	// sizes to keep window alignment.
	Scale float64
	// Full unlocks the most expensive sweeps (the 100M-element windows of
	// Figure 5); off by default.
	Full bool
}

// withDefaults resolves zero values.
func (o Options) withDefaults() Options {
	if o.W == nil {
		o.W = io.Discard
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Scale <= 0 || o.Scale > 1 {
		o.Scale = 1
	}
	return o
}

// scaled returns n scaled down, floored at min and rounded to a multiple
// of align.
func (o Options) scaled(n, min, align int) int {
	v := int(float64(n) * o.Scale)
	if v < min {
		v = min
	}
	if align > 1 {
		v -= v % align
		if v < align {
			v = align
		}
	}
	return v
}

// Measurement holds the accuracy, space and throughput of one policy on
// one workload, per configured quantile.
type Measurement struct {
	Policy         string
	Phis           []float64
	ValueErrPct    []float64 // average relative value error, percent
	RankErr        []float64 // average rank error e'
	MaxRankErr     float64
	SpaceObserved  int
	ThroughputMevS float64
	Evaluations    int
}

// Measure drives a policy over data under spec, comparing every evaluation
// against the exact quantiles of the corresponding window.
func Measure(p stream.Policy, spec window.Spec, phis []float64, data []float64) (Measurement, error) {
	evals, st, err := stream.Run(p, spec, data)
	if err != nil {
		return Measurement{}, err
	}
	accs := make([]stats.ErrorAccumulator, len(phis))
	sorted := make([]float64, spec.Size)
	_ = spec.Iter(data, func(idx int, w []float64) {
		copy(sorted, w)
		sort.Float64s(sorted)
		for j, phi := range phis {
			exactRank := stats.CeilRank(phi, len(sorted))
			exactVal := sorted[exactRank-1]
			est := evals[idx].Estimates[j]
			estRank := stats.RankOf(sorted, est)
			if estRank < 1 {
				estRank = 1
			}
			// Use the nearest rank the estimate occupies (its value may
			// repeat; RankOf returns the highest).
			lo := sort.SearchFloat64s(sorted, est) + 1
			if lo <= exactRank && exactRank <= estRank {
				estRank = exactRank // estimate covers the exact rank
			} else if lo > exactRank {
				estRank = lo
			}
			accs[j].Observe(est, exactVal, estRank, exactRank, len(sorted), true)
		}
	})
	m := Measurement{
		Policy:         p.Name(),
		Phis:           append([]float64(nil), phis...),
		SpaceObserved:  st.MaxSpace,
		ThroughputMevS: st.ThroughputMevS(),
		Evaluations:    st.Evaluations,
	}
	for j := range phis {
		m.ValueErrPct = append(m.ValueErrPct, accs[j].AvgRelErrPct())
		m.RankErr = append(m.RankErr, accs[j].AvgRankErr())
		if mr := accs[j].MaxRankErr(); mr > m.MaxRankErr {
			m.MaxRankErr = mr
		}
	}
	return m, nil
}

// Throughput measures only events/second for a policy on data.
func Throughput(p stream.Policy, spec window.Spec, data []float64) (float64, error) {
	st, err := stream.Feed(p, spec, data)
	if err != nil {
		return 0, err
	}
	return st.ThroughputMevS(), nil
}

// table is a minimal fixed-width text table writer.
type table struct {
	w      io.Writer
	widths []int
	header []string
}

func newTable(w io.Writer, header ...string) *table {
	t := &table{w: w, header: header}
	for _, h := range header {
		t.widths = append(t.widths, len(h)+2)
	}
	t.row(header...)
	sep := make([]string, len(header))
	for i := range sep {
		for j := 0; j < t.widths[i]-2; j++ {
			sep[i] += "-"
		}
	}
	t.row(sep...)
	return t
}

func (t *table) row(cells ...string) {
	for i, c := range cells {
		w := 12
		if i < len(t.widths) {
			w = t.widths[i]
		}
		fmt.Fprintf(t.w, "%-*s", w, c)
	}
	fmt.Fprintln(t.w)
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
func e2(v float64) string { return fmt.Sprintf("%.2e", v) }
