// Command qlove computes windowed quantiles over a telemetry stream read
// from a file or stdin (one value per line, or the binary dataset format),
// using any of the repository's policies.
//
// Usage:
//
//	qlove -window 128000 -period 16000 -phis 0.5,0.9,0.99,0.999 \
//	      -policy qlove-fewk [-bounds] [file]
//
// Every window period it prints one line: the evaluation index followed by
// the quantile estimates.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro"
	"repro/internal/dataset"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qlove:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("qlove", flag.ContinueOnError)
	windowSize := fs.Int("window", 100000, "window size N (elements)")
	period := fs.Int("period", 10000, "window period P (elements)")
	phisArg := fs.String("phis", "0.5,0.9,0.99,0.999", "comma-separated quantiles")
	policy := fs.String("policy", "qlove", "policy: "+strings.Join(qlove.PolicyNames(), "|"))
	bounds := fs.Bool("bounds", false, "print Appendix-A error bounds after the run (QLOVE only)")
	space := fs.Bool("space", false, "print peak operator space usage after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	phis, err := parsePhis(*phisArg)
	if err != nil {
		return err
	}
	spec := qlove.Window{Size: *windowSize, Period: *period}
	p, err := qlove.NewPolicy(*policy, spec, phis)
	if err != nil {
		return err
	}
	var data []float64
	switch fs.NArg() {
	case 0:
		data, err = dataset.ReadText(os.Stdin)
	case 1:
		data, err = dataset.LoadFile(fs.Arg(0))
	default:
		return fmt.Errorf("at most one input file expected")
	}
	if err != nil {
		return err
	}
	// Run samples space mid-period too: sub-window operators hold nothing
	// in flight right after a seal.
	evals, stats, err := qlove.Run(p, spec, data)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(out)
	defer w.Flush()
	fmt.Fprintf(w, "# policy=%s window=%d period=%d phis=%v elements=%d\n",
		p.Name(), spec.Size, spec.Period, phis, len(data))
	for _, res := range evals {
		fmt.Fprintf(w, "%d", res.Evaluation)
		for _, e := range res.Estimates {
			fmt.Fprintf(w, "\t%g", e)
		}
		fmt.Fprintln(w)
	}
	if len(evals) == 0 {
		fmt.Fprintf(w, "# no evaluations: need at least %d elements, got %d\n", spec.Size, len(data))
	}
	if *space {
		fmt.Fprintf(w, "# peak space: %d variables\n", stats.MaxSpace)
	}
	if *bounds {
		if q, ok := p.(*qlove.QLOVE); ok {
			fmt.Fprintf(w, "# 95%% error bounds: %v\n", q.ErrorBounds(0.05))
		} else {
			fmt.Fprintf(w, "# error bounds unavailable for policy %s\n", p.Name())
		}
	}
	return nil
}

func parsePhis(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	phis := make([]float64, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad quantile %q: %w", part, err)
		}
		if v <= 0 || v > 1 {
			return nil, fmt.Errorf("quantile %v outside (0, 1]", v)
		}
		phis = append(phis, v)
	}
	sort.Float64s(phis)
	return phis, nil
}
