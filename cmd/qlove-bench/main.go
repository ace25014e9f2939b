// Command qlove-bench regenerates the tables and figures of the paper's
// evaluation (§5). Run with no arguments for the full suite in paper
// order, or name individual experiments:
//
//	qlove-bench                 # everything, paper-scale datasets
//	qlove-bench -scale 0.1 table1 fig4
//	qlove-bench -full fig5      # include the 100M-element windows
//
// Experiment names: fig1 table1 fig4 fig5 table2 table3 table4 table5
// redundancy pareto fewk-throughput errbound — plus openloop, the one
// scenario the repo benchmark (benchmark/: closed-loop producers) cannot
// express: an open-loop Poisson SLA ramp reporting the max sustainable op
// rate under a p99 latency SLA (tune with -keys, -skew, -sla and -bp).
//
// Throughput, space and accuracy of the engine, the delta pipeline and the
// aggregation tier are measured and gated by `bash benchmark/run.sh` (see
// benchmark/README.md), not here; the tier's failure verdicts (crash
// restart, degraded fan-in, quorum push and resync, live slot moves) are
// Go tests: TestServeCrashRestartRecovery in cmd/qlove-agg and
// TestFaninDegradedReplica, TestFaninQuorumPush and TestFaninSlotMove in
// internal/aggsrv.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"repro"
	"repro/internal/bench"
)

// scenarios are the experiments implemented in this package; they follow
// bench.Order in -list and in a no-argument run.
var scenarios = []string{"openloop"}

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "qlove-bench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("qlove-bench", flag.ContinueOnError)
	scale := fs.Float64("scale", 1.0, "dataset scale in (0, 1]; 1 = paper-size (10M)")
	seed := fs.Int64("seed", 1, "workload seed")
	full := fs.Bool("full", false, "unlock the most expensive sweeps (Fig 5's 100M windows)")
	list := fs.Bool("list", false, "list experiment names and exit")
	keys := fs.Int("keys", 0, "openloop: key cardinality (0 = scaled default)")
	skew := fs.Float64("skew", 1.2, "openloop: zipf skew over keys (0 = uniform)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	sla := fs.Duration("sla", 25*time.Millisecond, "openloop: p99 latency SLA gating the ramp")
	bp := fs.String("bp", "block", "openloop: engine backpressure mode (block | drop)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// bench.Options replaces an out-of-range scale with 1: a typo such as
	// -scale 10 would start the paper-size suite.
	if !(*scale > 0 && *scale <= 1) {
		return fmt.Errorf("-scale %v outside (0, 1]", *scale)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "qlove-bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the retained set before the heap snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "qlove-bench: memprofile:", err)
			}
		}()
	}
	var backpressure qlove.Backpressure
	switch *bp {
	case "block":
		backpressure = qlove.BackpressureBlock
	case "drop":
		backpressure = qlove.BackpressureDrop
	default:
		return fmt.Errorf("unknown -bp mode %q (block | drop)", *bp)
	}
	all := append(slices.Clone(bench.Order), scenarios...)
	if *list {
		for _, name := range all {
			fmt.Fprintln(w, name)
		}
		return nil
	}
	names := fs.Args()
	if len(names) == 0 {
		names = all
	}
	opts := bench.Options{W: w, Seed: *seed, Scale: *scale, Full: *full}
	for _, name := range names {
		paper, ok := bench.Experiments[name]
		if !ok && !slices.Contains(scenarios, name) {
			return fmt.Errorf("unknown experiment %q (use -list)", name)
		}
		start := time.Now()
		fmt.Fprintf(w, "=== %s ===\n", name)
		var err error
		switch name {
		case "openloop":
			o := defaultOpenLoopOptions(*scale, *seed, *keys, *skew)
			o.SLA = *sla
			o.Backpressure = backpressure
			err = openLoopExperiment(w, o)
		default:
			err = paper(opts)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(w, "--- %s done in %v ---\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
