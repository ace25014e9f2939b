// Command benchmark is the repository's benchmark: four seeded workloads
// driven from one process, end-to-end metrics with regression bounds, and a
// traced mode that attributes the cost to layers by running the same inputs
// through successively longer prefixes of the pipeline. BENCHMARK.json at
// the repository root is its contract; README.md explains the choices.
//
//	bash benchmark/run.sh --workload engine-ingest --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -runs 5 -out a.json        # all four, five times
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

// config is one invocation's settings. Only seed reaches the generator;
// the systems under test see generated inputs.
type config struct {
	seed    int64
	scale   float64 // multiplies every workload's committed size
	seconds float64 // measured time per run; rounds repeat until it is used
	trace   bool
	keys    int    // key universe (20 000 at scale >= 1)
	outDir  string // trace files
	tmpDir  string // disk-store directories
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// round is what one fixed-size pass over a workload's inputs measured.
// Work per round is fixed, so counts repeat exactly; a run repeats rounds
// until -seconds of measured time is used and reports medians.
type round struct {
	setup     time.Duration // system construction, warm-up pass, forced GC
	measured  time.Duration // the timed region only
	values    int64         // values made queryable in the timed region
	queryUs   []float64     // point-read latencies
	heapMB    float64       // live heap with the system's state resident, minus the pre-set-up baseline
	attempted int64
	failed    int64
	layer     map[string]float64 // per-layer observations, reported in traced runs
	gateErrs  []string           // correctness gates that failed (checked outside the clock)
}

// workload is one of the four named input sets.
type workload interface {
	// generate materialises every input from the seed.
	generate(cfg *config) error
	// run does one round; gates asks it to also check outputs against
	// references (outside the timed region); tr is nil for untraced rounds.
	run(tr *tracer, gates bool) (*round, error)
	// ladder runs the prefix ladder over the same inputs.
	ladder() (map[string]float64, error)
}

var workloads = map[string]func() workload{
	"engine-ingest":  func() workload { return &engineWorkload{name: "engine-ingest"} },
	"engine-hotkey":  func() workload { return &engineWorkload{name: "engine-hotkey", hot: true} },
	"pipeline-delta": func() workload { return &pipelineWorkload{} },
	"tier-readwrite": func() workload { return &tierWorkload{} },
}

var workloadOrder = []string{"engine-ingest", "engine-hotkey", "pipeline-delta", "tier-readwrite"}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "generator seed")
		seconds = flag.Float64("seconds", 12, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics, prefix ladder, span file")
		scale   = flag.Float64("scale", 1, "multiplies every workload's committed size")
		runs    = flag.Int("runs", 1, "repeat the selected workloads this many times")
		out     = flag.String("out", "", "write the runs' values as JSON to this file (input of -compare)")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if workloads[n] == nil {
			fatal(fmt.Errorf("unknown workload %q (have %s)", n, strings.Join(workloadOrder, ", ")))
		}
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	rec := newRecord(*seed, *scale, *seconds, *trace == 1)
	ok := true
	var last result
	for i := 0; i < *runs; i++ {
		for _, n := range names {
			cfg := &config{
				seed: *seed, scale: *scale, seconds: *seconds, trace: *trace == 1,
				keys:   scaled(20_000, min(*scale, 1), 200),
				outDir: filepath.Join("benchmark", "out"),
				tmpDir: filepath.Join(".bench_build", "tmp"),
			}
			res, err := runWorkload(n, cfg, spec)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", n, err))
			}
			if err := spec.check(res, cfg.trace); err != nil {
				fatal(fmt.Errorf("%s: %w", n, err))
			}
			rec.add(n, res)
			ok = ok && res.Correct && res.Failed == 0
			last = res
			if len(names) > 1 || *runs > 1 {
				printLine(n, res)
			}
		}
	}
	if *runs > 1 {
		rec.printSummary(os.Stdout)
	}
	if *out != "" {
		if err := rec.write(*out); err != nil {
			fatal(err)
		}
	}
	if len(names) == 1 && *runs == 1 {
		printLine("", last)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printLine writes one result as a single JSON line; with a workload name
// it is prefixed so a multi-workload run stays one line per workload.
func printLine(name string, res result) {
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	if name != "" {
		fmt.Printf("%s %s\n", name, b)
		return
	}
	fmt.Printf("%s\n", b)
}

// hostFacts is written into every run's preamble and every -out file.
func hostFacts() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

// runWorkload generates the inputs, repeats rounds until the measured time
// is used, and folds the rounds into the run's metrics.
func runWorkload(name string, cfg *config, spec *benchSpec) (result, error) {
	w := workloads[name]()
	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		return result{}, err
	}
	genStart := time.Now()
	if err := w.generate(cfg); err != nil {
		return result{}, fmt.Errorf("generate: %w", err)
	}
	genTime := time.Since(genStart)

	var plain, traced []*round
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 2 // the ladder takes the other half
	}
	var used time.Duration
	for i := 0; len(plain) == 0 || used < budget; i++ {
		r, err := w.run(nil, i == 0)
		if err != nil {
			return result{}, fmt.Errorf("round %d: %w", i, err)
		}
		plain = append(plain, r)
		used += r.measured
		if cfg.trace {
			// Traced and untraced rounds alternate, so drift in the
			// sandbox lands on both sides of the overhead figure.
			r, err := w.run(tr, false)
			if err != nil {
				return result{}, fmt.Errorf("traced round %d: %w", i, err)
			}
			traced = append(traced, r)
			used += r.measured
		}
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	var gateErrs []string
	for _, r := range append(append([]*round{}, plain...), traced...) {
		res.Attempted += r.attempted
		res.Failed += r.failed
		gateErrs = append(gateErrs, r.gateErrs...)
	}
	rate := func(r *round) float64 { return float64(r.values) / r.measured.Seconds() / 1e6 }
	over := func(rs []*round, f func(*round) float64) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = f(r)
		}
		return out
	}
	info := map[string]any{
		"workload": name, "seed": cfg.seed, "scale": cfg.scale, "seconds": cfg.seconds,
		"rounds": len(plain), "generate_s": genTime.Seconds(),
		"query_samples_per_round": len(plain[0].queryUs), "values_per_round": plain[0].values,
	}
	for k, v := range hostFacts() {
		info[k] = v
	}

	if !cfg.trace {
		values := map[string]float64{
			"setup_s":       genTime.Seconds() + median(over(plain, func(r *round) float64 { return r.setup.Seconds() })),
			"ingest_mev_s":  median(over(plain, rate)),
			"query_p50_us":  median(over(plain, func(r *round) float64 { return percentile(r.queryUs, 0.50) })),
			"state_heap_mb": median(over(plain, func(r *round) float64 { return r.heapMB })),
		}
		for _, m := range spec.EndToEnd {
			res.Metrics[m.Name] = metric{values[m.Name], m.Unit}
		}
	} else {
		ladderStart := time.Now()
		layer, err := w.ladder()
		if err != nil {
			return result{}, fmt.Errorf("ladder: %w", err)
		}
		info["ladder_s"] = time.Since(ladderStart).Seconds()
		// What the traced rounds of the real workload observed takes
		// precedence over the ladder's figure of the same name.
		for k := range traced[0].layer {
			layer[k] = median(over(traced, func(r *round) float64 { return r.layer[k] }))
		}
		// The accuracy score comes from the gates, which run once.
		for _, k := range []string{"core.value_err_mid_pct", "core.value_err_tail_pct"} {
			layer[k] = plain[0].layer[k]
		}
		u, t := median(over(plain, rate)), median(over(traced, rate))
		layer["trace.overhead_pct"] = 100 * (u - t) / u
		// The ladder's prediction for this workload, against what the
		// untraced rounds measured.
		if pred := layer["ladder.predicted_mev_s"]; pred > 0 {
			layer["ladder.closure_pct"] = 100 * (1/pred - 1/u) / (1 / u)
		}
		for self, ns := range tr.selfNanos() {
			info["self_ms:"+self] = float64(ns) / 1e6
		}
		for k, v := range layer {
			if strings.HasPrefix(k, "ladder.") {
				info[k] = v // the rungs themselves, for reading the marginals
			}
		}
		for _, m := range spec.PerLayer {
			res.Metrics[m.Name] = metric{layer[m.Name], m.Unit}
		}
		if err := tr.write(cfg.outDir, name); err != nil {
			return result{}, err
		}
	}
	if len(gateErrs) > 0 {
		res.Correct = false
		info["valid"] = false
		info["gate_failures"] = gateErrs
	}

	// Human-readable preamble: facts, then every metric by name with unit.
	ib, _ := json.Marshal(info)
	fmt.Printf("# %s\n", ib)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-40s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

// heapLive is the live heap after a forced collection. Two cycles: what a
// sync.Pool held survives the first in the pool's victim cache, and whether
// a pool happened to be full is not state.
func heapLive() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	_, med, _ := quartiles(v)
	return med
}

// percentile is the nearest-rank percentile of an unsorted sample (0 when
// there is none, so a workload without reads still reports a number).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return stats.Quantile(v, p)
}
