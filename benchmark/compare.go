package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// record collects the values of repeated runs: the body of an -out file
// and the input of -compare.
type record struct {
	Host    map[string]any `json:"host"`
	Seed    int64          `json:"seed"`
	Scale   float64        `json:"scale"`
	Seconds float64        `json:"seconds"`
	Trace   bool           `json:"trace"`
	// Runs[workload][metric] holds one value per run, in run order.
	Runs   map[string]map[string][]float64 `json:"runs"`
	Units  map[string]string               `json:"units"`
	Failed map[string]int64                `json:"failed"` // per workload, summed over runs
	Tried  map[string]int64                `json:"attempted"`
}

func newRecord(seed int64, scale, seconds float64, trace bool) *record {
	return &record{
		Host: hostFacts(), Seed: seed, Scale: scale, Seconds: seconds, Trace: trace,
		Runs: map[string]map[string][]float64{}, Units: map[string]string{},
		Failed: map[string]int64{}, Tried: map[string]int64{},
	}
}

func (r *record) add(workload string, res result) {
	if r.Runs[workload] == nil {
		r.Runs[workload] = map[string][]float64{}
	}
	for name, m := range res.Metrics {
		r.Runs[workload][name] = append(r.Runs[workload][name], m.Value)
		r.Units[name] = m.Unit
	}
	r.Failed[workload] += res.Failed
	r.Tried[workload] += res.Attempted
	if !res.Correct {
		r.Failed[workload]++ // a failed gate can never compare as clean
	}
}

func (r *record) write(path string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// quartiles are the first quartile, median and third quartile of a sample,
// by the exclusive method Python's statistics.quantiles(v, n=4) uses — the
// driver's spread is (q3-q1)/median by that method.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := p * float64(len(s)+1)
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

func spread(v []float64) float64 {
	q1, med, q3 := quartiles(v)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

func (r *record) printSummary(w io.Writer) {
	for _, wl := range workloadOrder {
		metrics := r.Runs[wl]
		names := make([]string, 0, len(metrics))
		for n := range metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			q1, med, q3 := quartiles(metrics[n])
			fmt.Fprintf(w, "%-15s %-38s median %12.4f  q1 %12.4f  q3 %12.4f  spread %5.1f%%  n=%d  %s\n",
				wl, n, med, q1, q3, 100*spread(metrics[n]), len(metrics[n]), r.Units[n])
		}
	}
}

// compareFiles prints, one row per (workload, end-to-end metric), how B's
// median moved against A's in the metric's own direction, judged by the
// bound BENCHMARK.json fixes. A row whose inputs' own run-to-run spread is
// wider than the bound is unresolved, not unchanged. The exit code is
// non-zero when any row regressed or B failed more operations than A.
func compareFiles(a, b string) int {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	load := func(path string) *record {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		return &r
	}
	ra, rb := load(a), load(b)
	if ra.Seconds != rb.Seconds || ra.Scale != rb.Scale || ra.Trace != rb.Trace {
		fatal(fmt.Errorf("the two files were measured with different settings (seconds %v/%v, scale %v/%v, trace %v/%v)",
			ra.Seconds, rb.Seconds, ra.Scale, rb.Scale, ra.Trace, rb.Trace))
	}
	code := 0
	fmt.Printf("%-15s %-16s %12s %12s %9s %7s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "worse by", "bound", "spread A", "spread B", "verdict")
	for _, wl := range workloadOrder {
		for _, m := range spec.EndToEnd {
			va, vb := ra.Runs[wl][m.Name], rb.Runs[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = (ma - mb) / ma
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case worse > m.Bound && max(sa, sb) <= m.Bound:
				verdict, code = "REGRESSION", 1
			case max(sa, sb) > m.Bound:
				verdict = "unresolved"
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Printf("%-15s %-16s %12.4f %12.4f %8.1f%% %6.0f%% %7.1f%% %7.1f%%  %s\n",
				wl, m.Name, ma, mb, 100*worse, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
		share := func(r *record) float64 {
			if r.Tried[wl] == 0 {
				return 0
			}
			return float64(r.Failed[wl]) / float64(r.Tried[wl])
		}
		if fa, fb := share(ra), share(rb); fb > fa {
			fmt.Printf("%-15s %-16s %12.6f %12.6f  failed share rose: REGRESSION\n", wl, "failed_share", fa, fb)
			code = 1
		}
	}
	if ra.Trace {
		fmt.Println("\nper-layer medians (no bound; for attribution):")
		for _, wl := range workloadOrder {
			for _, m := range spec.PerLayer {
				va, vb := ra.Runs[wl][m.Name], rb.Runs[wl][m.Name]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				_, ma, _ := quartiles(va)
				_, mb, _ := quartiles(vb)
				fmt.Printf("%-15s %-38s %14.4f %14.4f %s\n", wl, m.Name, ma, mb, m.Unit)
			}
		}
	}
	return code
}
