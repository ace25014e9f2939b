package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestWorkloads runs every workload twice at a hundredth of its committed
// size, untraced and traced, and checks what BENCHMARK.json promises: every
// named metric is emitted under exactly that name and unit and is finite
// (spec.check), the gates pass, counts that depend only on the seed repeat
// exactly, and the span file parses with every parent present.
func TestWorkloads(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Equal across runs of one seed. stream.evals is left out where
	// escalation (engine-hotkey) makes sub-stream assignment a race.
	deterministic := map[string][]string{
		"engine-ingest":  {"stream.evals", "core.value_err_mid_pct", "core.value_err_tail_pct", "wire.frames"},
		"engine-hotkey":  {"wire.frames"},
		"pipeline-delta": {"stream.evals", "core.value_err_mid_pct", "core.value_err_tail_pct", "wire.frames", "wire.shipped_kb_per_mev"},
		"tier-readwrite": {"wire.frames", "aggregator.keys"},
	}
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			var traced [2]result
			for i := range traced {
				for _, trace := range []bool{false, true} {
					cfg := &config{
						seed: 1, scale: 0.01, seconds: 0, trace: trace, keys: 200,
						outDir: t.TempDir(), tmpDir: t.TempDir(),
					}
					res, err := runWorkload(name, cfg, spec)
					if err != nil {
						t.Fatal(err)
					}
					if err := spec.check(res, trace); err != nil {
						t.Fatal(err)
					}
					if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
						t.Fatalf("trace=%v: correct=%v failed=%d attempted=%d", trace, res.Correct, res.Failed, res.Attempted)
					}
					if trace {
						traced[i] = res
						checkTrace(t, filepath.Join(cfg.outDir, "trace-"+name+".json"))
					}
				}
			}
			for _, m := range deterministic[name] {
				if a, b := traced[0].Metrics[m].Value, traced[1].Metrics[m].Value; a != b {
					t.Errorf("%s differs between two runs of one seed: %v vs %v", m, a, b)
				}
			}
		})
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 {
		t.Fatal("no spans recorded")
	}
	ids := map[int]bool{0: true}
	for _, s := range doc.Spans {
		ids[s.ID] = true
	}
	for _, s := range doc.Spans {
		if !ids[s.Parent] {
			t.Fatalf("span %d (%s) names parent %d, which is not in the file", s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, med, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Fatalf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}
