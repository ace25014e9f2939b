package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchSpec is BENCHMARK.json, the contract this program is checked
// against: main reads it from the working directory (the root of the
// checkout), and a run fails if the metrics it emits and the metrics the
// file names differ in any name or unit.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(s.Workloads) != len(workloadOrder) {
		return nil, fmt.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloadOrder))
	}
	for i, w := range s.Workloads {
		if w.Name != workloadOrder[i] {
			return nil, fmt.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, workloadOrder[i])
		}
	}
	if err := sameMetrics("end_to_end", s.EndToEnd, endToEndUnits); err != nil {
		return nil, err
	}
	if err := sameMetrics("per_layer", s.PerLayer, perLayerUnits); err != nil {
		return nil, err
	}
	return &s, nil
}

func sameMetrics(section string, listed []specMetric, units map[string]string) error {
	if len(listed) != len(units) {
		return fmt.Errorf("BENCHMARK.json %s lists %d metrics, the benchmark emits %d", section, len(listed), len(units))
	}
	for _, m := range listed {
		if unit, ok := units[m.Name]; !ok || unit != m.Unit {
			return fmt.Errorf("BENCHMARK.json %s metric %q (%s) is not what the benchmark emits (%q)", section, m.Name, m.Unit, unit)
		}
	}
	return nil
}

// check verifies a run emitted exactly the metrics of its mode, all finite.
func (s *benchSpec) check(res result, trace bool) error {
	want := s.EndToEnd
	if trace {
		want = s.PerLayer
	}
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return fmt.Errorf("metric %q missing, not finite or in the wrong unit: %+v", m.Name, got)
		}
		if !trace && got.Value == 0 {
			return fmt.Errorf("end-to-end metric %q is zero", m.Name)
		}
	}
	return nil
}

// endToEndUnits and perLayerUnits are every metric the code emits. A
// per-layer metric is prefixed with the module it measures; where a
// workload does not enter a layer the metric is 0 there, which is the
// prediction the workload was built to make.
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"ingest_mev_s":  "Mev/s",
	"query_p50_us":  "us",
	"state_heap_mb": "MB",
}

var perLayerUnits = map[string]string{
	"core.observe_ns_per_ev":  "ns",
	"core.seal_ns":            "ns",
	"core.space_per_key":      "count",
	"core.snapshot_ns":        "ns",
	"core.merge_ns":           "ns",
	"core.value_err_mid_pct":  "%",
	"core.value_err_tail_pct": "%",

	"stream.push_self_ns_per_ev": "ns",
	"stream.evals":               "count",

	"engine.push_self_ns_per_ev":           "ns",
	"engine.shard4_self_ns_per_ev":         "ns",
	"engine.push_ns_per_report":            "ns",
	"engine.blocked_ms":                    "ms",
	"engine.queue_high_water":              "count",
	"engine.batches_enqueued":              "count",
	"engine.evals_dropped":                 "count",
	"engine.shard_skew":                    "ratio",
	"engine.adapt_tax_pct":                 "%",
	"engine.route_moves":                   "count",
	"engine.escalations":                   "count",
	"engine.interval_skew_max":             "ratio",
	"engine.export_delta_ms":               "ms",
	"engine.export_self_ms":                "ms",
	"engine.export_keys_scanned_per_flush": "count",
	"engine.query_us":                      "us",
	"engine.query_p99_us":                  "us",

	"wire.encode_ns_per_frame": "ns",
	"wire.decode_ns_per_frame": "ns",
	"wire.scan_ns_per_frame":   "ns",
	"wire.bytes_per_frame":     "B",
	"wire.frames":              "count",
	"wire.shipped_kb_per_mev":  "KB/Mev",

	"aggregator.apply_us_per_blob":      "us",
	"aggregator.fold_self_ns_per_frame": "ns",
	"aggregator.query_us":               "us",
	"aggregator.fold_cache_hit_ratio":   "ratio",
	"aggregator.snapshot_ms":            "ms",
	"aggregator.keys":                   "count",

	"aggstore.wal_self_ns_per_frame": "ns",
	"aggstore.wal_bytes":             "B",
	"aggstore.lock_wait_ms":          "ms",
	"aggstore.recover_ns_per_frame":  "ns",
	"aggstore.recover_ms":            "ms",
	"aggstore.compact_ms":            "ms",

	"aggsrv.push_http_self_us":   "us",
	"aggsrv.query_http_self_us":  "us",
	"aggsrv.fanin_push_self_us":  "us",
	"aggsrv.fanin_query_self_us": "us",
	"aggsrv.fanin_retries":       "count",
	"aggsrv.quorum_shortfalls":   "count",
	"aggsrv.replica_failures":    "count",
	"aggsrv.flush_p50_ms":        "ms",
	"aggsrv.flush_p99_ms":        "ms",
	"aggsrv.fold_kframes_s":      "kframes/s",
	"aggsrv.query_p99_us":        "us",
	"aggsrv.query_max_ms":        "ms",

	"gen.query_samples": "count",
	"gen.flush_samples": "count",

	"trace.overhead_pct": "%",
	"ladder.closure_pct": "%",
}
