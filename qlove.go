// Package qlove is the public API of this repository: a Go implementation
// of QLOVE ("Approximate Quantiles for Datacenter Telemetry Monitoring",
// ICDE 2020) together with the streaming substrate, competing baselines and
// workload generators used by the paper's evaluation.
//
// QLOVE answers a fixed set of quantiles over count-based sliding windows
// with low VALUE error (rather than the rank error bounded by classic
// sketches), by (1) computing exact quantiles per sub-window, selected from
// a flat buffer of its values and quantized as they are read, (2)
// averaging the sub-window
// quantiles across the window, and (3) retaining a few tail values per
// sub-window ("few-k merging") to repair high quantiles under statistical
// inefficiency and bursty traffic.
//
// # Ingestion
//
// Every policy accepts elements one at a time (Observe / Monitor.Push) or
// in batches (ObserveBatch / Monitor.PushBatch). The two paths are
// observationally identical — batching never changes an evaluation — but
// the batch path is the fast one: it amortizes per-element interface
// dispatch and appends whole chunks to the Level-1 buffer, which keeps
// values as they arrived; a seal quantizes only the few it reads. That
// buffer and the seal scratch are reused across
// sub-windows and recycled on reset, so steady-state ingestion performs
// zero heap allocations per element. See README.md for measured
// throughput.
//
// Basic usage:
//
//	cfg := qlove.Config{
//	    Spec: qlove.Window{Size: 128000, Period: 16000},
//	    Phis: []float64{0.5, 0.9, 0.99, 0.999},
//	    FewK: true,
//	}
//	q, err := qlove.New(cfg)
//	...
//	mon, err := qlove.NewMonitor(q, cfg.Spec)
//	for batch := range telemetryBatches {
//	    mon.PushBatch(batch, func(res qlove.Result) {
//	        dashboard.Update(res.Estimates)
//	    })
//	}
//
// Single-element feeding (mon.Push(v)) remains available for callers
// without natural batch boundaries.
//
// # Keyed monitoring
//
// Monitor drives one anonymous stream; the Engine is its keyed, sharded,
// concurrent form — one QLOVE operator per metric key, hash-partitioned
// across single-writer shard goroutines, with batched Push(key, vs)
// ingestion, a fan-in Results channel, and Snapshot()/Query(key) reads
// that never stop ingestion. Snapshots of operators that consumed
// disjoint sub-streams of one logical key Merge into a single
// logical-window view. With EngineConfig.KeyTTLDuration set, idle keys expire
// automatically and their operators recycle. With
// EngineConfig.TimedWindow/TimedPeriod set, keys answer over wall-clock
// windows instead — TimedMonitor's §2 "evaluate every minute over the
// last hour" semantics behind the same keyed API, sealed by shard ticks.
// See Engine.
//
// # Distributed aggregation
//
// Snapshots cross process and datacenter boundaries through the versioned
// wire format (internal/wire, format v2; v1 blobs keep decoding):
// Engine.Export writes every key's capture as a blob of self-describing
// frames without stopping ingestion, EngineSnapshot implements
// io.WriterTo/io.ReaderFrom, and EngineSnapshot.Merge folds a decoded
// remote blob into a local capture. Blobs concatenate freely, so N workers
// can write one stream that a central aggregator (cmd/qlove-agg) decodes,
// groups by key and merges; a decoded capture Merges and Estimates
// bit-for-bit like a never-serialized one. Snapshot.Estimate answers one
// configured quantile directly.
//
// For long-running deployments, Engine.ExportDelta ships only what
// changed since a per-destination ExportCursor — newly sealed summaries
// plus tombstones for evicted keys — and Aggregator folds those push
// streams into a resident merged view, served over HTTP by qlove-agg
// -serve (internal/aggsrv). Steady-state export bandwidth then tracks the
// change rate, not the key count, and the folded state stays bit-for-bit
// equal to a full export.
package qlove

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/sketch/am"
	"repro/internal/sketch/cmqs"
	"repro/internal/sketch/gk"
	"repro/internal/sketch/moments"
	"repro/internal/sketch/random"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/window"
)

// Window is a count-based window specification: Size is the number of
// elements each query evaluation covers (N) and Period the number of new
// elements between evaluations (P). Size == Period is a tumbling window;
// Size > Period (a multiple) is a sliding window.
type Window = window.Spec

// Config parameterizes a QLOVE operator; see the field documentation in
// the core package. Zero values of optional fields select the paper's
// defaults (3-digit compression, fraction 0.5, T_s = 10, α = 0.05).
type Config = core.Config

// QLOVE is the paper's quantile operator. It implements Policy.
type QLOVE = core.Policy

// New constructs a QLOVE operator.
func New(cfg Config) (*QLOVE, error) { return core.New(cfg) }

// Snapshot is a point-in-time, immutable capture of a QLOVE operator's
// window state. Snapshots are values: safe to retain, read from any
// goroutine, and Merge with captures of other operators that consumed
// disjoint sub-streams of the same logical stream (engine shards,
// ingestion threads, datacenter pods). See the core package documentation
// for merge semantics.
type Snapshot = core.Snapshot

// MergeSnapshots folds any number of snapshots into one logical-window
// capture; the zero Snapshot is the identity.
func MergeSnapshots(snaps []Snapshot) (Snapshot, error) {
	return core.MergeSnapshots(snaps)
}

// Policy is the sliding-window multi-quantile operator contract shared by
// QLOVE and every baseline: Observe feeds one element, ObserveBatch feeds
// a run of elements (identical semantics, amortized cost), Expire retires
// a full period of old elements, Result answers the configured quantiles,
// and SpaceUsage reports resident state variables.
type Policy = stream.Policy

// Evaluation is one windowed query result.
type Evaluation = stream.Evaluation

// RunStats aggregates runner-side measurements (elements, evaluations,
// wall time, peak space).
type RunStats = stream.RunStats

// Run drives any Policy over a data slice under the window spec, returning
// every evaluation plus runner statistics.
func Run(p Policy, spec Window, data []float64) ([]Evaluation, RunStats, error) {
	return stream.Run(p, spec, data)
}

// Feed pushes data through a policy measuring throughput only.
func Feed(p Policy, spec Window, data []float64) (RunStats, error) {
	return stream.Feed(p, spec, data)
}

// ExactQuantiles computes exact ϕ-quantiles of a finite sample (rank
// ⌈ϕ·n⌉ of the sorted data), the ground truth used throughout the paper.
func ExactQuantiles(data []float64, phis []float64) []float64 {
	return stats.Quantiles(data, phis)
}

// --- Baseline constructors (§5.1 policies) ---

// NewExact returns the Exact baseline: a red-black tree over the whole
// window with per-element deaccumulation.
func NewExact(spec Window, phis []float64) (Policy, error) {
	return exact.New(spec, phis)
}

// NewCMQS returns the CMQS baseline (Lin et al. 2004) with rank-error
// parameter eps.
func NewCMQS(spec Window, phis []float64, eps float64) (Policy, error) {
	return cmqs.New(spec, phis, eps)
}

// NewAM returns the AM baseline (Arasu–Manku 2004) with rank-error
// parameter eps.
func NewAM(spec Window, phis []float64, eps float64) (Policy, error) {
	return am.New(spec, phis, eps)
}

// NewRandom returns the sampling baseline (Luo et al. 2016) with
// rank-error parameter eps and a deterministic seed.
func NewRandom(spec Window, phis []float64, eps float64, seed int64) (Policy, error) {
	return random.New(spec, phis, eps, seed)
}

// NewMoment returns the moment-sketch baseline of order k (the paper uses
// K = 12).
func NewMoment(spec Window, phis []float64, k int) (Policy, error) {
	return moments.NewPolicy(spec, phis, k)
}

// NewGK returns the classic unbounded-stream Greenwald–Khanna baseline
// with rank-error parameter eps: no expiry, estimates over everything seen
// — the "no window" reference that motivates windowed operators.
func NewGK(spec Window, phis []float64, eps float64) (Policy, error) {
	return gk.NewPolicy(spec, phis, eps)
}

// DefaultEpsilon is the rank-error parameter the paper's Table 1 uses for
// CMQS, AM and Random.
const DefaultEpsilon = 0.02

// DefaultMomentK is the moment-sketch order used in Table 1.
const DefaultMomentK = 12

// PolicyNames returns the names NewPolicy builds: the six evaluated
// algorithms, QLOVE's few-k variant and the unwindowed GK reference.
func PolicyNames() []string {
	return []string{"qlove", "qlove-fewk", "exact", "cmqs", "am", "random", "moment", "gk"}
}

// NewPolicy builds the policy of one of PolicyNames with Table 1
// parameters. Each call returns a fresh instance, so the benchmark harness
// and the CLI can run any number of policies side by side.
func NewPolicy(name string, spec Window, phis []float64) (Policy, error) {
	switch name {
	case "qlove":
		return New(Config{Spec: spec, Phis: phis})
	case "qlove-fewk":
		return New(Config{Spec: spec, Phis: phis, FewK: true})
	case "exact":
		return NewExact(spec, phis)
	case "cmqs":
		return NewCMQS(spec, phis, DefaultEpsilon)
	case "am":
		return NewAM(spec, phis, DefaultEpsilon)
	case "random":
		return NewRandom(spec, phis, DefaultEpsilon, 1)
	case "moment":
		return NewMoment(spec, phis, DefaultMomentK)
	case "gk":
		return NewGK(spec, phis, DefaultEpsilon)
	}
	return nil, fmt.Errorf("qlove: unknown policy %q", name)
}
