package workload

import (
	"fmt"
	"math/rand"
)

// Keyed turns any value Generator into a keyed telemetry source: a fixed
// key universe (per-service, per-pod series) whose keys are drawn either
// uniformly or Zipf-distributed — real fleets are skewed, a few hot
// services emit most of the traffic — while values come from the wrapped
// generator. Events arrive as per-key reports (a source flushes a chunk of
// measurements at once), the shape a keyed engine's Push(key, batch) API
// ingests directly. Deterministic given a seed.
type Keyed struct {
	keys   []string
	rng    *rand.Rand
	zipf   *rand.Zipf // nil => uniform key draw
	values Generator
}

// NewKeyed builds a keyed source over cardinality keys. skew selects the
// key distribution: 0 draws keys uniformly; s > 1 draws key indexes from a
// Zipf distribution with parameter s (key 0 hottest). Values come from
// values, which the Keyed source owns from here on.
func NewKeyed(seed int64, cardinality int, skew float64, values Generator) (*Keyed, error) {
	if cardinality < 1 {
		return nil, fmt.Errorf("workload: key cardinality %d < 1", cardinality)
	}
	if values == nil {
		return nil, fmt.Errorf("workload: nil value generator")
	}
	if skew != 0 && skew <= 1 {
		return nil, fmt.Errorf("workload: zipf skew %v must be 0 (uniform) or > 1", skew)
	}
	g := &Keyed{
		keys:   make([]string, cardinality),
		rng:    rand.New(rand.NewSource(seed)),
		values: values,
	}
	for i := range g.keys {
		g.keys[i] = fmt.Sprintf("key-%06d", i)
	}
	if skew != 0 {
		g.zipf = rand.NewZipf(g.rng, skew, 1, uint64(cardinality-1))
	}
	return g, nil
}

// Key returns the i-th key's name (key 0 is the hottest under skew).
func (g *Keyed) Key(i int) string { return g.keys[i] }

// nextKey draws one key per the configured distribution.
func (g *Keyed) nextKey() string {
	if g.zipf != nil {
		return g.keys[g.zipf.Uint64()]
	}
	return g.keys[g.rng.Intn(len(g.keys))]
}

// Next draws one keyed event.
func (g *Keyed) Next() (key string, v float64) {
	return g.nextKey(), g.values.Next()
}

// NextReport draws one per-key report: a key and cap(dst) values written
// into dst (the caller-owned buffer is returned resliced, so a steady
// ingest loop allocates nothing).
func (g *Keyed) NextReport(dst []float64) (key string, vs []float64) {
	return g.nextKey(), g.Values(dst)
}

// Values fills cap(dst) values without drawing a key — for callers that
// address a specific key, e.g. an enumeration pass that has every series
// report once (the heartbeat all pods send) before skewed traffic starts.
func (g *Keyed) Values(dst []float64) []float64 {
	dst = dst[:cap(dst)]
	for i := range dst {
		dst[i] = g.values.Next()
	}
	return dst
}
