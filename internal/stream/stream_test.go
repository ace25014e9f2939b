package stream

import (
	"math"
	"testing"

	"repro/internal/window"
)

// recordingPolicy tracks the exact Observe/Expire/Result sequence.
type recordingPolicy struct {
	observed []float64
	expired  [][]float64
	results  int
}

func (p *recordingPolicy) Name() string      { return "recording" }
func (p *recordingPolicy) Observe(v float64) { p.observed = append(p.observed, v) }

func (p *recordingPolicy) ObserveBatch(vs []float64) {
	for _, v := range vs {
		p.Observe(v)
	}
}
func (p *recordingPolicy) Expire(old []float64) {
	p.expired = append(p.expired, append([]float64(nil), old...))
}
func (p *recordingPolicy) Result() []float64 { p.results++; return []float64{0} }
func (p *recordingPolicy) SpaceUsage() int   { return len(p.observed) }

func TestRunProtocol(t *testing.T) {
	data := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	spec := window.Spec{Size: 4, Period: 2}
	p := &recordingPolicy{}
	evals, st, err := Run(p, spec, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 3 {
		t.Fatalf("evaluations = %d, want 3", len(evals))
	}
	if p.results != 3 {
		t.Fatalf("Result called %d times", p.results)
	}
	if len(p.observed) != 8 {
		t.Fatalf("observed %d elements", len(p.observed))
	}
	// Expire called twice with period batches [0,1] and [2,3].
	if len(p.expired) != 2 {
		t.Fatalf("expired %d batches", len(p.expired))
	}
	if p.expired[0][0] != 0 || p.expired[0][1] != 1 || p.expired[1][0] != 2 {
		t.Fatalf("expired = %v", p.expired)
	}
	if st.Elements != 8 || st.Evaluations != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxSpace != 8 {
		t.Fatalf("MaxSpace = %d", st.MaxSpace)
	}
}

func TestRunInvalidSpec(t *testing.T) {
	if _, _, err := Run(&recordingPolicy{}, window.Spec{Size: 3, Period: 2}, nil); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestRunShortData(t *testing.T) {
	p := &recordingPolicy{}
	evals, st, err := Run(p, window.Spec{Size: 10, Period: 5}, make([]float64, 9))
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 0 || st.Evaluations != 0 {
		t.Fatal("short data should produce no evaluations")
	}
}

func TestFeedMatchesRunProtocol(t *testing.T) {
	data := make([]float64, 100)
	spec := window.Spec{Size: 20, Period: 10}
	p1, p2 := &recordingPolicy{}, &recordingPolicy{}
	if _, _, err := Run(p1, spec, data); err != nil {
		t.Fatal(err)
	}
	if _, err := Feed(p2, spec, data); err != nil {
		t.Fatal(err)
	}
	if len(p1.observed) != len(p2.observed) || len(p1.expired) != len(p2.expired) || p1.results != p2.results {
		t.Fatal("Feed and Run drive policies differently")
	}
}

func TestThroughputMevS(t *testing.T) {
	st := RunStats{Elements: 2_000_000, Elapsed: 1e9} // 1 second
	if got := st.ThroughputMevS(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("throughput = %v, want 2", got)
	}
	if (RunStats{}).ThroughputMevS() != 0 {
		t.Fatal("zero-elapsed throughput should be 0")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	mk := func(spec window.Spec, phis []float64) (Policy, error) { return &recordingPolicy{}, nil }
	if err := r.Register("rec", mk); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("rec", mk); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	p, err := r.New("rec", window.Spec{Size: 2, Period: 1}, nil)
	if err != nil || p.Name() != "recording" {
		t.Fatalf("New: %v %v", p, err)
	}
	if _, err := r.New("nope", window.Spec{Size: 2, Period: 1}, nil); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
