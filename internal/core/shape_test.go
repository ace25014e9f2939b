package core

import (
	"errors"
	"testing"
	"unsafe"

	"repro/internal/window"
)

// TestStateSizes: an operator and a capture hold their configuration as
// one pointer to the shared Shape, not as a copy of it (the 96-byte Config,
// the managed set and the base budgets put an operator at 256 bytes and a
// capture at 184), and an operator seals with the shape's budgets (its own
// budgets slice and budget-controller state put it at 120 bytes, in the
// 128-byte class). An operator holds its Level 2 by value: the two took an
// 80- and a 64-byte object, and now fit one of 128 bytes, of which the rest
// of the operator may take at most 72. A summary header is 32 bytes, the
// block and two 32-bit words; it was 48 while it kept an int count and l,
// m and the flagged bit in three fields.
func TestStateSizes(t *testing.T) {
	if n := unsafe.Sizeof(Policy{}); n > 128 {
		t.Errorf("Policy is %d bytes, budget 128", n)
	}
	if n := unsafe.Sizeof(Policy{}) - unsafe.Sizeof(level2{}); n > 72 {
		t.Errorf("Policy without its Level 2 is %d bytes, budget 72", n)
	}
	if n := unsafe.Sizeof(Snapshot{}); n > 80 {
		t.Errorf("Snapshot is %d bytes, budget 80", n)
	}
	if n := unsafe.Sizeof(Summary{}); n > 32 {
		t.Errorf("Summary is %d bytes, budget 32", n)
	}
}

// TestShapeIsShared: a pool's operators, their workbenches and every
// capture of them point at the pool's one Shape, and the parts of a capture
// carry it.
func TestShapeIsShared(t *testing.T) {
	cfg := Config{Spec: window.Spec{Size: 64, Period: 16}, Phis: []float64{0.5, 0.99, 0.999}, FewK: true}
	pool, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := pool.Get(), pool.Get()
	a.ObserveBatch(make([]float64, 8)) // mid-period: a holds a workbench
	if a.sh != pool.shape || b.sh != pool.shape || a.builder.sh != pool.shape {
		t.Fatal("an operator or its workbench does not share the pool's shape")
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa.sh != pool.shape || sa.Parts().Shape != pool.shape {
		t.Fatal("a capture or its parts do not share the operator's shape")
	}
	m, err := sa.Merge(sb)
	if err != nil || m.sh != pool.shape {
		t.Fatalf("merge of one shape: %v, shape shared %v", err, m.sh == pool.shape)
	}
}

// TestShapeEqual: two shapes of one configuration are equal field by field
// (a capture decoded elsewhere merges with a live one), and a shape differs
// from one that changes any field.
func TestShapeEqual(t *testing.T) {
	base := Config{Spec: window.Spec{Size: 64, Period: 16}, Phis: []float64{0.5, 0.99}, FewK: true}.withDefaults()
	a, err := NewShape(base)
	if err != nil {
		t.Fatal(err)
	}
	same := base
	same.Phis = []float64{0.5, 0.99}
	b, err := NewShape(same)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || !a.Equal(b) || !b.Equal(a) || !a.Equal(a) {
		t.Fatal("two shapes of one configuration are not equal")
	}
	for name, edit := range map[string]func(c *Config){
		"spec":      func(c *Config) { c.Spec.Size = 128 },
		"phis":      func(c *Config) { c.Phis = []float64{0.5, 0.999} },
		"phi count": func(c *Config) { c.Phis = []float64{0.5} },
		"digits":    func(c *Config) { c.Digits = 4 },
		"fewk":      func(c *Config) { c.FewK = false },
		"fraction":  func(c *Config) { c.Fraction = 0.25 },
		"threshold": func(c *Config) { c.StatThreshold = 5 },
		"alpha":     func(c *Config) { c.BurstAlpha = 0.01 },
		"high phi":  func(c *Config) { c.HighPhiMin = 0.9 },
		"top-k":     func(c *Config) { c.TopKOnly = true },
		"sample-k":  func(c *Config) { c.SampleKOnly = true },
	} {
		c := base
		edit(&c)
		o, err := NewShape(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Equal(o) || o.Equal(a) {
			t.Errorf("%s: shapes compare equal", name)
		}
		sa, _ := NewSnapshot(SnapshotParts{Shape: a, Streams: 1, Sums: make([]float64, 2)})
		so, _ := NewSnapshot(SnapshotParts{Shape: o, Streams: 1, Sums: make([]float64, len(c.Phis))})
		if _, err := sa.Merge(so); !errors.Is(err, ErrMismatched) {
			t.Errorf("%s: merge of different shapes: %v", name, err)
		}
	}
}
