package rbtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// count returns the stored frequency of key (0 when absent).
func (t *Tree) count(key float64) uint64 {
	if n := t.find(key); n != nilIdx {
		return t.nodes[n].count
	}
	return 0
}

// quantile reads one ϕ-quantile through Quantiles.
func (t *Tree) quantile(phi float64) float64 { return t.Quantiles([]float64{phi})[0] }

// sortedRank returns the value at the rank the paper's quantile definition
// reads, ceil(ϕ·n), from a sorted slice.
func sortedRank(sorted []float64, phi float64) float64 {
	r := int(math.Ceil(phi * float64(len(sorted))))
	if r < 1 {
		r = 1
	}
	return sorted[r-1]
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	if !tr.Empty() || tr.Len() != 0 || tr.Unique() != 0 {
		t.Fatalf("new tree not empty: len=%d unique=%d", tr.Len(), tr.Unique())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Remove(1.0) {
		t.Fatal("Remove on empty tree returned true")
	}
	if got := tr.count(1.0); got != 0 {
		t.Fatalf("count on empty tree = %d", got)
	}
}

func TestPanicsOnEmpty(t *testing.T) {
	for name, fn := range map[string]func(*Tree){
		"Quantiles": func(tr *Tree) { tr.Quantiles([]float64{0.5}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty tree did not panic", name)
				}
			}()
			fn(New())
		}()
	}
}

func TestInsertDuplicates(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Insert(42)
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tr.Len())
	}
	if tr.Unique() != 1 {
		t.Fatalf("Unique = %d, want 1", tr.Unique())
	}
	if got := tr.count(42); got != 100 {
		t.Fatalf("count(42) = %d, want 100", got)
	}
	if got := tr.quantile(0.5); got != 42 {
		t.Fatalf("Quantiles(0.5) = %v, want 42", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertN(t *testing.T) {
	tr := New()
	tr.InsertN(7, 5)
	tr.InsertN(3, 2)
	tr.InsertN(7, 3)
	tr.InsertN(9, 0) // no-op
	if tr.Len() != 10 {
		t.Fatalf("Len = %d, want 10", tr.Len())
	}
	if tr.Unique() != 2 {
		t.Fatalf("Unique = %d, want 2", tr.Unique())
	}
	if got := tr.count(7); got != 8 {
		t.Fatalf("count(7) = %d, want 8", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSelectAgainstSorted: one Quantiles traversal asked for a ϕ at every
// 37th rank of a duplicate-heavy tree selects what a sorted slice holds
// there, first and last rank included.
func TestSelectAgainstSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := New()
	var ref []float64
	for i := 0; i < 2000; i++ {
		v := math.Floor(rng.Float64() * 100) // force duplicates
		tr.Insert(v)
		ref = append(ref, v)
	}
	sort.Float64s(ref)
	var ranks []int
	for r := 1; r <= len(ref); r += 37 {
		ranks = append(ranks, r)
	}
	ranks = append(ranks, len(ref))
	phis := make([]float64, len(ranks))
	for i, r := range ranks {
		if phis[i] = float64(r) / float64(len(ref)); ceilRank(phis[i], uint64(len(ref))) != uint64(r) {
			t.Fatalf("ϕ = %d/%d does not read rank %d", r, len(ref), r)
		}
	}
	for i, got := range tr.Quantiles(phis) {
		if want := ref[ranks[i]-1]; got != want {
			t.Fatalf("rank %d (ϕ=%v): got %v, want %v", ranks[i], phis[i], got, want)
		}
	}
}

func TestQuantileDefinition(t *testing.T) {
	// ϕ-quantile is the element at 1-based rank ceil(ϕN).
	tr := New()
	for i := 1; i <= 100; i++ {
		tr.Insert(float64(i))
	}
	cases := []struct {
		phi  float64
		want float64
	}{
		{0.5, 50}, {0.9, 90}, {0.99, 99}, {0.999, 100}, {1.0, 100}, {0.001, 1}, {0.011, 2},
	}
	for _, c := range cases {
		if got := tr.quantile(c.phi); got != c.want {
			t.Errorf("Quantiles(%v) = %v, want %v", c.phi, got, c.want)
		}
	}
}

// TestQuantilesSinglePassMatchesSelect: the one traversal answers every ϕ
// with the value a selection of rank ceil(ϕN) from a sorted copy reads.
func TestQuantilesSinglePassMatchesSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := New()
	var ref []float64
	for i := 0; i < 5000; i++ {
		v := math.Floor(rng.ExpFloat64() * 1000)
		tr.Insert(v)
		ref = append(ref, v)
	}
	sort.Float64s(ref)
	phis := []float64{0.1, 0.5, 0.9, 0.99, 0.999}
	got := tr.Quantiles(phis)
	for i, phi := range phis {
		if want := sortedRank(ref, phi); got[i] != want {
			t.Errorf("Quantiles[%d] (ϕ=%v) = %v, want %v", i, phi, got[i], want)
		}
	}
}

func TestQuantilesRepeatedPhis(t *testing.T) {
	tr := New()
	for i := 1; i <= 10; i++ {
		tr.Insert(float64(i))
	}
	got := tr.Quantiles([]float64{0.5, 0.5, 0.9})
	want := []float64{5, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Quantiles = %v, want %v", got, want)
		}
	}
}

func TestQuantilesEmptyPhis(t *testing.T) {
	tr := New()
	tr.Insert(1)
	if got := tr.Quantiles(nil); got != nil {
		t.Fatalf("Quantiles(nil) = %v, want nil", got)
	}
}

func TestRemove(t *testing.T) {
	tr := New()
	for _, v := range []float64{5, 5, 3, 8} {
		tr.Insert(v)
	}
	if !tr.Remove(5) {
		t.Fatal("Remove(5) = false")
	}
	if tr.count(5) != 1 || tr.Len() != 3 || tr.Unique() != 3 {
		t.Fatalf("after first remove: count=%d len=%d unique=%d", tr.count(5), tr.Len(), tr.Unique())
	}
	if !tr.Remove(5) {
		t.Fatal("second Remove(5) = false")
	}
	if tr.count(5) != 0 || tr.Unique() != 2 {
		t.Fatalf("after second remove: count=%d unique=%d", tr.count(5), tr.Unique())
	}
	if tr.Remove(5) {
		t.Fatal("third Remove(5) = true, key should be gone")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomInsertRemoveInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := New()
	live := map[float64]uint64{}
	var total uint64
	for i := 0; i < 20000; i++ {
		v := math.Floor(rng.Float64() * 200)
		if rng.Intn(3) == 0 && total > 0 {
			// remove a random live key
			for k := range live {
				if !tr.Remove(k) {
					t.Fatalf("Remove(%v) failed for live key", k)
				}
				live[k]--
				if live[k] == 0 {
					delete(live, k)
				}
				total--
				break
			}
		} else {
			tr.Insert(v)
			live[v]++
			total++
		}
		if i%997 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if tr.Len() != total {
		t.Fatalf("Len = %d, want %d", tr.Len(), total)
	}
	if tr.Unique() != len(live) {
		t.Fatalf("Unique = %d, want %d", tr.Unique(), len(live))
	}
	for k, c := range live {
		if got := tr.count(k); got != c {
			t.Fatalf("count(%v) = %d, want %d", k, got, c)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAscendOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.Insert(math.Floor(rng.Float64() * 100))
	}
	prev := math.Inf(-1)
	tr.Ascend(func(k float64, c uint64) bool {
		if k <= prev {
			t.Fatalf("Ascend out of order: %v after %v", k, prev)
		}
		if c == 0 {
			t.Fatal("Ascend yielded zero count")
		}
		prev = k
		return true
	})
}

func TestAscendEarlyStop(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Insert(float64(i))
	}
	n := 0
	tr.Ascend(func(k float64, c uint64) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("Ascend visited %d nodes after early stop, want 5", n)
	}
}

// Property: for any sequence of inserts, Quantiles selects what a sorted
// slice holds at each ϕ's rank, and invariants hold.
func TestQuickSelectMatchesSort(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		tr := New()
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r % 512)
			tr.Insert(vals[i])
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		sort.Float64s(vals)
		phis := []float64{0.01, 0.25, 0.5, 0.75, 0.99, 1}
		for i, got := range tr.Quantiles(phis) {
			if want := sortedRank(vals, phis[i]); got != want {
				t.Logf("phi=%v: got %v want %v", phis[i], got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: insert-then-remove-all returns to empty with valid invariants.
func TestQuickInsertRemoveAll(t *testing.T) {
	f := func(raw []uint8) bool {
		tr := New()
		for _, r := range raw {
			tr.Insert(float64(r))
		}
		for _, r := range raw {
			if !tr.Remove(float64(r)) {
				return false
			}
		}
		return tr.Empty() && tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestInsertCacheSurvivesMutations: hammering one key (the insert cache's
// hit path) between removals that delete it never desyncs the bookkeeping.
func TestInsertCacheSurvivesMutations(t *testing.T) {
	tr := New()
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			tr.Insert(42)
			tr.Insert(1000 + float64(i)) // disjoint from the hot key
		}
		if got := tr.count(42); got != 100 {
			t.Fatalf("round %d: count(42) = %d", round, got)
		}
		// Remove the hot key entirely; its cache entry must not resurrect it.
		for i := 0; i < 100; i++ {
			if !tr.Remove(42) {
				t.Fatalf("round %d: Remove(42) #%d failed", round, i)
			}
		}
		if got := tr.count(42); got != 0 {
			t.Fatalf("round %d: count(42) = %d after removal", round, got)
		}
		tr.Insert(42) // re-insert lands on a fresh node, not the freed slot's ghost
		if got := tr.count(42); got != 1 {
			t.Fatalf("round %d: count(42) = %d after re-insert", round, got)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		tr.Remove(42)
		for i := 0; i < 100; i++ {
			tr.Remove(1000 + float64(i))
		}
		if !tr.Empty() || tr.Unique() != 0 {
			t.Fatalf("round %d: %d values in %d nodes left after removing all", round, tr.Len(), tr.Unique())
		}
	}
}

// TestSizedCacheIsOnlyACache: a cache far too small for what the tree
// holds (every key contends for one slot, evicting the others' entry on
// each insert) must leave the same multiset as a map reference under
// inserts and removals.
func TestSizedCacheIsOnlyACache(t *testing.T) {
	tr := New()
	var keys []float64
	for k := 0.0; len(keys) < 6; k++ {
		if cacheSlot(k) == cacheSlot(0) {
			keys = append(keys, k)
		}
	}
	ref := map[float64]uint64{}
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 20_000; step++ {
		key := keys[rng.Intn(len(keys))]
		if rng.Intn(10) < 7 {
			n := uint64(1 + rng.Intn(3))
			tr.InsertN(key, n)
			ref[key] += n
		} else if tr.Remove(key) != (ref[key] > 0) {
			t.Fatalf("step %d: Remove(%v) disagrees with the reference", step, key)
		} else if ref[key] > 0 {
			ref[key]--
		}
		if got := tr.count(key); got != ref[key] {
			t.Fatalf("step %d: count(%v) = %d, want %d", step, key, got, ref[key])
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveRecyclesArena: nodes freed by Remove go back into the arena,
// so the Exact baseline's steady insert/remove churn over a stable value
// population never touches the heap.
func TestRemoveRecyclesArena(t *testing.T) {
	tr := New()
	fill := func() {
		for i := 0; i < 1000; i++ {
			tr.Insert(float64(i % 300))
		}
	}
	drain := func() {
		for i := 0; i < 1000; i++ {
			tr.Remove(float64(i % 300))
		}
	}
	fill()
	capBefore := cap(tr.nodes)
	if capBefore < 301 { // 300 unique values plus the sentinel
		t.Fatalf("arena cap = %d after 300 unique inserts", capBefore)
	}
	drain()
	if allocs := testing.AllocsPerRun(20, func() { fill(); drain() }); allocs != 0 {
		t.Fatalf("fill/drain cycle allocates %v, want 0", allocs)
	}
	if cap(tr.nodes) != capBefore || !tr.Empty() {
		t.Fatalf("arena cap %d -> %d, %d values left", capBefore, cap(tr.nodes), tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsertDistinct(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(float64(i))
	}
}

func BenchmarkInsertRedundant(b *testing.B) {
	// High-redundancy insert path: the paper's workloads have ~0.08% unique
	// values, so most inserts are count increments.
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(float64(i % 1000))
	}
}

func BenchmarkQuantiles(b *testing.B) {
	tr := New()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		tr.Insert(math.Floor(rng.ExpFloat64() * 1000))
	}
	phis := []float64{0.5, 0.9, 0.99, 0.999}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Quantiles(phis)
	}
}
