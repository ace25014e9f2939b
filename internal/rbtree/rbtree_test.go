package rbtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/compress"
	"repro/internal/workload"
)

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
	if got := tr.Count(1.0); got != 0 {
		t.Fatalf("Count on empty tree = %d", got)
	}
	if got := tr.Rank(5); got != 0 {
		t.Fatalf("Rank on empty tree = %d", got)
	}
}

func TestPanicsOnEmpty(t *testing.T) {
	for name, fn := range map[string]func(*Tree){
		"Min":       func(tr *Tree) { tr.Min() },
		"Max":       func(tr *Tree) { tr.Max() },
		"Quantile":  func(tr *Tree) { tr.Quantile(0.5) },
		"Quantiles": func(tr *Tree) { tr.Quantiles([]float64{0.5}) },
		"Select":    func(tr *Tree) { tr.Select(1) },
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
	if got := tr.Count(42); got != 100 {
		t.Fatalf("Count(42) = %d, want 100", got)
	}
	if got := tr.Quantile(0.5); got != 42 {
		t.Fatalf("Quantile(0.5) = %v, want 42", got)
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
	if got := tr.Count(7); got != 8 {
		t.Fatalf("Count(7) = %d, want 8", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMinMax(t *testing.T) {
	tr := New()
	vals := []float64{5, 1, 9, 3, 7, -2, 100}
	for _, v := range vals {
		tr.Insert(v)
	}
	if got := tr.Min(); got != -2 {
		t.Fatalf("Min = %v, want -2", got)
	}
	if got := tr.Max(); got != 100 {
		t.Fatalf("Max = %v, want 100", got)
	}
}

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
	for r := uint64(1); r <= uint64(len(ref)); r += 37 {
		if got, want := tr.Select(r), ref[r-1]; got != want {
			t.Fatalf("Select(%d) = %v, want %v", r, got, want)
		}
	}
	if got, want := tr.Select(1), ref[0]; got != want {
		t.Fatalf("Select(1) = %v, want %v", got, want)
	}
	if got, want := tr.Select(uint64(len(ref))), ref[len(ref)-1]; got != want {
		t.Fatalf("Select(n) = %v, want %v", got, want)
	}
}

func TestSelectOutOfRangePanics(t *testing.T) {
	tr := New()
	tr.Insert(1)
	for _, r := range []uint64{0, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Select(%d) did not panic", r)
				}
			}()
			tr.Select(r)
		}()
	}
}

func TestRank(t *testing.T) {
	tr := New()
	for _, v := range []float64{10, 20, 20, 30} {
		tr.Insert(v)
	}
	cases := []struct {
		key  float64
		want uint64
	}{
		{5, 0}, {10, 1}, {15, 1}, {20, 3}, {25, 3}, {30, 4}, {35, 4},
	}
	for _, c := range cases {
		if got := tr.Rank(c.key); got != c.want {
			t.Errorf("Rank(%v) = %d, want %d", c.key, got, c.want)
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
		if got := tr.Quantile(c.phi); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.phi, got, c.want)
		}
	}
}

func TestQuantilesSinglePassMatchesSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := New()
	for i := 0; i < 5000; i++ {
		tr.Insert(math.Floor(rng.ExpFloat64() * 1000))
	}
	phis := []float64{0.1, 0.5, 0.9, 0.99, 0.999}
	got := tr.Quantiles(phis)
	for i, phi := range phis {
		if want := tr.Quantile(phi); got[i] != want {
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
	if tr.Count(5) != 1 || tr.Len() != 3 || tr.Unique() != 3 {
		t.Fatalf("after first remove: count=%d len=%d unique=%d", tr.Count(5), tr.Len(), tr.Unique())
	}
	if !tr.Remove(5) {
		t.Fatal("second Remove(5) = false")
	}
	if tr.Count(5) != 0 || tr.Unique() != 2 {
		t.Fatalf("after second remove: count=%d unique=%d", tr.Count(5), tr.Unique())
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
			if total > 0 {
				_ = tr.Select(1) // force the lazy weight rebuild so invariants cover it
			}
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
		if got := tr.Count(k); got != c {
			t.Fatalf("Count(%v) = %d, want %d", k, got, c)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAscendDescendOrder(t *testing.T) {
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
	prev = math.Inf(1)
	tr.Descend(func(k float64, c uint64) bool {
		if k >= prev {
			t.Fatalf("Descend out of order: %v after %v", k, prev)
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

func TestTopK(t *testing.T) {
	tr := New()
	for _, v := range []float64{1, 9, 9, 5, 7, 3} {
		tr.Insert(v)
	}
	got := tr.AppendTopK(nil, 4)
	want := []float64{9, 9, 7, 5}
	if len(got) != len(want) {
		t.Fatalf("AppendTopK(nil, 4) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendTopK(nil, 4) = %v, want %v", got, want)
		}
	}
	if got := tr.AppendTopK(nil, 0); got != nil {
		t.Fatalf("AppendTopK(nil, 0) = %v, want nil", got)
	}
	if got := tr.AppendTopK(nil, 100); len(got) != 6 {
		t.Fatalf("AppendTopK(nil, 100) returned %d values, want 6", len(got))
	}
}

func TestClear(t *testing.T) {
	tr := New()
	for i := 0; i < 50; i++ {
		tr.Insert(float64(i))
	}
	tr.Clear()
	if !tr.Empty() || tr.Unique() != 0 {
		t.Fatal("Clear did not empty the tree")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tr.Insert(5)
	if tr.Len() != 1 {
		t.Fatal("tree unusable after Clear")
	}
}

// Property: for any sequence of inserts, Select agrees with a sorted slice
// and invariants hold.
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
		_ = tr.Select(1) // rebuild lazy weights so invariants cover them
		if err := tr.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		sort.Float64s(vals)
		for _, phi := range []float64{0.01, 0.25, 0.5, 0.75, 0.99, 1} {
			r := int(math.Ceil(phi * float64(len(vals))))
			if r < 1 {
				r = 1
			}
			if tr.Quantile(phi) != vals[r-1] {
				t.Logf("phi=%v: got %v want %v", phi, tr.Quantile(phi), vals[r-1])
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

// Property: Rank and Select are inverse-consistent.
func TestQuickRankSelectConsistent(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		tr := New()
		for _, r := range raw {
			tr.Insert(float64(r % 128))
		}
		for r := uint64(1); r <= tr.Len(); r++ {
			v := tr.Select(r)
			// Rank(v) is the highest rank at value v, so it must be >= r,
			// and Select(Rank(v)) must equal v.
			rk := tr.Rank(v)
			if rk < r || tr.Select(rk) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClearRecyclesArena(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.Insert(float64(i % 300))
	}
	capBefore := cap(tr.nodes)
	if capBefore < 301 { // 300 unique values plus the sentinel
		t.Fatalf("arena cap = %d after 300 unique inserts", capBefore)
	}
	tr.Clear()
	if cap(tr.nodes) != capBefore {
		t.Fatalf("Clear dropped arena capacity: %d -> %d", capBefore, cap(tr.nodes))
	}
	// Refilling the same working set must not touch the heap.
	allocs := testing.AllocsPerRun(20, func() {
		tr.Clear()
		for i := 0; i < 1000; i++ {
			tr.Insert(float64(i % 300))
		}
	})
	if allocs != 0 {
		t.Fatalf("fill/Clear cycle allocates %v, want 0", allocs)
	}
	if tr.Len() != 1000 || tr.Unique() != 300 {
		t.Fatalf("len=%d unique=%d after refill", tr.Len(), tr.Unique())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertCacheSurvivesMutations(t *testing.T) {
	// Hammer one key (cache-hit path), interleave removals and clears, and
	// verify the bookkeeping never desyncs.
	tr := New()
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			tr.Insert(42)
			tr.Insert(1000 + float64(i)) // disjoint from the hot key
		}
		if got := tr.Count(42); got != 100 {
			t.Fatalf("round %d: Count(42) = %d", round, got)
		}
		// Remove the hot key entirely; its cache entry must not resurrect it.
		for i := 0; i < 100; i++ {
			if !tr.Remove(42) {
				t.Fatalf("round %d: Remove(42) #%d failed", round, i)
			}
		}
		if got := tr.Count(42); got != 0 {
			t.Fatalf("round %d: Count(42) = %d after removal", round, got)
		}
		tr.Insert(42) // re-insert lands on a fresh node, not the freed slot's ghost
		if got := tr.Count(42); got != 1 {
			t.Fatalf("round %d: Count(42) = %d after re-insert", round, got)
		}
		_ = tr.Select(1)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		tr.Clear()
		if !tr.Empty() {
			t.Fatal("Clear left elements")
		}
	}
}

func TestLazyWeightsRebuild(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(9))
	ref := make([]float64, 0, 3000)
	for i := 0; i < 3000; i++ {
		v := math.Floor(rng.Float64() * 250)
		tr.Insert(v)
		ref = append(ref, v)
	}
	sort.Float64s(ref)
	// Select triggers the rebuild; afterwards invariants must validate the
	// weight bookkeeping (the tree is clean).
	for _, r := range []uint64{1, 500, 1500, 3000} {
		if got, want := tr.Select(r), ref[r-1]; got != want {
			t.Fatalf("Select(%d) = %v, want %v", r, got, want)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Mutate again (weights go stale), then read again.
	tr.Insert(-5)
	if got := tr.Select(1); got != -5 {
		t.Fatalf("Select(1) = %v after insert, want -5", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSelectRanks(t *testing.T) {
	tr := New()
	for i := 1; i <= 100; i++ {
		tr.Insert(float64(i))
	}
	ranks := []uint64{1, 1, 50, 90, 99, 100}
	out := make([]float64, len(ranks))
	tr.SelectRanks(ranks, out)
	for i, r := range ranks {
		if want := tr.Select(r); out[i] != want {
			t.Fatalf("SelectRanks[%d] (rank %d) = %v, want %v", i, r, out[i], want)
		}
	}
	// Empty request is a no-op even on an empty tree.
	New().SelectRanks(nil, nil)
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

// cacheHit reports whether InsertN(key, ·) would be answered by the insert
// cache (test-side mirror of the lookup at the top of InsertN).
func (t *Tree) cacheHit(key float64) bool {
	if t.cache == nil {
		return false
	}
	e := &t.cache[t.slot(key)]
	return e.idx != nilIdx && e.epoch == t.epoch && e.key == key
}

func TestNewSizedCacheSlots(t *testing.T) {
	for _, c := range []struct{ maxUnique, slots int }{
		{-1, 2}, {0, 2}, {1, 2}, {2, 4}, {3, 8}, {10, 32}, {16, 32}, {128, 256},
		{500, 1024}, {512, 1024}, {513, 1024}, {1 << 20, 1024}, {math.MaxInt, 1024},
	} {
		tr := NewSized(c.maxUnique)
		tr.Insert(1)
		if len(tr.cache) != c.slots {
			t.Errorf("NewSized(%d): %d cache slots, want %d", c.maxUnique, len(tr.cache), c.slots)
		}
	}
	tr := New()
	tr.Insert(1)
	if len(tr.cache) != cacheSize {
		t.Errorf("New: %d cache slots, want %d", len(tr.cache), cacheSize)
	}
}

// TestSizedCacheIsOnlyACache: a tree whose cache is far too small for what
// it holds (every slot contended) must stay the same multiset as a
// default-sized one under inserts, removals and clears.
func TestSizedCacheIsOnlyACache(t *testing.T) {
	small, ref := NewSized(1), New()
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 20_000; step++ {
		key := float64(rng.Intn(300))
		switch op := rng.Intn(100); {
		case op < 70:
			n := uint64(1 + rng.Intn(3))
			small.InsertN(key, n)
			ref.InsertN(key, n)
		case op < 99:
			if small.Remove(key) != ref.Remove(key) {
				t.Fatalf("step %d: Remove(%v) disagrees", step, key)
			}
		default:
			small.Clear()
			ref.Clear()
		}
		if small.Len() != ref.Len() || small.Unique() != ref.Unique() || small.Count(key) != ref.Count(key) {
			t.Fatalf("step %d: len %d/%d unique %d/%d count(%v) %d/%d", step,
				small.Len(), ref.Len(), small.Unique(), ref.Unique(), key, small.Count(key), ref.Count(key))
		}
	}
	if err := small.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestClearEpochWrap: cache entries are validated by a 32-bit epoch that
// Clear bumps; when it wraps, an entry written 2^32 Clears ago must not
// come back to life and credit its key's inserts to whatever node now sits
// at its index.
func TestClearEpochWrap(t *testing.T) {
	tr := New()
	tr.Insert(7) // cache: {7 -> node 1, epoch 0}
	tr.epoch = math.MaxUint32
	tr.Clear() // epoch wraps to 0
	tr.Insert(8)
	tr.Insert(7)
	if tr.Count(7) != 1 || tr.Count(8) != 1 || tr.Unique() != 2 {
		t.Fatalf("stale cache entry revived: count(7)=%d count(8)=%d unique=%d", tr.Count(7), tr.Count(8), tr.Unique())
	}
}

// TestSizedCacheHitRate measures what the period-sized insert cache gives
// up against the 1024-slot default on the tree core.Pool's workbenches are:
// Cleared every period, fed run-length-grouped, 3-digit-quantized NetMon
// telemetry. A hit needs the key to have been inserted earlier in the SAME
// period, so the rate is bounded by value repetition within a period, not
// by the table; the smaller table may only lose conflict misses on top.
func TestSizedCacheHitRate(t *testing.T) {
	q := compress.NewQuantizer(3)
	data := q.AppendQuantized(nil, workload.Generate(workload.NewNetMon(1), 1<<18))
	rate := func(tr *Tree, period int) float64 {
		hits, descents := 0, 0
		for off := 0; off+period <= len(data); off += period {
			for i := off; i < off+period; {
				j := i + 1
				for j < off+period && data[j] == data[i] {
					j++
				}
				if tr.cacheHit(data[i]) {
					hits++
				}
				descents++
				tr.InsertN(data[i], uint64(j-i))
				i = j
			}
			tr.Clear()
		}
		return float64(hits) / float64(descents)
	}
	for _, period := range []int{16, 128, 1000} {
		sized, full := rate(NewSized(period), period), rate(New(), period)
		t.Logf("period %4d: hit rate %.3f with the sized cache, %.3f with %d slots", period, sized, full, cacheSize)
		if sized < full-0.02 {
			t.Errorf("period %d: sized cache hits %.3f of inserts, the default %.3f", period, sized, full)
		}
	}
}
