package core

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/window"
)

// TestSort16ZeroOne is the 0-1 principle for the leaf network: a
// comparator network that sorts every input of zeros and ones sorts every
// input. All 2^16 such inputs go through sort16 as keys, and their
// prefixes of every leaf length 2–16 through sortLeaf as values.
func TestSort16ZeroOne(t *testing.T) {
	for x := 0; x < 1<<16; x++ {
		var k [16]uint64
		ones := 0
		for i := range k {
			k[i] = uint64(x >> i & 1)
			ones += int(k[i])
		}
		sort16(&k)
		for i := range k {
			if want := b2i(i >= 16-ones); k[i] != uint64(want) {
				t.Fatalf("sort16 of %016b: %v", x, k)
			}
		}
		for n := 2; n <= 16; n++ {
			var v [16]float64
			ones := 0
			for i := range n {
				v[i] = float64(x >> i & 1)
				ones += x >> i & 1
			}
			sortLeaf(v[:n])
			for i := range n {
				if want := float64(b2i(i >= n-ones)); v[i] != want {
					t.Fatalf("sortLeaf of the %d lowest bits of %016b: %v", n, x, v[:n])
				}
			}
		}
	}
}

// TestSortKeyOrder: the keys order floats as < does, −0 keys just below
// +0, and fromKey gives every value back bit for bit.
func TestSortKeyOrder(t *testing.T) {
	const largestSubnormal = 0x1p-1022 - 0x1p-1074
	var vs []float64
	for _, v := range []float64{
		0, math.SmallestNonzeroFloat64, largestSubnormal, 0x1p-1022, 0x1p-1022 * (1 + 0x1p-52),
		0.5, 1, 1e300, math.MaxFloat64, math.Inf(1),
	} {
		vs = append(vs, v, -v)
	}
	for _, a := range vs {
		if k := sortKey(a); math.Float64bits(fromKey(k)) != math.Float64bits(a) {
			t.Errorf("fromKey(sortKey(%v)) = %v (bits %#x), want bits %#x", a, fromKey(k), math.Float64bits(fromKey(k)), math.Float64bits(a))
		}
		for _, b := range vs {
			ka, kb := sortKey(a), sortKey(b)
			if a == 0 && b == 0 {
				if want := math.Signbit(a) && !math.Signbit(b); (ka < kb) != want {
					t.Errorf("key(%v) < key(%v) is %v, want %v", a, b, ka < kb, want)
				}
				continue
			}
			if (a < b) != (ka < kb) {
				t.Errorf("%v < %v is %v, but key %#x < %#x is %v", a, b, a < b, ka, kb, ka < kb)
			}
		}
	}
}

// sealKernelInputs are the differential test's input families; keys(k)
// draws values whose keys vary in their k lowest bytes, the others are
// shaped like telemetry and its corner cases.
func sealKernelInputs() map[string]func(rng *rand.Rand) float64 {
	in := map[string]func(rng *rand.Rand) float64{
		"integers": func(rng *rand.Rand) float64 { return float64(rng.Intn(5000)) },
		"decimals": func(rng *rand.Rand) float64 { return float64(rng.Intn(2000)) * 0.37 },
		"signs":    func(rng *rand.Rand) float64 { return float64(rng.Intn(601) - 300) },
		"specials": func(rng *rand.Rand) float64 {
			return [...]float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, -1, 7e-300, 3}[rng.Intn(8)]
		},
		"duplicates": func(rng *rand.Rand) float64 { return [...]float64{2.5, 2.5, 2.5, 40, -0.125}[rng.Intn(5)] },
	}
	for k := 1; k <= 8; k++ {
		mask := ^uint64(0) >> (64 - 8*k)
		base := sortKey(1000.5)
		in[fmt.Sprintf("keys%d", k)] = func(rng *rand.Rand) float64 {
			for {
				if v := fromKey(base ^ rng.Uint64()&mask); !math.IsNaN(v) {
					return v
				}
			}
		}
	}
	return in
}

// TestSealKernelArmsMatchReference seals every input family at every
// length 1–300 and at 1 000 by each of the seal's two kernels — selection
// (network leaves) and the radix sort — under a deep-tail plan (window 16
// periods of 1 000) and a shallow one (window 4 periods of 300), and holds
// each summary to referenceSeal's, byte for byte. Between them the
// families' keys vary in every count of bytes from 1 to 8.
func TestSealKernelArmsMatchReference(t *testing.T) {
	inputs := sealKernelInputs()
	names := slices.Sorted(maps.Keys(inputs))
	lengths := []int{1000}
	for n := 1; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	var varied [9]bool
	sc := new(mergeScratch)
	for _, spec := range []window.Spec{{Size: 16_000, Period: 1000}, {Size: 1200, Period: 300}} {
		p := mustNew(t, Config{Spec: spec, Phis: builderPhis, FewK: true})
		for _, name := range names {
			rng := rand.New(rand.NewSource(int64(len(name))))
			for _, n := range lengths {
				values := make([]float64, n)
				first, diff := uint64(0), uint64(0)
				for i := range values {
					values[i] = inputs[name](rng)
					if i == 0 {
						first = sortKey(values[0])
					}
					diff |= sortKey(values[i]) ^ first
				}
				varied[varyingBytes(diff)] = true
				want := referenceSeal(p, values, nil)
				for _, arm := range []string{"select", "radix"} {
					b := newBuilder(p.sh)
					b.vals = append(b.vals, values...)
					b.plan()
					if arm == "select" {
						selectSeal(b.vals, b.reqs, n-b.maxTail)
					} else if !sc.radixSort(b.vals, 8) {
						t.Fatalf("%s, %d values: radixSort refused with every byte allowed", name, n)
					}
					if got := b.assemble(p.sh.budgets); !sameSummary(&got, &want) {
						t.Fatalf("window %d/%d, %s, %d values, %s arm: summary differs from the full-sort reference:\n got %v\nwant %v",
							spec.Size, spec.Period, name, n, arm, got.block, want.block)
					}
				}
			}
		}
	}
	for k := 1; k <= 8; k++ {
		if !varied[k] {
			t.Errorf("no input's keys vary in exactly %d bytes", k)
		}
	}
}

// TestRadixSortRefusesAndSorts: radixSort sorts exactly when at most
// maxBytes key bytes vary, leaves a refused segment as it was, and puts −0
// before +0.
func TestRadixSortRefusesAndSorts(t *testing.T) {
	sc := new(mergeScratch)
	// The keys of 1–4 vary in their top two bytes only.
	ints := []float64{3, 1, 4, 1, 2, 4, 3}
	kept := slices.Clone(ints)
	if sc.radixSort(kept, 1) || !slices.Equal(kept, ints) {
		t.Fatalf("radixSort with one byte allowed, two varying: %v, want it refused and %v kept", kept, ints)
	}
	if !sc.radixSort(kept, 2) || !slices.Equal(kept, []float64{1, 1, 2, 3, 3, 4, 4}) {
		t.Fatalf("radixSort with two bytes allowed, two varying: %v, want it sorted", kept)
	}
	// A key of −0 and one of +0 differ in every byte.
	negZero := math.Copysign(0, -1)
	v := []float64{3, 0, negZero, 1, 2, 0, negZero, -1}
	if sc.radixSort(slices.Clone(v), 7) {
		t.Fatal("radixSort sorted ±0 with seven bytes allowed")
	}
	if !sc.radixSort(v, 8) {
		t.Fatal("radixSort refused with every byte allowed")
	}
	want := []float64{-1, negZero, negZero, 0, 0, 1, 2, 3}
	for i := range want {
		if math.Float64bits(v[i]) != math.Float64bits(want[i]) {
			t.Fatalf("radixSort = %v, want %v, −0 before +0", v, want)
		}
	}
}

// TestSealKernelDispatch pins where the seal's cost check sorts outright:
// at 512/128 a NetMon-like sub-window (three key bytes vary) is
// radix-sorted and a Search-like one (four) selected; at the paper's
// period of 1 000 the ϕ = 0.99 tail is the whole sub-window and even six
// varying bytes sort outright; at 16 000 the plan reads a dozen ranks and
// a 1 281-value tail, and selection wins from NetMon's three varying bytes
// up; a 16-value sub-window is one network leaf.
func TestSealKernelDispatch(t *testing.T) {
	for _, c := range []struct {
		spec   window.Spec
		lo, hi int // radixBytes must lie in [lo, hi]
	}{
		{window.Spec{Size: 512, Period: 128}, 3, 3},
		{window.Spec{Size: 128_000, Period: 1000}, 6, 8},
		{window.Spec{Size: 128_000, Period: 16_000}, 0, 2},
		{window.Spec{Size: 64, Period: 16}, 0, 0},
	} {
		p := mustNew(t, Config{Spec: c.spec, Phis: builderPhis, FewK: true})
		b := newBuilder(p.sh)
		b.vals = append(b.vals, make([]float64, c.spec.Period)...)
		b.plan()
		if rb := int(b.radixBytes); rb < c.lo || rb > c.hi {
			t.Errorf("%d/%d: radix sort for up to %d varying bytes, want %d–%d", c.spec.Size, c.spec.Period, rb, c.lo, c.hi)
		}
	}
}
