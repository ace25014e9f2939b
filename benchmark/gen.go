package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"repro"
	"repro/internal/loadgen"
	wl "repro/internal/workload"
)

// Operator configuration common to all four workloads (ISSUE 11).
var phis = []float64{0.5, 0.9, 0.99, 0.999}

const (
	zipfSkew   = 1.1
	shards     = 4
	queueDepth = 256
	// noneHot marks a HotSchedule phase with no hot key: any index beyond
	// the key universe makes the storm coin a no-op.
	noneHot = 1 << 30
)

func operatorConfig(spec qlove.Window) qlove.Config {
	return qlove.Config{Spec: spec, Phis: phis, FewK: true}
}

// reportSeq is one engine's deterministic input: a key index per report
// and a value ring the reports walk, both materialised before any clock
// starts. The first numKeys reports are the enumeration pass (every key
// reports once — the heartbeat that makes the resident key count exactly
// the key universe); set-up pushes them as the warm-up, the timed region pushes the
// traffic after them.
type reportSeq struct {
	names  []string
	keyIdx []int32
	ring   []float64
	report int
}

func (s *reportSeq) reports() int { return len(s.keyIdx) }
func (s *reportSeq) traffic() int { return len(s.keyIdx) - len(s.names) }
func (s *reportSeq) key(i int) string {
	return s.names[s.keyIdx[i]]
}
func (s *reportSeq) vals(i int) []float64 {
	off := (i % (len(s.ring) / s.report)) * s.report
	return s.ring[off : off+s.report]
}

// keyValues replays key k's whole sub-stream, in push order.
func (s *reportSeq) keyValues(k int32) []float64 {
	var out []float64
	for i, ki := range s.keyIdx {
		if ki == k {
			out = append(out, s.vals(i)...)
		}
	}
	return out
}

// genSeq draws a sequence of numKeys enumeration reports plus traffic
// reports. ringReports bounds the value ring (the reports cycle through it,
// so memory and cache footprint stay fixed however long the run). With a
// schedule, each traffic report lands on the scheduled hot key with
// probability 1/2 and otherwise follows the Zipf draw.
func genSeq(seed int64, numKeys, traffic, report, ringReports int, sched loadgen.HotSchedule) (*reportSeq, error) {
	gen, err := wl.NewKeyed(seed, numKeys, zipfSkew, wl.NewNetMon(seed))
	if err != nil {
		return nil, err
	}
	if ringReports > numKeys+traffic {
		ringReports = numKeys + traffic
	}
	s := &reportSeq{
		names:  make([]string, numKeys),
		keyIdx: make([]int32, numKeys+traffic),
		ring:   make([]float64, ringReports*report),
		report: report,
	}
	gen.Values(s.ring[:0:len(s.ring)])
	for i := range s.names {
		s.names[i] = gen.Key(i)
		s.keyIdx[i] = int32(i)
	}
	coin := rand.New(rand.NewSource(seed ^ 0x5707)) // independent of the key and value streams
	for i := 0; i < traffic; i++ {
		hot := noneHot
		if sched != nil {
			hot = sched.KeyAt(float64(i) / float64(traffic))
		}
		if hot < numKeys && coin.Float64() < 0.5 {
			s.keyIdx[numKeys+i] = int32(hot)
			continue
		}
		key, _ := gen.NextReport(nil)
		idx, err := strconv.Atoi(key[len("key-"):])
		if err != nil {
			return nil, fmt.Errorf("key %q: %w", key, err)
		}
		s.keyIdx[numKeys+i] = int32(idx)
	}
	return s, nil
}

// partition splits the traffic reports between n producers by key, so one
// key's reports stay with one producer in sequence order: per-key streams
// keep their boundaries whatever the interleaving, which is what lets the
// gates demand bit-identity from a concurrent run. Keys go, heaviest
// first, to the lighter producer, so the producers finish together. The
// shared keys (the scheduled hot keys) alternate between producers instead:
// a key that is half the traffic cannot belong to one of two producers
// without that producer falling a phase behind the other.
func (s *reportSeq) partition(n int, shared map[int32]bool) [][]int32 {
	counts := make([]int, len(s.names))
	for _, k := range s.keyIdx[len(s.names):] {
		counts[k]++
	}
	order := make([]int32, len(counts))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool { return counts[order[a]] > counts[order[b]] })
	owner := make([]int8, len(counts))
	load := make([]int, n)
	for _, k := range order {
		if shared[k] {
			continue
		}
		p := 0
		for q := 1; q < n; q++ {
			if load[q] < load[p] {
				p = q
			}
		}
		owner[k] = int8(p)
		load[p] += counts[k]
	}
	parts := make([][]int32, n)
	turn := 0
	for i := len(s.names); i < len(s.keyIdx); i++ {
		k := s.keyIdx[i]
		p := int(owner[k])
		if shared[k] {
			p = turn % n
			turn++
		}
		parts[p] = append(parts[p], int32(i))
	}
	return parts
}

// shadowKeys picks the accuracy sample: the 8 hottest keys plus 8 cold
// keys drawn (by the seed) from those that receive at least minReports
// reports, so each has evaluations to score.
func (s *reportSeq) shadowKeys(seed int64, minReports int) []int32 {
	counts := make([]int, len(s.names))
	for _, k := range s.keyIdx {
		counts[k]++
	}
	keys := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	var cold []int32
	for k := 64; k < len(counts); k++ {
		if counts[k] >= minReports {
			cold = append(cold, int32(k))
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0xc01d))
	rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	if len(cold) > 8 {
		cold = cold[:8]
	}
	return append(keys, cold...)
}

// zipfKeys draws n key indexes from the workload's own key distribution —
// the keys a dashboard reads are the keys the fleet writes.
func zipfKeys(seed int64, numKeys, n int) []int32 {
	rng := rand.New(rand.NewSource(seed ^ 0x9e37))
	z := rand.NewZipf(rng, zipfSkew, 1, uint64(numKeys-1))
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(z.Uint64())
	}
	return out
}

// scaled sizes a count by the -scale factor, never below min.
func scaled(n int, scale float64, min int) int {
	v := int(math.Round(float64(n) * scale))
	if v < min {
		v = min
	}
	return v
}
