package qlove

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestEngineQueryAllocs pins what a read costs the allocator: the two slice
// copies of the capture, nothing for a queue request or a reply channel.
func TestEngineQueryAllocs(t *testing.T) {
	cfg := Config{Spec: Window{Size: 64, Period: 16}, Phis: []float64{0.5, 0.99}, FewK: true}
	e, err := NewEngine(EngineConfig{Config: cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Push("k", make([]float64, 80)); err != nil {
		t.Fatal(err)
	}
	settle(e)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := e.Query("k"); !ok {
			t.Fatal("resident key not queryable")
		}
	}); allocs > 2 {
		t.Fatalf("Query of a resident unsalted key allocates %v times, want <= 2", allocs)
	}
}

// --- Query vs. concurrent ingest, churn and routing: differential oracle --

// The oracle of TestEngineQueryIsSomeSealedState. Every logical key is
// pushed by ONE producer from a seeded script, so the element sequence of
// every internal stream (a plain key; each sub-stream of a fan key the
// producer itself escalates and de-escalates) is known in advance. Element n
// of key k has the value k<<qsKeyShift + n: values identify their key — a
// capture holding another key's values is the recycled-operator hazard —
// and rise along every stream, so a capture locates itself: its newest
// summary's maximum is the last element it sealed, and with SealGen that
// gives the element the stream (re)started from, wherever TTL sweeps and
// evictions the scripts do not control put it. A reference Monitor replayed
// from that element records every (SealGen, SubWindows) state the stream
// passes through.
const (
	qsKeyShift = 20
	qsSalt     = 3
)

var (
	qsSpec = Window{Size: 64, Period: 16}
	// ϕ=1 makes every summary carry its sub-window's maximum. Digits < 0:
	// quantization would fold neighbouring values (and keys) together.
	qsCfg = Config{Spec: qsSpec, Phis: []float64{0.5, 0.9, 0.99, 1}, FewK: true, Digits: -1}
)

// qsStream is one internal stream's scripted element sequence.
type qsStream struct {
	key    int
	elems  []int32      // the key's element numbers routed here, ascending
	starts map[int]bool // positions in elems where a batch begins
	refs   map[int]map[qsStateID]Snapshot
}

type qsStateID struct {
	gen uint64
	sw  int
}

func qsValue(key int, n int32) float64 { return float64(key<<qsKeyShift + int(n)) }

// states replays the stream from position a through a reference Monitor,
// one element at a time, recording the capture of every state passed.
func (s *qsStream) states(t *testing.T, a int) map[qsStateID]Snapshot {
	if ref, ok := s.refs[a]; ok {
		return ref
	}
	pol, err := New(qsCfg)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(pol, qsSpec)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[qsStateID]Snapshot{{}: pol.Snapshot()}
	for _, n := range s.elems[a:] {
		mon.Push(qsValue(s.key, n))
		id := qsStateID{pol.SealGen(), pol.SubWindowCount()}
		if _, seen := ref[id]; !seen {
			ref[id] = pol.Snapshot()
		}
	}
	s.refs[a] = ref
	return ref
}

// check holds one single-stream capture to the oracle and returns the
// position its stream (re)started from (-1: nothing sealed yet).
func (s *qsStream) check(t *testing.T, sn Snapshot) (start int, err error) {
	if sn.Streams() != 1 {
		return 0, fmt.Errorf("%d merged streams in a single-stream read", sn.Streams())
	}
	id := qsStateID{sn.SealGen(), sn.SubWindows()}
	if id.sw == 0 {
		if id.gen != 0 {
			return 0, fmt.Errorf("generation %d with no resident summary", id.gen)
		}
		return -1, nil
	}
	lo := qsValue(s.key, 0)
	est := sn.Estimates()
	for _, v := range est {
		if v < lo || v >= qsValue(s.key+1, 0) {
			return 0, fmt.Errorf("estimates %v outside the key's own range [%v, %v)", est, lo, qsValue(s.key+1, 0))
		}
	}
	sums := sn.Parts().Summaries
	last := int32(sums[len(sums)-1].Quantile(len(qsCfg.Phis)-1) - lo)
	q := sort.Search(len(s.elems), func(i int) bool { return s.elems[i] >= last })
	if q == len(s.elems) || s.elems[q] != last {
		return 0, fmt.Errorf("newest summary ends at element %d, which this stream never carried", last)
	}
	start = q + 1 - int(id.gen)*qsSpec.Period
	if start < 0 || !s.starts[start] {
		return 0, fmt.Errorf("generation %d ending at position %d starts at %d, not a batch boundary", id.gen, q, start)
	}
	want, ok := s.states(t, start)[id]
	if !ok {
		return 0, fmt.Errorf("state (gen %d, %d sub-windows) is none the stream passes through from position %d", id.gen, id.sw, start)
	}
	if !qsSame(sn, want) {
		return 0, fmt.Errorf("state (gen %d, %d sub-windows) from position %d: estimates %v, reference %v", id.gen, id.sw, start, est, want.Estimates())
	}
	return start, nil
}

// qsSame compares two captures by everything a reader can see.
func qsSame(a, b Snapshot) bool {
	if a.Streams() != b.Streams() || a.SealGen() != b.SealGen() || a.SubWindows() != b.SubWindows() || a.Elements() != b.Elements() {
		return false
	}
	ea, eb := a.Estimates(), b.Estimates()
	for i := range ea {
		if math.Float64bits(ea[i]) != math.Float64bits(eb[i]) {
			return false
		}
	}
	return true
}

type qsOpKind int

const (
	qsPush qsOpKind = iota
	qsEvict
	qsEscalate
	qsDeescalate
)

type qsOp struct {
	kind   qsOpKind
	key    int
	lo, hi int32 // qsPush: the key's elements [lo, hi)
}

// qsKey is one logical key: its name, values, and streams (one for a plain
// key; qsSalt for a fan key, slot 0 being the base stream that escalation
// renames to sub-stream 0).
type qsKey struct {
	name    string
	vals    []float64
	streams []*qsStream
}

// qsScript builds producer p's op sequence and the streams it implies. Even
// keys report whole periods, odd keys 1–23 values; every key naps (long
// enough for the TTL sweep) and is evicted by its producer once; the fan
// key is pushed several times a round and flipped at fixed rounds.
func qsScript(rng *rand.Rand, keys []*qsKey, own []int, fan int, rounds int) []qsOp {
	var ops []qsOp
	next := make(map[int]int32)
	push := func(k, slot int) {
		n := int32(qsSpec.Period)
		if k%2 == 1 {
			n = int32(1 + rng.Intn(23))
		}
		lo := next[k]
		next[k] = lo + n
		s := keys[k].streams[slot]
		s.starts[len(s.elems)] = true
		for e := lo; e < lo+n; e++ {
			s.elems = append(s.elems, e)
			keys[k].vals = append(keys[k].vals, qsValue(k, e))
		}
		ops = append(ops, qsOp{kind: qsPush, key: k, lo: lo, hi: lo + n})
	}
	napFrom := make(map[int]int)
	evictAt := make(map[int]int)
	for _, k := range own {
		napFrom[k] = rng.Intn(rounds)
		evictAt[k] = rng.Intn(rounds)
	}
	salt, ctr := 0, 0 // the fan key's route: 0 = never escalated, 1 = de-escalated
	for r := 0; r < rounds; r++ {
		switch r {
		case rounds / 8, 5 * rounds / 8:
			ops = append(ops, qsOp{kind: qsEscalate, key: fan})
			salt, ctr = qsSalt, 0
		case 3 * rounds / 8, 7 * rounds / 8:
			ops = append(ops, qsOp{kind: qsDeescalate, key: fan})
			salt, ctr = 1, 0
		}
		for i, k := range own {
			if r >= napFrom[k] && r < napFrom[k]+6 {
				continue
			}
			if r == evictAt[k] {
				ops = append(ops, qsOp{kind: qsEvict, key: k})
			}
			push(k, 0)
			if i%8 == 0 {
				slot := 0
				if salt > 1 {
					slot = ctr % salt
				}
				ctr++
				push(fan, slot)
			}
		}
	}
	return ops
}

// TestEngineQueryIsSomeSealedState: readers Query continuously while
// producers push period-aligned and unaligned reports to a few hundred keys
// that are evicted and re-minted (idle-key expiry on a fake clock the
// producers advance one second per push, explicit Evict), renamed by
// salt-1 escalations and their collapses, and escalated /
// de-escalated under them. Every capture must be a state the key's own
// deliveries produce — bit for bit the reference Monitor's for that
// (SealGen, SubWindows) — never a torn one and never another key's. A merged capture of a fan key must be MergeSnapshots of
// per-sub-stream states that each pass, bracketed by direct sub-stream
// reads before and after it. After a barrier, Query equals Snapshot.
//
// Mutations this test is recorded to fail under (see CHANGES.md, PR 21):
// Policy.Expire without the Level-2 lock; engineShard.query releasing keysMu
// before it calls Snapshot().
func TestEngineQueryIsSomeSealedState(t *testing.T) {
	const (
		producers = 3
		plainPer  = 80
		rounds    = 40
		readers   = 4
		keyTTL    = 800 * time.Second
	)
	rng := rand.New(rand.NewSource(21))
	var keys []*qsKey
	newKey := func(name string, streams int) int {
		k := &qsKey{name: name}
		for j := 0; j < streams; j++ {
			k.streams = append(k.streams, &qsStream{key: len(keys), starts: map[int]bool{}, refs: map[int]map[qsStateID]Snapshot{}})
		}
		keys = append(keys, k)
		return len(keys) - 1
	}
	scripts := make([][]qsOp, producers)
	var plain, fans []int
	for p := range scripts {
		var own []int
		for i := 0; i < plainPer; i++ {
			own = append(own, newKey(fmt.Sprintf("p%d-k%d", p, i), 1))
		}
		fan := newKey(fmt.Sprintf("p%d-fan", p), qsSalt)
		scripts[p] = qsScript(rng, keys, own, fan, rounds)
		plain, fans = append(plain, own...), append(fans, fan)
	}

	const shards = 4
	clk := newFakeClock(time.Unix(1_000_000, 0))
	e, err := NewEngine(EngineConfig{Config: qsCfg, Shards: shards, KeyTTLDuration: keyTTL, Clock: clk.now, Adapt: &AdaptConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	drained := drainResults(e)

	// subStreams reads a fan key's internal streams one by one.
	subStreams := func(name string) (out [qsSalt]Snapshot) {
		e.mu.RLock()
		defer e.mu.RUnlock()
		for j := range out {
			out[j], _ = e.queryOne(wire.SaltedName(name, byte(j)))
		}
		if out[0].IsZero() {
			out[0], _ = e.queryOne(name) // not escalated yet: the base stream
		}
		return out
	}

	var producing, working sync.WaitGroup
	var stop atomic.Bool
	for p := range scripts {
		producing.Add(1)
		go func(ops []qsOp) {
			defer producing.Done()
			for _, op := range ops {
				k := keys[op.key]
				switch op.kind {
				case qsPush:
					clk.advance(time.Second)
					if err := e.Push(k.name, k.vals[op.lo:op.hi]); err != nil {
						t.Error(err)
						return
					}
				case qsEvict:
					e.Evict(k.name)
				case qsEscalate:
					if _, ok := e.escalateKey(k.name, qsSalt); !ok {
						t.Errorf("escalation of %s refused", k.name)
					}
				case qsDeescalate:
					if _, ok := e.deescalateKey(k.name); !ok {
						t.Errorf("de-escalation of %s refused", k.name)
					}
				}
			}
		}(scripts[p])
	}
	// The mover: stream moves and evictions no script knows about. A move
	// is a salt-1 escalation (the whole stream renamed to sub-stream 0) or
	// its collapse back to the base name; Query of a salt-1 key merges one
	// resident stream, so its captures stay single-stream states.
	var moves int
	working.Add(1)
	go func() {
		defer working.Done()
		rng := rand.New(rand.NewSource(22))
		for !stop.Load() {
			switch k := plain[rng.Intn(len(plain))]; rng.Intn(4) {
			case 0:
				e.Evict(keys[k].name)
			case 1:
				e.Evict(keys[fans[rng.Intn(len(fans))]].name)
			default:
				name := keys[k].name
				var ok bool
				if ov := e.override(name); ov == nil {
					_, ok = e.escalateKey(name, 1)
				} else {
					_, ok = e.collapseKey(name, ov.maxSalt)
				}
				if ok {
					moves++
				}
			}
			runtime.Gosched()
		}
	}()

	type single struct {
		key int
		sn  Snapshot
	}
	type merged struct {
		key           int
		before, after [qsSalt]Snapshot
		sn            Snapshot
	}
	type seen struct {
		key  int
		id   qsStateID
		sums [2]uint64
	}
	singles := make([][]single, readers)
	mergeds := make([][]merged, readers)
	for r := 0; r < readers; r++ {
		working.Add(1)
		go func(r int) {
			defer working.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			// A reader keeps one capture per distinct state it meets; a torn
			// capture has sums no sealed state has, so it is always kept.
			dedup := map[seen]bool{}
			fresh := func(k int, sn Snapshot) bool {
				s := seen{key: k, id: qsStateID{sn.SealGen(), sn.SubWindows()}}
				if ps := sn.Parts().Sums; len(ps) > 0 {
					s.sums = [2]uint64{math.Float64bits(ps[0]), math.Float64bits(ps[len(ps)-1])}
				}
				if dedup[s] {
					return false
				}
				dedup[s] = true
				return true
			}
			for !stop.Load() {
				if rng.Intn(8) > 0 {
					k := plain[rng.Intn(len(plain))]
					if sn, ok := e.Query(keys[k].name); ok && fresh(k, sn) {
						singles[r] = append(singles[r], single{k, sn})
					}
					continue
				}
				k := fans[rng.Intn(len(fans))]
				m := merged{key: k, before: subStreams(keys[k].name)}
				var ok bool
				m.sn, ok = e.Query(keys[k].name)
				m.after = subStreams(keys[k].name)
				if ok && fresh(k, m.sn) {
					mergeds[r] = append(mergeds[r], m)
				}
			}
		}(r)
	}
	producing.Wait()
	stop.Store(true)
	working.Wait()

	var nSingle, nMerged, nBracketed int
	for r := range singles {
		for _, o := range singles[r] {
			nSingle++
			if _, err := keys[o.key].streams[0].check(t, o.sn); err != nil {
				t.Fatalf("Query(%s): %v", keys[o.key].name, err)
			}
		}
		for _, o := range mergeds[r] {
			nMerged++
			// Per sub-stream, the states it passed through between the two
			// bracketing reads; the merged capture must be one combination.
			cands := make([][]Snapshot, qsSalt)
			bracketed := true
			for j, s := range keys[o.key].streams {
				starts := [2]int{-1, -1}
				for i, sn := range []Snapshot{o.before[j], o.after[j]} {
					if sn.IsZero() {
						continue
					}
					if starts[i], err = s.check(t, sn); err != nil {
						t.Fatalf("Query(%s) sub-stream %d: %v", keys[o.key].name, j, err)
					}
				}
				switch {
				case o.before[j].IsZero() && o.after[j].IsZero():
					cands[j] = []Snapshot{{}}
				case o.before[j].IsZero() != o.after[j].IsZero() || starts[0] != starts[1]:
					bracketed = false // minted, evicted or restarted in between
				default:
					ref := s.states(t, max(starts[0], 0))
					for id, sn := range ref {
						lo, hi := o.before[j], o.after[j]
						if (id.gen > lo.SealGen() || id.gen == lo.SealGen() && id.sw <= lo.SubWindows()) &&
							(id.gen < hi.SealGen() || id.gen == hi.SealGen() && id.sw >= hi.SubWindows()) {
							cands[j] = append(cands[j], sn)
						}
					}
				}
			}
			if !bracketed {
				continue
			}
			nBracketed++
			found := false
			for _, s0 := range cands[0] {
				for _, s1 := range cands[1] {
					for _, s2 := range cands[2] {
						want, err := MergeSnapshots([]Snapshot{s0, s1, s2})
						if err != nil {
							t.Fatal(err)
						}
						found = found || qsSame(o.sn, want)
					}
				}
			}
			if !found {
				t.Fatalf("Query(%s): merged capture %v (%d streams, %d sub-windows) is no merge of states its sub-streams passed through between the bracketing reads",
					keys[o.key].name, o.sn.Estimates(), o.sn.Streams(), o.sn.SubWindows())
			}
		}
	}
	reminted := 0
	for _, key := range keys {
		for _, s := range key.streams {
			for start := range s.refs {
				if start > 0 {
					reminted++
				}
			}
		}
	}
	t.Logf("%d distinct single-stream captures, %d merged (%d bracketed); %d stream moves, %d streams met after a re-mint",
		nSingle, nMerged, nBracketed, moves, reminted)
	if nSingle < len(plain) || nBracketed == 0 || moves == 0 || reminted == 0 {
		t.Fatal("too few captures, stream moves or re-mints for the run to mean anything")
	}

	// Behind a barrier the two read tiers agree, and every stream has reached
	// the last state of its script.
	settle(e)
	full := e.Snapshot()
	for _, key := range keys {
		sn, ok := e.Query(key.name)
		want, wok := full.Get(key.name)
		if ok != wok || ok && !qsSame(sn, want) {
			t.Fatalf("settled Query(%s) differs from Snapshot().Get", key.name)
		}
		if len(key.streams) > 1 || !ok {
			continue
		}
		s := key.streams[0]
		start, err := s.check(t, sn)
		if err != nil {
			t.Fatalf("settled Query(%s): %v", key.name, err)
		}
		if start < 0 {
			continue
		}
		if sealed := (len(s.elems) - start) / qsSpec.Period; int(sn.SealGen()) != sealed {
			t.Fatalf("settled Query(%s): generation %d, its deliveries from position %d seal %d", key.name, sn.SealGen(), start, sealed)
		}
	}
	e.Close()
	<-drained
	if err, n := e.Err(); err != nil {
		t.Fatalf("engine saw %d failures, last: %v", n, err)
	}
}
