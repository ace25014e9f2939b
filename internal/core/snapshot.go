package core

import (
	"fmt"
	"slices"
	"sync"
)

// Snapshot is a point-in-time, immutable capture of a QLOVE operator's
// window state: the resident sub-window summaries plus the Level-2 running
// sums. Snapshots are values — safe to retain, read from any goroutine and
// merge long after the operator that produced them has moved on (a summary's
// block is never written after seal and never recycled, so the capture
// shares it without copying and may outlive the summary's expiry).
//
// Snapshots compose: Merge combines captures of operators that consumed
// disjoint sub-streams of one logical stream (one per ingestion thread,
// engine shard or datacenter pod) into a single logical-window view, as
// sketched in the paper's conclusion ("our quantile design can deliver
// better aggregate throughput ... in distributed computing"). The
// combination follows the same two-level logic as a single operator:
// Level-2 estimates are the mean of every resident sub-window quantile
// across all captures (each capture's sub-windows are themselves i.i.d.
// samples of the stream under the paper's assumptions), and few-k-managed
// quantiles merge the cached tails and samples of all captures, scaling
// the read rank by the number of merged sub-streams (the logical window is
// streams×N elements).
//
// For a single-stream capture (Streams() == 1), Estimates is bit-for-bit
// identical to the Result() the operator would have returned at the same
// instant.
type Snapshot struct {
	sh        *Shape // nil only in the zero Snapshot (see shape)
	streams   int    // merged sub-streams; 0 marks the zero Snapshot
	sums      []float64
	summaries []Summary
	// sealGen is the source operator's seal-generation clock at capture
	// time (see Policy.SealGen); 0 for merged captures and for captures
	// rebuilt from sources that do not track generations (wire v1).
	sealGen uint64
}

// Snapshot captures the operator's current window state. It is O(l +
// resident summaries): the summary headers are copied by value but their
// blocks — immutable after seal — are shared. It may be called from
// any goroutine, concurrently with the owner's Observe*, Expire, EndPeriod
// and Reset: the capture is the sums, summaries and SealGen of one instant
// between two of the owner's Level-2 writes, never a torn mix.
func (p *Policy) Snapshot() Snapshot {
	p.agg.mu.Lock()
	defer p.agg.mu.Unlock()
	return Snapshot{
		sh:        p.sh,
		streams:   1,
		sums:      append([]float64(nil), p.agg.sums...),
		summaries: append([]Summary(nil), p.agg.summaries...),
		sealGen:   p.sealGen,
	}
}

// IsZero reports whether s is the zero Snapshot (no capture at all — as
// opposed to a capture of an operator that has sealed nothing yet).
func (s Snapshot) IsZero() bool { return s.streams == 0 }

// shape returns the capture's shape; the zero Snapshot's is the zero
// configuration's, with nothing managed.
func (s Snapshot) shape() *Shape {
	if s.sh == nil {
		return &zeroShape
	}
	return s.sh
}

// Streams returns the number of merged sub-streams (1 for a direct
// capture); the logical window spans Streams()×Size elements.
func (s Snapshot) Streams() int { return s.streams }

// SubWindows returns the number of resident sub-window summaries across
// all merged sub-streams.
func (s Snapshot) SubWindows() int { return len(s.summaries) }

// Elements returns the total element count across resident summaries.
func (s Snapshot) Elements() int {
	n := 0
	for i := range s.summaries {
		n += s.summaries[i].Count()
	}
	return n
}

// Config returns the configuration the captured operator ran with.
func (s Snapshot) Config() Config { return s.shape().cfg }

// SealGen returns the seal-generation clock of the captured operator at
// capture time: the resident summaries are generations
// (SealGen-SubWindows, SealGen]. It is 0 for merged captures (a merged
// capture spans several independent clocks) and for captures decoded from
// generation-less sources (wire format v1), which therefore cannot anchor a
// delta export.
func (s Snapshot) SealGen() uint64 { return s.sealGen }

// ErrMismatched reports an attempt to merge shards with different
// configurations.
var ErrMismatched = fmt.Errorf("shards have mismatched configurations")

// Merge combines two snapshots of disjoint sub-streams of one logical
// stream. The zero Snapshot is the identity, so a fold over any number of
// captures can start from Snapshot{}. Both captures must come from
// operators with FULLY identical configurations (not just merge-shape
// fields: Digits, SampleKOnly etc. change what Estimates computes, and a
// lax check would make a.Merge(b) and b.Merge(a) answer differently);
// ErrMismatched is wrapped otherwise.
func (s Snapshot) Merge(o Snapshot) (Snapshot, error) {
	if s.IsZero() {
		return o, nil
	}
	if o.IsZero() {
		return s, nil
	}
	if !s.sh.Equal(o.sh) {
		return Snapshot{}, fmt.Errorf("qlove: %w", ErrMismatched)
	}
	out := Snapshot{
		sh:      s.sh,
		streams: s.streams + o.streams,
		sums:    make([]float64, len(s.sums)),
	}
	for i := range out.sums {
		out.sums[i] = s.sums[i] + o.sums[i]
	}
	out.summaries = make([]Summary, 0, len(s.summaries)+len(o.summaries))
	out.summaries = append(out.summaries, s.summaries...)
	out.summaries = append(out.summaries, o.summaries...)
	return out, nil
}

// MergeSnapshots folds a slice of snapshots left to right.
func MergeSnapshots(snaps []Snapshot) (Snapshot, error) {
	var out Snapshot
	for _, sn := range snaps {
		var err error
		if out, err = out.Merge(sn); err != nil {
			return Snapshot{}, err
		}
	}
	return out, nil
}

// Estimate answers the single quantile phi from the captured state. It is
// the aggregator-consumer convenience over Estimates: phi must be one of
// the CONFIGURED quantiles (compared exactly — the guard against silent
// interpolation: answering ϕ=0.95 from a capture configured for {0.9,
// 0.99} would require interpolating between estimates with different error
// characteristics, so it is refused rather than approximated). ok is false
// for the zero Snapshot and for any ϕ the captured operator was not
// configured to answer.
func (s Snapshot) Estimate(phi float64) (float64, bool) {
	if s.IsZero() {
		return 0, false
	}
	i := slices.Index(s.sh.cfg.Phis, phi)
	if i < 0 {
		return 0, false
	}
	if len(s.summaries) == 0 {
		return 0, true
	}
	mi := slices.Index(s.sh.managed, i)
	var sc *mergeScratch
	if mi >= 0 {
		sc = scratchPool.Get().(*mergeScratch)
		defer scratchPool.Put(sc)
	}
	est, _ := answerAt(s.sh, s.sums, s.summaries, s.streams, sc, i, mi)
	return est, true
}

// Estimates answers the configured quantiles from the captured state,
// mirroring Policy.Result exactly: non-high quantiles come from the
// Level-2 average over every resident sub-window quantile; few-k-managed
// quantiles select between Level 2, top-k merging and sample-k merging per
// §4.3, with the few-k read rank scaled to the streams×N logical window.
// With no resident summaries it returns zeros, one per ϕ.
func (s Snapshot) Estimates() []float64 {
	sh := s.shape()
	var sc *mergeScratch
	if len(sh.managed) > 0 && len(s.summaries) > 0 {
		sc = scratchPool.Get().(*mergeScratch)
		defer scratchPool.Put(sc)
	}
	return answer(sh, s.sums, s.summaries, s.streams, sc, nil)
}

// scratchPool lends the few-k merge scratch to Estimates and Estimate, which
// any goroutine may call on a capture: there is no owner to keep one.
var scratchPool = sync.Pool{New: func() any { return new(mergeScratch) }}
