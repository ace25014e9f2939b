package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/window"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "regenerate the testdata golden blobs (every version)")

func mustPolicy(t testing.TB, cfg core.Config) *core.Policy {
	t.Helper()
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// randomConfig draws a valid configuration: window shape, ϕ set, few-k
// mode and quantization vary per iteration.
func randomConfig(rng *rand.Rand) core.Config {
	period := 8 << rng.Intn(5)         // 8..128
	size := period * (1 + rng.Intn(8)) // 1..8 sub-windows
	phiPool := []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999}
	lo := rng.Intn(len(phiPool) - 1)
	hi := lo + 1 + rng.Intn(len(phiPool)-lo-1)
	cfg := core.Config{
		Spec: window.Spec{Size: size, Period: period},
		Phis: phiPool[lo : hi+1],
		FewK: rng.Intn(2) == 0,
	}
	switch rng.Intn(4) {
	case 0:
		cfg.Digits = -1
	case 1:
		cfg.Digits = 2
	}
	if cfg.FewK {
		switch rng.Intn(4) {
		case 0:
			cfg.TopKOnly = true
		case 1:
			cfg.SampleKOnly = true
		case 2:
			cfg.Fraction = 0.25 + rng.Float64()/2
		}
	}
	return cfg
}

// TestRoundTripProperty: over randomized configurations and ingestion
// histories, encode→decode→Merge→Estimates is bit-identical to the
// never-serialized path, and the decoded parts deep-equal the originals.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 60; iter++ {
		cfg := randomConfig(rng)
		var snaps []core.Snapshot
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		shards := 1 + rng.Intn(3)
		for s := 0; s < shards; s++ {
			p := mustPolicy(t, cfg)
			n := cfg.Spec.Size + rng.Intn(2*cfg.Spec.Size)
			p.ObserveBatch(workload.Generate(workload.NewNetMon(rng.Int63()), n))
			snap := p.Snapshot()
			snaps = append(snaps, snap)
			if _, err := enc.Encode("", snap); err != nil {
				t.Fatalf("iter %d: encode: %v", iter, err)
			}
		}
		dec := NewDecoder(bytes.NewReader(buf.Bytes()))
		var decoded []core.Snapshot
		for {
			_, snap, err := dec.Decode()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("iter %d (%+v): decode: %v", iter, cfg, err)
			}
			decoded = append(decoded, snap)
		}
		if len(decoded) != shards {
			t.Fatalf("iter %d: %d frames decoded, want %d", iter, len(decoded), shards)
		}
		if got := dec.Consumed(); got != int64(buf.Len()) {
			t.Fatalf("iter %d: consumed %d of %d bytes", iter, got, buf.Len())
		}
		for s := range snaps {
			if !reflect.DeepEqual(decoded[s].Parts(), snaps[s].Parts()) {
				t.Fatalf("iter %d shard %d: decoded parts differ", iter, s)
			}
		}
		live, err := core.MergeSnapshots(snaps)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, err := core.MergeSnapshots(decoded)
		if err != nil {
			t.Fatalf("iter %d: decoded captures refuse to merge: %v", iter, err)
		}
		want, got := live.Estimates(), rebuilt.Estimates()
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("iter %d ϕ=%v: serialized merge %v != live merge %v",
					iter, cfg.Phis[j], got[j], want[j])
			}
		}
	}
}

// TestKeyedFraming: keys survive the trip and appended blobs decode as one
// stream.
func TestKeyedFraming(t *testing.T) {
	cfg := core.Config{Spec: window.Spec{Size: 200, Period: 50}, Phis: []float64{0.5, 0.99}, FewK: true}
	frameFor := func(key string, seed int64) []byte {
		p := mustPolicy(t, cfg)
		p.ObserveBatch(workload.Generate(workload.NewNetMon(seed), cfg.Spec.Size))
		return AppendFrame(nil, key, p.Snapshot())
	}
	// Two "worker blobs" concatenated — the append-friendly framing the
	// aggregator relies on.
	blob := append(frameFor("api/latency", 1), frameFor("", 2)...)
	blob = append(blob, frameFor("api/latency", 3)...)
	dec := NewDecoder(bytes.NewReader(blob))
	var keys []string
	for {
		key, snap, err := dec.Decode()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if snap.IsZero() {
			t.Fatal("decoded zero snapshot")
		}
		keys = append(keys, key)
	}
	if want := []string{"api/latency", "", "api/latency"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("keys %q, want %q", keys, want)
	}
}

// TestEncodeRejectsZeroSnapshot: the zero value has no config to describe
// itself with.
func TestEncodeRejectsZeroSnapshot(t *testing.T) {
	if _, err := NewEncoder(io.Discard).Encode("k", core.Snapshot{}); err == nil {
		t.Fatal("zero snapshot encoded")
	}
}

// validFrame builds one deterministic well-formed frame for the corruption
// table.
func validFrame(t testing.TB) []byte {
	t.Helper()
	p, err := core.New(core.Config{
		Spec: window.Spec{Size: 1600, Period: 400},
		Phis: []float64{0.5, 0.9, 0.99},
		FewK: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.ObserveBatch(workload.Generate(workload.NewNetMon(5), 2000))
	return AppendFrame(nil, "k", p.Snapshot())
}

// TestDecodeCorruptionTable: every malformed input yields a wrapped
// sentinel error — never a panic, never a silent misparse.
func TestDecodeCorruptionTable(t *testing.T) {
	frame := validFrame(t)
	flip := func(off int, b byte) []byte {
		c := append([]byte(nil), frame...)
		c[off] = b
		return c
	}
	cases := []struct {
		name string
		blob []byte
		want error
	}{
		{"empty mid-header", frame[:3], ErrTruncated},
		{"bad magic", flip(0, 'X'), ErrMagic},
		{"version zero", flip(4, 0), ErrVersion},
		{"version future", flip(4, 3), ErrVersion},
		{"unknown frame kind", flip(headerSize, 9), ErrCorrupt},
		{"payload length beyond stream", flip(6, 0xFF), ErrTruncated},
		{"payload length short", flip(6, 1), ErrCorrupt}, // trailing bytes parsed as next frame: bad magic OR corrupt payload
		{"inner count overflow", corruptInnerCount(frame), ErrCorrupt},
		{"digits 18", claimDigits(frame, 18), ErrCorrupt},
		{"digits 400", claimDigits(frame, 400), ErrCorrupt},
		{"flag bit 4", claimFlags(frame, 1<<4), ErrCorrupt},
		{"flag bit 5", claimFlags(frame, 1<<5), ErrCorrupt},
		{"flag bit 6", claimFlags(frame, 1<<6), ErrCorrupt},
		{"flag bit 7", claimFlags(frame, 1<<7), ErrCorrupt},
		{"garbage payload", append(append([]byte(nil), frame[:headerSize]...), make([]byte, len(frame)-headerSize)...), ErrCorrupt},
	}
	// The digits splice itself yields a decodable frame at a valid count.
	if _, _, err := NewDecoder(bytes.NewReader(claimDigits(frame, 17))).Decode(); err != nil {
		t.Fatalf("frame claiming 17 digits: %v", err)
	}
	// The retired flag bit 3 is ignored, not refused: the frame decodes to
	// the shape of the same frame without it.
	_, retired, err := NewDecoder(bytes.NewReader(claimFlags(frame, 1<<3))).Decode()
	if err != nil {
		t.Fatalf("frame setting the retired flag bit 3: %v", err)
	}
	_, plain, _ := NewDecoder(bytes.NewReader(frame)).Decode()
	if got, want := retired.Parts().Shape, plain.Parts().Shape; !got.Equal(want) {
		t.Fatalf("flag bit 3 changed the shape: %+v, want %+v", got.Config(), want.Config())
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := NewDecoder(bytes.NewReader(tc.blob)).Decode()
			if err == nil {
				t.Fatal("decoded corrupt frame")
			}
			if err == io.EOF {
				t.Fatal("corrupt frame reported as clean EOF")
			}
			if tc.name == "payload length short" {
				// The shortened frame itself fails validation; exactly which
				// sentinel depends on where parsing falls off.
				if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
					t.Fatalf("error %v wraps no sentinel", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want wrapped %v", err, tc.want)
			}
		})
	}
}

// claimDigits rewrites a v2 full frame's configured digits (layout as in
// corruptInnerCount) and patches the payload length to the new varint's.
func claimDigits(frame []byte, digits uint64) []byte {
	off := headerSize + 1 + 2 // frame kind, key
	for i := 0; i < 2; i++ {  // size, period
		_, n := binary.Uvarint(frame[off:])
		off += n
	}
	_, n := binary.Uvarint(frame[off:])
	c := binary.AppendUvarint(append([]byte(nil), frame[:off]...), digits)
	c = append(c, frame[off+n:]...)
	binary.LittleEndian.PutUint32(c[6:], uint32(len(c)-headerSize))
	return c
}

// claimFlags sets the bits set in a v2 full frame's config flags byte
// (layout as in corruptInnerCount).
func claimFlags(frame []byte, set byte) []byte {
	off := headerSize + 1 + 2 // frame kind, key
	for i := 0; i < 3; i++ {  // size, period, digits
		_, n := binary.Uvarint(frame[off:])
		off += n
	}
	c := append([]byte(nil), frame...)
	c[off] |= set
	return c
}

// corruptInnerCount blows up the ϕ-count varint inside the payload so the
// pre-allocation bound check must fire.
func corruptInnerCount(frame []byte) []byte {
	c := append([]byte(nil), frame...)
	// v2 payload layout: kind(1), key len(1)+key(1), size(varint),
	// period(varint), digits(varint), flags(1), 4 float64s, then the ϕ
	// count varint.
	off := headerSize
	off += 1                 // frame kind
	off += 2                 // key
	for i := 0; i < 3; i++ { // three uvarints
		for c[off]&0x80 != 0 {
			off++
		}
		off++
	}
	off += 1 + 4*8 // flags + fraction/statThreshold/burstAlpha/highPhiMin
	c[off] = 0xFF  // ϕ count becomes a huge varint
	c[off+1] |= 0x80
	c[off+2] = 0x7F
	return c
}

// TestDecodeTruncationSweep: a frame cut at EVERY byte boundary fails
// cleanly (or, at length 0, reports clean EOF).
func TestDecodeTruncationSweep(t *testing.T) {
	frame := validFrame(t)
	for n := 0; n < len(frame); n++ {
		_, _, err := NewDecoder(bytes.NewReader(frame[:n])).Decode()
		if n == 0 {
			if err != io.EOF {
				t.Fatalf("empty stream: %v, want io.EOF", err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("truncation at %d/%d decoded", n, len(frame))
		}
		if err == io.EOF {
			t.Fatalf("truncation at %d/%d reported as clean EOF", n, len(frame))
		}
	}
}

// TestDecodeValuePolicy: NaN is rejected in every float position; a
// non-descending tail is rejected.
func TestDecodeValuePolicy(t *testing.T) {
	frame := validFrame(t)
	// Find the wire bytes of a known value and replace them with NaN bits:
	// quantile positions hold NetMon-generated floats, all of which appear
	// in the payload as 8 little-endian bytes.
	_, snap, err := NewDecoder(bytes.NewReader(frame)).Decode()
	if err != nil {
		t.Fatal(err)
	}
	first := snap.Parts().Summaries[0]
	target := first.Quantile(0)
	pat := make([]byte, 8)
	for i := 0; i < 8; i++ {
		pat[i] = byte(math.Float64bits(target) >> (8 * i))
	}
	idx := bytes.Index(frame, pat)
	if idx < 0 {
		t.Fatal("quantile bytes not found in frame")
	}
	nan := append([]byte(nil), frame...)
	for i := 0; i < 8; i++ {
		nan[idx+i] = byte(math.Float64bits(math.NaN()) >> (8 * i))
	}
	if _, _, err := NewDecoder(bytes.NewReader(nan)).Decode(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("NaN payload: %v, want wrapped ErrCorrupt", err)
	}

	// A NaN in the configured ϕ array is the nastier case: every
	// comparison core's phi validation runs is false for NaN, so the
	// transport's own policy check must catch it.
	phiPat := make([]byte, 8)
	for i := 0; i < 8; i++ {
		phiPat[i] = byte(math.Float64bits(0.5) >> (8 * i))
	}
	pidx := bytes.Index(frame, phiPat)
	if pidx < 0 {
		t.Fatal("ϕ=0.5 bytes not found in frame")
	}
	nanPhi := append([]byte(nil), frame...)
	for i := 0; i < 8; i++ {
		nanPhi[pidx+i] = byte(math.Float64bits(math.NaN()) >> (8 * i))
	}
	if _, _, err := NewDecoder(bytes.NewReader(nanPhi)).Decode(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("NaN ϕ: %v, want wrapped ErrCorrupt", err)
	}

	// Ascending tail: build parts with a reversed tail through the core
	// constructor (structurally valid) and check the transport refuses it.
	parts := snap.Parts()
	parts.Summaries = append([]core.Summary(nil), parts.Summaries...)
	if first.Managed() == 0 || len(first.Tail(0)) < 2 {
		t.Fatal("test frame has no multi-value tail")
	}
	var quantiles, densities []float64
	for i := 0; i < first.NumQuantiles(); i++ {
		quantiles, densities = append(quantiles, first.Quantile(i)), append(densities, first.Density(i))
	}
	var tails, values, weights [][]float64
	for mi := 0; mi < first.Managed(); mi++ {
		tails = append(tails, append([]float64(nil), first.Tail(mi)...))
		v, w := first.Samples(mi)
		values, weights = append(values, v), append(weights, w)
	}
	tail := tails[0]
	tail[0], tail[len(tail)-1] = tail[len(tail)-1], tail[0]
	if parts.Summaries[0], err = core.NewSummary(first.Count(), quantiles, densities, tails, values, weights, nil); err != nil {
		t.Fatal(err)
	}
	badSnap, err := core.NewSnapshot(parts)
	if err != nil {
		t.Fatal(err)
	}
	blob := AppendFrame(nil, "", badSnap)
	if _, _, err := NewDecoder(bytes.NewReader(blob)).Decode(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ascending tail: %v, want wrapped ErrCorrupt", err)
	}
}

// goldenPathV1 and goldenPathV2 are the checked-in blobs pinning the bytes
// of every format version.
var (
	goldenPathV1 = filepath.Join("testdata", "golden_v1.bin")
	goldenPathV2 = filepath.Join("testdata", "golden_v2.bin")
)

// goldenCaptures rebuilds the two deterministic keyed captures every
// golden blob is derived from — fixed seeds, fixed configs, frozen
// forever.
func goldenCaptures(t testing.TB) []struct {
	key  string
	snap core.Snapshot
} {
	t.Helper()
	var out []struct {
		key  string
		snap core.Snapshot
	}
	for _, g := range []struct {
		key  string
		cfg  core.Config
		seed int64
		n    int
	}{
		{"api/latency", core.Config{Spec: window.Spec{Size: 256, Period: 64},
			Phis: []float64{0.5, 0.9, 0.99, 0.999}, FewK: true}, 42, 500},
		{"db/qps", core.Config{Spec: window.Spec{Size: 128, Period: 128},
			Phis: []float64{0.5, 0.95}, Digits: -1}, 43, 300},
	} {
		p := mustPolicy(t, g.cfg)
		p.ObserveBatch(workload.Generate(workload.NewNetMon(g.seed), g.n))
		out = append(out, struct {
			key  string
			snap core.Snapshot
		}{g.key, p.Snapshot()})
	}
	return out
}

// appendFrameV1 encodes one full frame in the FROZEN v1 layout (no kind
// byte, no seal generation). The production encoder only speaks the
// current version; this test-local copy exists so the v1 golden blob can
// be regenerated and so the fuzzer can seed mixed-version streams.
func appendFrameV1(dst []byte, key string, s core.Snapshot) []byte {
	dst = append(dst, magic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, VersionV1)
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	start := len(dst)
	p := s.Parts()
	dst = appendKey(dst, key)
	dst = appendConfig(dst, p.Shape.Config())
	dst = binary.AppendUvarint(dst, uint64(p.Streams))
	dst = appendF64s(dst, p.Sums)
	dst = appendSummaries(dst, p.Summaries)
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-start))
	return dst
}

// goldenBlobV1 rebuilds the v1 golden blob: the two captures as v1 full
// frames.
func goldenBlobV1(t testing.TB) []byte {
	t.Helper()
	var blob []byte
	for _, g := range goldenCaptures(t) {
		blob = appendFrameV1(blob, g.key, g.snap)
	}
	return blob
}

// goldenBlobV2 rebuilds the v2 golden blob, covering every v2 frame kind
// deterministically: the first capture as a full frame, the second
// advanced by further deterministic ingestion and shipped as a delta
// relative to its earlier generation, and a tombstone.
func goldenBlobV2(t testing.TB) []byte {
	t.Helper()
	caps := goldenCaptures(t)
	blob := AppendFrame(nil, caps[0].key, caps[0].snap)

	p := mustPolicy(t, caps[1].snap.Config())
	p.ObserveBatch(workload.Generate(workload.NewNetMon(43), 300))
	before := p.Snapshot()
	rest := workload.Generate(workload.NewNetMon(43), 500)[300:]
	p.ObserveBatch(rest)
	d, err := p.Snapshot().Delta(before.SealGen())
	if err != nil {
		t.Fatal(err)
	}
	blob = AppendDeltaFrame(blob, caps[1].key, d)
	return AppendTombstoneFrame(blob, "gone/metric")
}

// TestGoldenCompatMatrix is the cross-version decode compatibility matrix:
// the checked-in golden blob of EVERY wire version must keep decoding
// through the current decoder with bit-identical estimates, and encoding
// today's captures must still produce the recorded bytes of the CURRENT
// version. Any layout change breaks a pin — which is the point: bump
// Version and add a new golden file instead of mutating a frozen layout.
func TestGoldenCompatMatrix(t *testing.T) {
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPathV1, goldenBlobV1(t), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPathV2, goldenBlobV2(t), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	refs := goldenCaptures(t)
	refEst := map[string][]float64{}
	for _, r := range refs {
		refEst[r.key] = r.snap.Estimates()
	}

	cases := []struct {
		version   int
		path      string
		rebuilt   []byte // non-nil pins encode: disk bytes must equal a fresh encoding
		wantKinds []Kind
		wantKeys  []string
	}{
		{
			version:   1,
			path:      goldenPathV1,
			rebuilt:   goldenBlobV1(t), // v1 regeneration logic is frozen in this file
			wantKinds: []Kind{KindFull, KindFull},
			wantKeys:  []string{"api/latency", "db/qps"},
		},
		{
			version:   Version,
			path:      goldenPathV2,
			rebuilt:   goldenBlobV2(t), // today's encoder must reproduce the pin
			wantKinds: []Kind{KindFull, KindDelta, KindTombstone},
			wantKeys:  []string{"api/latency", "db/qps", "gone/metric"},
		},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("v%d", tc.version), func(t *testing.T) {
			disk, err := os.ReadFile(tc.path)
			if err != nil {
				t.Fatalf("%v (run with -update-golden to generate)", err)
			}
			if !bytes.Equal(disk, tc.rebuilt) {
				t.Fatalf("golden blob drifted: %d bytes on disk, %d rebuilt — the v%d layout changed; bump Version instead",
					len(disk), len(tc.rebuilt), tc.version)
			}
			dec := NewDecoder(bytes.NewReader(disk))
			var frames []Frame
			for {
				f, err := dec.DecodeFrame()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("golden v%d blob no longer decodes: %v", tc.version, err)
				}
				frames = append(frames, f)
			}
			if len(frames) != len(tc.wantKinds) {
				t.Fatalf("decoded %d frames, want %d", len(frames), len(tc.wantKinds))
			}
			for i, f := range frames {
				if f.Kind != tc.wantKinds[i] || f.Key != tc.wantKeys[i] {
					t.Fatalf("frame %d: %v %q, want %v %q", i, f.Kind, f.Key, tc.wantKinds[i], tc.wantKeys[i])
				}
				if f.Kind != KindFull {
					continue
				}
				// Bit-identical Estimates against the captures rebuilt from
				// scratch today.
				want, ok := refEst[f.Key]
				if !ok {
					t.Fatalf("no reference capture for %q", f.Key)
				}
				got := f.Snap.Estimates()
				if len(got) != len(want) {
					t.Fatalf("key %q: %d estimates, want %d", f.Key, len(got), len(want))
				}
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("v%d key %q ϕ[%d]: decoded %v != rebuilt %v", tc.version, f.Key, j, got[j], want[j])
					}
				}
				if tc.version == 1 && f.Snap.SealGen() != 0 {
					t.Fatalf("v1 capture reports seal generation %d, want 0 (untracked)", f.Snap.SealGen())
				}
				// Upgrade path: a capture decoded from ANY version re-encodes
				// under the current version and answers identically.
				key2, snap2, err := NewDecoder(bytes.NewReader(AppendFrame(nil, f.Key, f.Snap))).Decode()
				if err != nil {
					t.Fatalf("v%d capture fails the upgrade re-encode: %v", tc.version, err)
				}
				if key2 != f.Key {
					t.Fatalf("key %q -> %q across upgrade re-encode", f.Key, key2)
				}
				got2 := snap2.Estimates()
				for j := range want {
					if math.Float64bits(got2[j]) != math.Float64bits(want[j]) {
						t.Fatalf("upgrade re-encode diverged for %q: %v != %v", f.Key, got2, want)
					}
				}
			}
		})
	}
}

// deltaSequence ingests one policy in chunks, returning a snapshot after
// each chunk — the generation ladder delta tests climb.
func deltaSequence(t testing.TB, cfg core.Config, seed int64, chunks []int) []core.Snapshot {
	t.Helper()
	total := 0
	for _, n := range chunks {
		total += n
	}
	data := workload.Generate(workload.NewNetMon(seed), total)
	p := mustPolicy(t, cfg)
	var snaps []core.Snapshot
	off := 0
	for _, n := range chunks {
		p.ObserveBatch(data[off : off+n])
		off += n
		snaps = append(snaps, p.Snapshot())
	}
	return snaps
}

// TestDeltaRoundTrip: a delta frame between any two generations of one
// operator encodes and decodes to exactly the parts it was built from, and
// its cursor arithmetic holds.
func TestDeltaRoundTrip(t *testing.T) {
	cfg := core.Config{Spec: window.Spec{Size: 512, Period: 128},
		Phis: []float64{0.5, 0.9, 0.99}, FewK: true}
	snaps := deltaSequence(t, cfg, 7, []int{600, 300, 512, 100, 1300})
	for i := 1; i < len(snaps); i++ {
		for j := 0; j < i; j++ {
			from := snaps[j].SealGen()
			d, err := snaps[i].Delta(from)
			if err != nil {
				t.Fatalf("delta %d<-%d: %v", i, j, err)
			}
			blob := AppendDeltaFrame(nil, "svc", d)
			f, err := NewDecoder(bytes.NewReader(blob)).DecodeFrame()
			if err != nil {
				t.Fatalf("delta %d<-%d decode: %v", i, j, err)
			}
			if f.Kind != KindDelta || f.Key != "svc" {
				t.Fatalf("decoded %v %q", f.Kind, f.Key)
			}
			if !reflect.DeepEqual(f.Delta, d) {
				t.Fatalf("delta %d<-%d: decoded delta differs\n got %+v\nwant %+v", i, j, f.Delta, d)
			}
			// Decode (snapshot-only) must refuse the same frame, loudly.
			if _, _, err := NewDecoder(bytes.NewReader(blob)).Decode(); !errors.Is(err, ErrFrameKind) {
				t.Fatalf("snapshot-only Decode of a delta: %v, want wrapped ErrFrameKind", err)
			}
		}
	}
	// A bootstrap delta (fromGen 0) carries the whole resident window.
	d, err := snaps[len(snaps)-1].Delta(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Parts().Summaries) != d.Resident() {
		t.Fatalf("bootstrap delta ships %d of %d resident summaries", len(d.Parts().Summaries), d.Resident())
	}
}

// TestTombstoneRoundTrip: tombstones carry exactly a key (empty included)
// and refuse trailing bytes.
func TestTombstoneRoundTrip(t *testing.T) {
	for _, key := range []string{"", "api/latency", "k"} {
		blob := AppendTombstoneFrame(nil, key)
		f, err := NewDecoder(bytes.NewReader(blob)).DecodeFrame()
		if err != nil {
			t.Fatalf("key %q: %v", key, err)
		}
		if f.Kind != KindTombstone || f.Key != key {
			t.Fatalf("key %q decoded as %v %q", key, f.Kind, f.Key)
		}
		if _, _, err := NewDecoder(bytes.NewReader(blob)).Decode(); !errors.Is(err, ErrFrameKind) {
			t.Fatalf("snapshot-only Decode of a tombstone: %v, want wrapped ErrFrameKind", err)
		}
	}
	bad := AppendTombstoneFrame(nil, "k")
	bad = append(bad, 0xAA)
	binary.LittleEndian.PutUint32(bad[6:10], uint32(len(bad)-headerSize))
	if _, err := NewDecoder(bytes.NewReader(bad)).DecodeFrame(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tombstone with trailing payload: %v, want wrapped ErrCorrupt", err)
	}
}

// TestDeltaCorruption: a delta breaking the cursor arithmetic — a cursor
// ahead of the generation, a resident count above it, the wrong number of
// shipped summaries — or whose summaries do not fit its configuration is
// refused by the one check core.NewDelta makes. The producing side can hold
// no such Delta, so no encoder can write one: core.NewDelta refuses it, and
// Snapshot.Delta refuses the two a capture can ask for with the same error.
// Laid out as a frame by hand, the decoder refuses each through that same
// check, as a wrapped ErrCorrupt carrying its error.
func TestDeltaCorruption(t *testing.T) {
	cfg := core.Config{Spec: window.Spec{Size: 256, Period: 64}, Phis: []float64{0.5, 0.99}}
	snaps := deltaSequence(t, cfg, 11, []int{320, 320})
	// Cursor 3 generations back with a 4-summary window: the delta ships 3
	// summaries, strictly fewer than the window, so every mutation below
	// actually breaks the arithmetic.
	good, err := snaps[1].Delta(snaps[1].SealGen() - 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(good.Parts().Summaries) != 3 {
		t.Fatalf("test delta ships %d summaries, want 3", len(good.Parts().Summaries))
	}
	if !bytes.Equal(appendRawDelta(nil, "k", good.Parts(), good.FromGen(), good.Resident()), AppendDeltaFrame(nil, "k", good)) {
		t.Fatal("appendRawDelta lays a delta out unlike AppendDeltaFrame")
	}
	wide := snaps[1].Config()
	wide.Phis = []float64{0.5, 0.9, 0.99}
	wideShape, err := core.NewShape(wide)
	if err != nil {
		t.Fatal(err)
	}
	type rawDelta struct {
		p        core.SnapshotParts
		from     uint64
		resident int
	}
	g := snaps[1].SealGen()
	genless := snaps[1].Parts()
	genless.SealGen = 0
	genlessSnap, err := core.NewSnapshot(genless)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(r *rawDelta)
		// produce asks a capture for the same delta, when one can.
		produce func() (Delta, error)
	}{
		{"cursor ahead of generation", func(r *rawDelta) { r.from = g + 1 },
			func() (Delta, error) { return snaps[1].Delta(g + 1) }},
		{"resident exceeds generation", func(r *rawDelta) { r.resident = int(g) + 1 }, nil},
		{"resident summaries with no generation", func(r *rawDelta) { r.p.SealGen, r.from = 0, 0 },
			func() (Delta, error) { return genlessSnap.Delta(0) }},
		{"summary count off", func(r *rawDelta) { r.from-- }, nil}, // arithmetic now wants one more summary
		{"shape mismatch", func(r *rawDelta) { r.p.Shape = wideShape }, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rawDelta{good.Parts(), good.FromGen(), good.Resident()}
			tc.mutate(&r)
			_, checkErr := core.NewDelta(r.p, r.from, r.resident)
			if checkErr == nil {
				t.Fatal("core.NewDelta accepted a malformed delta")
			}
			if tc.produce != nil {
				if _, err := tc.produce(); err == nil || err.Error() != checkErr.Error() {
					t.Fatalf("Snapshot.Delta: %v, want %v", err, checkErr)
				}
			}
			blob := appendRawDelta(nil, "k", r.p, r.from, r.resident)
			_, err := NewDecoder(bytes.NewReader(blob)).DecodeFrame()
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), checkErr.Error()) {
				t.Fatalf("decode: %v, want wrapped ErrCorrupt carrying %q", err, checkErr)
			}
		})
	}
	if _, err := NewEncoder(io.Discard).EncodeDelta("k", Delta{}); err == nil {
		t.Fatal("encoder accepted the zero Delta")
	}
}

// appendRawDelta lays out a delta frame from unchecked fields, as
// AppendDeltaFrame lays out a checked Delta.
func appendRawDelta(dst []byte, key string, p core.SnapshotParts, from uint64, resident int) []byte {
	return appendFrame(dst, func(dst []byte) []byte {
		dst = append(dst, byte(KindDelta))
		dst = appendKey(dst, key)
		dst = appendConfig(dst, p.Shape.Config())
		dst = binary.AppendUvarint(dst, uint64(p.Streams))
		dst = binary.AppendUvarint(dst, p.SealGen)
		dst = binary.AppendUvarint(dst, from)
		dst = binary.AppendUvarint(dst, uint64(resident))
		dst = appendF64s(dst, p.Sums)
		return appendSummaries(dst, p.Summaries)
	})
}

// TestMixedVersionStream: v1 and v2 frames of every kind concatenate into
// one stream and decode in order — the compatibility the per-frame version
// gate exists for.
func TestMixedVersionStream(t *testing.T) {
	caps := goldenCaptures(t)
	blob := appendFrameV1(nil, "old", caps[0].snap)
	blob = AppendFrame(blob, "new", caps[0].snap)
	blob = AppendTombstoneFrame(blob, "old")
	blob = appendFrameV1(blob, "old2", caps[1].snap)
	dec := NewDecoder(bytes.NewReader(blob))
	want := []struct {
		kind Kind
		key  string
		gen  uint64
	}{
		{KindFull, "old", 0},
		{KindFull, "new", caps[0].snap.SealGen()},
		{KindTombstone, "old", 0},
		{KindFull, "old2", 0},
	}
	for i, w := range want {
		f, err := dec.DecodeFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Kind != w.kind || f.Key != w.key {
			t.Fatalf("frame %d: %v %q, want %v %q", i, f.Kind, f.Key, w.kind, w.key)
		}
		if f.Kind == KindFull && f.Snap.SealGen() != w.gen {
			t.Fatalf("frame %d: seal generation %d, want %d", i, f.Snap.SealGen(), w.gen)
		}
	}
	if _, err := dec.DecodeFrame(); err != io.EOF {
		t.Fatalf("trailing state: %v, want io.EOF", err)
	}
	if got := dec.Consumed(); got != int64(len(blob)) {
		t.Fatalf("consumed %d of %d bytes", got, len(blob))
	}
}

// TestDeltaTruncationSweep: delta and tombstone frames cut at every byte
// boundary fail cleanly, like full frames.
func TestDeltaTruncationSweep(t *testing.T) {
	cfg := core.Config{Spec: window.Spec{Size: 256, Period: 64}, Phis: []float64{0.5, 0.99}, FewK: true}
	snaps := deltaSequence(t, cfg, 3, []int{320, 320})
	d, err := snaps[1].Delta(snaps[0].SealGen())
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range [][]byte{
		AppendDeltaFrame(nil, "svc", d),
		AppendTombstoneFrame(nil, "svc"),
	} {
		for n := 1; n < len(frame); n++ {
			_, err := NewDecoder(bytes.NewReader(frame[:n])).DecodeFrame()
			if err == nil {
				t.Fatalf("truncation at %d/%d decoded", n, len(frame))
			}
			if err == io.EOF {
				t.Fatalf("truncation at %d/%d reported as clean EOF", n, len(frame))
			}
		}
	}
}

// BenchmarkEncode and BenchmarkDecode measure the codec on a realistic
// capture (sliding window, few-k enabled).
func benchSnapshot(b *testing.B) core.Snapshot {
	p := mustPolicy(b, core.Config{
		Spec: window.Spec{Size: 8000, Period: 1000},
		Phis: []float64{0.5, 0.9, 0.99, 0.999},
		FewK: true,
	})
	p.ObserveBatch(workload.Generate(workload.NewNetMon(1), 12000))
	return p.Snapshot()
}

func BenchmarkEncode(b *testing.B) {
	snap := benchSnapshot(b)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], "key", snap)
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkDecode(b *testing.B) {
	frame := AppendFrame(nil, "key", benchSnapshot(b))
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := NewDecoder(bytes.NewReader(frame)).Decode(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRawScan is the fan-in's routing scan: one RawScanner pass over a
// push blob of many small keyed frames, reading each frame's kind and key.
func BenchmarkRawScan(b *testing.B) {
	p := mustPolicy(b, core.Config{
		Spec: window.Spec{Size: 512, Period: 128},
		Phis: []float64{0.5, 0.9, 0.99, 0.999},
		FewK: true,
	})
	p.ObserveBatch(workload.Generate(workload.NewNetMon(1), 640))
	snap := p.Snapshot()
	const frames = 1000
	var blob []byte
	for i := 0; i < frames; i++ {
		blob = AppendFrame(blob, fmt.Sprintf("svc-%d", i), snap)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := NewRawScanner(bytes.NewReader(blob))
		for n := 0; ; n++ {
			_, _, _, err := sc.Next()
			if err == io.EOF {
				if n != frames {
					b.Fatalf("scanned %d frames of %d", n, frames)
				}
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames), "ns/frame")
}
