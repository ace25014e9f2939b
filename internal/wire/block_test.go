package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/window"
)

// deltaBlob is a push blob as an engine flushes it: one single-summary delta
// frame per key, every key under one configuration.
func deltaBlob(t testing.TB, cfg core.Config, keys int) []byte {
	t.Helper()
	per := cfg.Spec.Period
	var blob []byte
	for k := 0; k < keys; k++ {
		snaps := deltaSequence(t, cfg, int64(100+k), []int{cfg.Spec.Size, per})
		d, err := NewDelta(snaps[1], snaps[0].SealGen())
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Parts.Summaries) != 1 {
			t.Fatalf("delta ships %d summaries, want 1", len(d.Parts.Summaries))
		}
		blob = AppendDeltaFrame(blob, fmt.Sprintf("host-%03d/latency", k), d)
	}
	return blob
}

func decodeAll(t testing.TB, blob []byte) []Frame {
	t.Helper()
	var out []Frame
	dec := NewDecoder(bytes.NewReader(blob))
	for {
		f, err := dec.DecodeFrame()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
}

// TestDecodeAllocsPerFrame: after the first frame of a blob has paid for the
// configuration and the decoder's scratch, a keyed single-summary delta frame
// costs four allocations — its key, its Level-2 sums, its summary headers and
// the summary's one block — where the nine-slice summary took fourteen.
// ISSUE 22 budgeted three; the fourth is the key, and dropping any of them
// means carving two differently-lived things out of one allocation.
func TestDecodeAllocsPerFrame(t *testing.T) {
	cfg := core.Config{Spec: window.Spec{Size: 64, Period: 16}, Phis: []float64{0.5, 0.9, 0.99, 0.999}, FewK: true}
	const frames = 33
	blob := deltaBlob(t, cfg, frames)
	first := deltaBlob(t, cfg, 1) // the blob's own first frame
	run := func(b []byte) float64 {
		return testing.AllocsPerRun(50, func() {
			dec := NewDecoder(bytes.NewReader(b))
			for {
				if _, err := dec.DecodeFrame(); err != nil {
					return
				}
			}
		})
	}
	perFrame := (run(blob) - run(first)) / (frames - 1)
	if perFrame > 4 {
		t.Fatalf("a summary-bearing frame after the first costs %.2f allocations, want <= 4", perFrame)
	}
}

// TestDecoderSharesConfig: frames carrying byte-identical configurations
// decode to ONE Shape — the same pointer — while a different configuration
// in between gets its own, and sharing changes nothing a frame means.
func TestDecoderSharesConfig(t *testing.T) {
	a := core.Config{Spec: window.Spec{Size: 64, Period: 16}, Phis: []float64{0.5, 0.9, 0.99, 0.999}, FewK: true}
	b := a
	b.Phis = []float64{0.5, 0.99}
	blob := bytes.Join([][]byte{deltaBlob(t, a, 2), deltaBlob(t, b, 1), deltaBlob(t, a, 1), AppendTombstoneFrame(nil, "gone"), deltaBlob(t, a, 1)}, nil)
	frames := decodeAll(t, blob)
	if len(frames) != 6 {
		t.Fatalf("decoded %d frames, want 6", len(frames))
	}
	shape := func(i int) *core.Shape { return frames[i].Delta.Parts.Shape }
	if shape(0) != shape(1) {
		t.Error("two consecutive frames of one configuration decoded two shapes")
	}
	if shape(2) == shape(1) || len(shape(2).Config().Phis) != 2 {
		t.Error("a frame with a different configuration was given its neighbour's")
	}
	if shape(3) == shape(2) || len(shape(3).Config().Phis) != 4 {
		t.Error("the configuration after a different one is stale")
	}
	if shape(5) != shape(3) {
		t.Error("a tombstone between two frames of one configuration broke the sharing")
	}
	// Each frame decoded alone, by a decoder with nothing to share, means
	// the same.
	for i, f := range frames {
		if f.Kind != KindDelta {
			continue
		}
		if alone := decodeAll(t, AppendDeltaFrame(nil, f.Key, f.Delta)); !reflect.DeepEqual(alone[0].Delta, f.Delta) {
			t.Errorf("frame %d differs from the same frame decoded alone", i)
		}
	}
}

// TestShapesInternAcrossDecoders: decoders made by one Shapes table hand out
// one shape per configuration across blobs and back-and-forth switches,
// where plain decoders resolve each blob's own; a full table keeps what it
// holds and still decodes the rest.
func TestShapesInternAcrossDecoders(t *testing.T) {
	a := core.Config{Spec: window.Spec{Size: 64, Period: 16}, Phis: []float64{0.5, 0.9, 0.99, 0.999}, FewK: true}
	b := a
	b.Phis = []float64{0.5, 0.99}
	var shapes Shapes
	decode := func(dec *Decoder) []*core.Shape {
		var out []*core.Shape
		for {
			f, err := dec.DecodeFrame()
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, f.Delta.Parts.Shape)
		}
	}
	mixed := bytes.Join([][]byte{deltaBlob(t, a, 1), deltaBlob(t, b, 1), deltaBlob(t, a, 1)}, nil)
	first := decode(shapes.NewDecoder(bytes.NewReader(mixed)))
	second := decode(shapes.NewDecoder(bytes.NewReader(mixed)))
	if first[0] != first[2] || first[0] == first[1] {
		t.Error("one decoder switching configurations did not come back to the interned shape")
	}
	for i := range first {
		if second[i] != first[i] {
			t.Errorf("frame %d: a second blob through the table decoded its own shape", i)
		}
	}
	if plain := decode(NewDecoder(bytes.NewReader(mixed))); plain[0] == first[0] {
		t.Error("a decoder without the table was handed the table's shape")
	}

	full := Shapes{m: map[string]*core.Shape{}}
	for i := range maxShapes {
		full.m[fmt.Sprint(i)] = first[0]
	}
	got := decode(full.NewDecoder(bytes.NewReader(mixed)))
	if len(full.m) != maxShapes || got[0] == first[0] || !got[0].Equal(first[0]) || !got[2].Equal(first[0]) {
		t.Error("a full table grew, or a decoder through it resolved configurations wrongly")
	}
}

// claimFrame hand-assembles a v2 full frame whose one summary claims nTails
// tails of tailLen values and nLists sample lists of listLen samples, followed
// by pad zero bytes — so the claims can be made to exceed, or to fit, what
// the payload really holds.
func claimFrame(nTails, tailLen, nLists, listLen uint64, pad int) []byte {
	cfg := core.Config{Spec: window.Spec{Size: 64, Period: 16}, Digits: 3, Phis: []float64{0.5, 0.99},
		FewK: true, Fraction: 0.5, StatThreshold: 10, BurstAlpha: 0.05, HighPhiMin: 0.95}
	return appendFrame(nil, func(dst []byte) []byte {
		dst = append(dst, byte(KindFull))
		dst = appendKey(dst, "k")
		dst = appendConfig(dst, cfg)
		dst = binary.AppendUvarint(dst, 1)         // streams
		dst = binary.AppendUvarint(dst, 1)         // sealGen
		dst = appendF64s(dst, []float64{1, 2})     // sums
		dst = binary.AppendUvarint(dst, 1)         // one summary
		dst = binary.AppendUvarint(dst, 16)        // count
		dst = appendF64s(dst, []float64{1, 2})     // quantiles
		dst = appendF64s(dst, []float64{0.5, 0.5}) // densities
		dst = binary.AppendUvarint(dst, nTails)    // claimed tail count
		dst = binary.AppendUvarint(dst, tailLen)   // first tail's claimed length
		dst = binary.AppendUvarint(dst, nLists)    // claimed sample-list count
		dst = binary.AppendUvarint(dst, listLen)   // first list's claimed length
		return append(dst, make([]byte, pad)...)
	})
}

// claimSeeds are frames whose tail and sample counts and lengths claim more
// than the payload holds, or exactly fill it with empty lists: whatever is
// claimed, a summary's block is sized from values that decoded, so the worst
// a claim can do is be refused.
var claimSeeds = [][]byte{
	claimFrame(1, 1<<40, 1, 0, 0),     // one tail, a terabyte of values claimed
	claimFrame(1, 0, 1, 1<<40, 0),     // one sample list, same
	claimFrame(1<<30, 0, 0, 0, 8),     // a billion tails in 8 bytes
	claimFrame(1, 0, 1<<30, 0, 8),     // a billion sample lists in 8 bytes
	claimFrame(1, 100, 1, 0, 64),      // a tail claim larger than the padding
	claimFrame(200, 0, 0, 0, 200+200), // 200 tails that ARE there, all empty
}

func TestDecodeClaimedCounts(t *testing.T) {
	for i, blob := range claimSeeds {
		if _, _, err := NewDecoder(bytes.NewReader(blob)).Decode(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("claim seed %d: %v, want wrapped ErrCorrupt", i, err)
		}
	}
}

// TestDecodeRefusesTooManyPhis: a frame whose configuration lists one ϕ
// more than a summary answers (core.MaxSummaryQuantiles) is corrupt, and
// one listing exactly as many decodes.
func TestDecodeRefusesTooManyPhis(t *testing.T) {
	frame := func(nPhis int) []byte {
		phis := make([]float64, nPhis)
		for i := range phis {
			phis[i] = float64(i+1) / float64(nPhis)
		}
		cfg := core.Config{Spec: window.Spec{Size: 64, Period: 16}, Digits: 3, Phis: phis,
			Fraction: 0.5, StatThreshold: 10, BurstAlpha: 0.05, HighPhiMin: 0.95}
		return appendFrame(nil, func(dst []byte) []byte {
			dst = append(dst, byte(KindFull))
			dst = appendKey(dst, "k")
			dst = appendConfig(dst, cfg)
			dst = binary.AppendUvarint(dst, 1)            // streams
			dst = binary.AppendUvarint(dst, 0)            // sealGen
			dst = appendF64s(dst, make([]float64, nPhis)) // sums
			return binary.AppendUvarint(dst, 0)           // no summaries
		})
	}
	if _, _, err := NewDecoder(bytes.NewReader(frame(core.MaxSummaryQuantiles))).Decode(); err != nil {
		t.Fatalf("%d ϕ: %v", core.MaxSummaryQuantiles, err)
	}
	if _, _, err := NewDecoder(bytes.NewReader(frame(core.MaxSummaryQuantiles + 1))).Decode(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%d ϕ: %v, want wrapped ErrCorrupt", core.MaxSummaryQuantiles+1, err)
	}
}
