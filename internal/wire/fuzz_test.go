package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"slices"
	"testing"
)

// FuzzDecode drives arbitrary bytes through the frame decoder: whatever
// the input, DecodeFrame must return a clean io.EOF, a wrapped sentinel
// error, or a valid frame that survives a re-encode/re-decode round trip —
// and must never panic. A RawScanner reads the same bytes in step: for
// every frame the decoder accepts it returns the same kind, key and bytes
// as Raw, both report the same Consumed after every frame, and where the
// scanner fails the decoder fails with the same sentinel. Seeds cover the golden blobs of EVERY format
// version (full, delta and tombstone frames, plus a mixed-version stream)
// and representative corruptions (among them tail and sample counts that
// claim more than the payload holds), so the fuzzer starts at the format's
// surface instead of rediscovering the magic number.
func FuzzDecode(f *testing.F) {
	goldenV1 := goldenBlobV1(f)
	goldenV2 := goldenBlobV2(f)
	f.Add(goldenV1)
	f.Add(goldenV2)
	f.Add(append(append([]byte(nil), goldenV1...), goldenV2...)) // mixed-version stream
	f.Add(goldenV1[:len(goldenV1)/2])
	f.Add(goldenV2[:len(goldenV2)/2])
	f.Add(goldenV2[:headerSize])
	f.Add([]byte{})
	f.Add([]byte("QLVS"))
	f.Add(AppendTombstoneFrame(nil, "gone"))
	corrupt := append([]byte(nil), goldenV1...)
	corrupt[headerSize+3] ^= 0xFF
	f.Add(corrupt)
	corruptKind := append([]byte(nil), goldenV2...)
	corruptKind[headerSize] = 7 // unknown frame kind
	f.Add(corruptKind)
	for _, blob := range claimSeeds {
		f.Add(blob)
	}
	f.Add(claimFlags(validFrame(f), 1<<3)) // retired bit: decodes, re-encodes without it
	f.Add(claimFlags(validFrame(f), 1<<4)) // never-written bit: corrupt
	sentinels := []error{io.EOF, ErrMagic, ErrVersion, ErrTruncated, ErrCorrupt}
	f.Fuzz(func(t *testing.T, blob []byte) {
		dec := NewDecoder(bytes.NewReader(blob))
		sc := NewRawScanner(bytes.NewReader(blob))
		for {
			kind, key, raw, serr := sc.Next()
			fr, err := dec.DecodeFrame()
			if sc.Consumed() != dec.Consumed() {
				t.Fatalf("scanner consumed %d bytes, decoder %d", sc.Consumed(), dec.Consumed())
			}
			if serr != nil {
				if i := slices.IndexFunc(sentinels, func(s error) bool { return errors.Is(serr, s) }); i < 0 || !errors.Is(err, sentinels[i]) {
					t.Fatalf("scanner error %v, decoder error %v", serr, err)
				}
			}
			if err == io.EOF {
				return
			}
			if err != nil {
				if !errors.Is(err, ErrMagic) && !errors.Is(err, ErrVersion) &&
					!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("error wraps no sentinel: %v", err)
				}
				return
			}
			if kind != fr.Kind || key != fr.Key || !bytes.Equal(raw, dec.Raw()) {
				t.Fatalf("scanner (%v, %q, %d bytes) vs decoder (%v, %q, %d bytes)", kind, key, len(raw), fr.Kind, fr.Key, len(dec.Raw()))
			}
			// A successful decode must be canonical: re-encoding and
			// re-decoding reproduces the frame's meaning exactly.
			switch fr.Kind {
			case KindFull:
				reenc := AppendFrame(nil, fr.Key, fr.Snap)
				key2, snap2, err := NewDecoder(bytes.NewReader(reenc)).Decode()
				if err != nil {
					t.Fatalf("re-encoded full frame fails to decode: %v", err)
				}
				if key2 != fr.Key {
					t.Fatalf("key %q -> %q across re-encode", fr.Key, key2)
				}
				a, b := fr.Snap.Estimates(), snap2.Estimates()
				for j := range a {
					if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
						t.Fatalf("estimates diverge across re-encode: %v != %v", a, b)
					}
				}
				if snap2.SealGen() != fr.Snap.SealGen() {
					t.Fatalf("seal generation %d -> %d across re-encode", fr.Snap.SealGen(), snap2.SealGen())
				}
			case KindDelta:
				reenc := AppendDeltaFrame(nil, fr.Key, fr.Delta)
				f2, err := NewDecoder(bytes.NewReader(reenc)).DecodeFrame()
				if err != nil {
					t.Fatalf("re-encoded delta frame fails to decode: %v", err)
				}
				if f2.Kind != KindDelta || f2.Key != fr.Key {
					t.Fatalf("delta re-decoded as %v %q", f2.Kind, f2.Key)
				}
				if !reflect.DeepEqual(f2.Delta, fr.Delta) {
					t.Fatalf("delta diverges across re-encode")
				}
			case KindTombstone:
				reenc := AppendTombstoneFrame(nil, fr.Key)
				f2, err := NewDecoder(bytes.NewReader(reenc)).DecodeFrame()
				if err != nil || f2.Kind != KindTombstone || f2.Key != fr.Key {
					t.Fatalf("tombstone re-encode: %v %v %q", err, f2.Kind, f2.Key)
				}
			}
		}
	})
}
