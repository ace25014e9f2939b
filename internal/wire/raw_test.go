package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// scanAll drains a RawScanner, returning kinds, keys and the
// reassembled byte stream.
func scanAll(t *testing.T, blob []byte) ([]Kind, []string, []byte) {
	t.Helper()
	sc := NewRawScanner(bytes.NewReader(blob))
	var kinds []Kind
	var keys []string
	var joined []byte
	for {
		kind, key, frame, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		kinds = append(kinds, kind)
		keys = append(keys, key)
		joined = append(joined, frame...)
	}
	if sc.Consumed() != int64(len(blob)) {
		t.Fatalf("consumed %d of %d bytes", sc.Consumed(), len(blob))
	}
	return kinds, keys, joined
}

// The scanner must return every frame's bytes verbatim and agree with the
// full decoder on kinds and keys — on both format versions' golden blobs
// (v2 covers full, delta and tombstone frames). The decoder must lend the
// same verbatim bytes through Raw.
func TestRawScannerMatchesDecoder(t *testing.T) {
	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"v1", goldenBlobV1(t)},
		{"v2", goldenBlobV2(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kinds, keys, joined := scanAll(t, tc.blob)
			if !bytes.Equal(joined, tc.blob) {
				t.Fatal("reassembled frames differ from the input stream")
			}
			dec := NewDecoder(bytes.NewReader(tc.blob))
			var lent []byte
			i := 0
			for {
				f, err := dec.DecodeFrame()
				if err == io.EOF {
					if dec.Raw() != nil {
						t.Fatal("Raw lends bytes after the end of the stream")
					}
					if !bytes.Equal(lent, tc.blob) {
						t.Fatal("the frames Raw lent differ from the input stream")
					}
					break
				}
				lent = append(lent, dec.Raw()...)
				if err != nil {
					t.Fatalf("decode frame %d: %v", i, err)
				}
				if i >= len(kinds) {
					t.Fatalf("scanner saw %d frames, decoder more", len(kinds))
				}
				if f.Kind != kinds[i] || f.Key != keys[i] {
					t.Fatalf("frame %d: scanner (%v, %q) vs decoder (%v, %q)",
						i, kinds[i], keys[i], f.Kind, f.Key)
				}
				i++
			}
			if i != len(kinds) {
				t.Fatalf("scanner saw %d frames, decoder %d", len(kinds), i)
			}
		})
	}
}

// Each individually scanned frame must decode alone — the property the
// fan-in router relies on when it routes frames to different replicas.
func TestRawScannerFramesDecodeAlone(t *testing.T) {
	blob := goldenBlobV2(t)
	sc := NewRawScanner(bytes.NewReader(blob))
	for {
		_, key, frame, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewDecoder(bytes.NewReader(frame)).DecodeFrame()
		if err != nil {
			t.Fatalf("routed frame for %q does not decode alone: %v", key, err)
		}
		if f.Key != key {
			t.Fatalf("routed frame key %q, decoded %q", key, f.Key)
		}
	}
}

func TestRawScannerErrors(t *testing.T) {
	frame := validFrame(t)
	cases := []struct {
		name string
		blob []byte
		want error
	}{
		{"bad magic", append([]byte("XXXX"), frame[4:]...), ErrMagic},
		{"future version", func() []byte {
			b := append([]byte(nil), frame...)
			b[4] = 99
			return b
		}(), ErrVersion},
		{"truncated header", frame[:6], ErrTruncated},
		{"truncated payload", frame[:len(frame)-3], ErrTruncated},
		{"bad kind", func() []byte {
			b := append([]byte(nil), frame...)
			b[headerSize] = 7
			return b
		}(), ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := NewRawScanner(bytes.NewReader(tc.blob)).Next()
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			dec := NewDecoder(bytes.NewReader(tc.blob))
			if _, err := dec.DecodeFrame(); !errors.Is(err, tc.want) || dec.Raw() != nil {
				t.Fatalf("decoder: got %v and %d lent bytes, want %v and none", err, len(dec.Raw()), tc.want)
			}
		})
	}
}
