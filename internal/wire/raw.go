package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// RawScanner splits a frame stream into verbatim frames plus the routing
// envelope (kind, key) parsed from each — what a fan-in router needs to
// partition a worker's push blob across aggregator replicas without
// decoding and re-encoding payloads (the routed bytes are bit-identical
// to what the worker sent, so replica folds stay bit-reproducible).
//
// Validation is deliberately shallow — magic, version, payload length,
// kind and key bounds; the replica's own Decoder performs the full
// structural validation when it folds the routed frame. Every error wraps
// the same package sentinels Decode uses.
type RawScanner struct{ frameReader }

// NewRawScanner returns a RawScanner reading from r.
func NewRawScanner(r io.Reader) *RawScanner {
	return &RawScanner{frameReader{r: r, buf: make([]byte, 0, 4096)}}
}

// Consumed returns the total bytes read from the stream so far.
func (s *RawScanner) Consumed() int64 { return s.consumed }

// Next returns the next frame's kind, key, and its verbatim bytes (header
// included), valid until the following call. At a clean end of stream it
// returns io.EOF unwrapped.
func (s *RawScanner) Next() (Kind, string, []byte, error) {
	v, err := s.next()
	if err != nil {
		return 0, "", nil, err
	}
	kind, key, err := envelope(&payloadReader{b: s.buf[headerSize:]}, v)
	if err != nil {
		return 0, "", nil, err
	}
	return kind, key, s.buf, nil
}

// frameReader is the framing layer of both readers, RawScanner and
// Decoder: it reads frames off r into buf, counting in consumed every byte
// it reads, the bytes of a frame it rejects included.
type frameReader struct {
	r        io.Reader
	buf      []byte
	consumed int64
}

// next reads the next frame, header and payload, into buf and returns its
// format version, after the magic, version and payload-cap checks. At a
// clean end of stream (r is exhausted exactly at a frame boundary) it
// returns io.EOF unwrapped.
func (fr *frameReader) next() (uint16, error) {
	if cap(fr.buf) < headerSize {
		fr.buf = make([]byte, headerSize)
	}
	fr.buf = fr.buf[:headerSize]
	hn, err := io.ReadFull(fr.r, fr.buf)
	fr.consumed += int64(hn)
	if err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if [4]byte(fr.buf[:4]) != magic {
		return 0, fmt.Errorf("%w: %q", ErrMagic, fr.buf[:4])
	}
	v := binary.LittleEndian.Uint16(fr.buf[4:6])
	if v != VersionV1 && v != Version {
		return 0, fmt.Errorf("%w: frame v%d, decoder speaks v%d", ErrVersion, v, Version)
	}
	n := binary.LittleEndian.Uint32(fr.buf[6:10])
	if n > maxPayload {
		return 0, fmt.Errorf("%w: payload length %d exceeds cap", ErrCorrupt, n)
	}
	// The claimed length is untrusted until the bytes actually arrive: past
	// the buffer's capacity it grows in bounded steps, so a corrupt header
	// cannot demand a huge up-front allocation for a stream that ends after
	// a few bytes.
	const allocStep = 1 << 20
	for size := headerSize + int(n); len(fr.buf) < size; {
		from := len(fr.buf)
		if cap(fr.buf) >= size {
			fr.buf = fr.buf[:size]
		} else {
			fr.buf = append(fr.buf, make([]byte, min(size-from, allocStep))...)
		}
		pn, err := io.ReadFull(fr.r, fr.buf[from:])
		fr.consumed += int64(pn)
		if err != nil {
			return 0, fmt.Errorf("%w: payload: %v", ErrTruncated, err)
		}
	}
	return v, nil
}

// envelope parses the frame kind (v2 on; a v1 payload is a full frame) and
// the key that open a payload of the given version, leaving r past the key.
func envelope(r *payloadReader, version uint16) (Kind, string, error) {
	kind := KindFull
	if version >= 2 {
		kb, err := r.byte("frame kind")
		if err != nil {
			return 0, "", err
		}
		if Kind(kb) > KindTombstone {
			return 0, "", fmt.Errorf("%w: unknown frame kind %d", ErrCorrupt, kb)
		}
		kind = Kind(kb)
	}
	keyLen, err := r.count("key", 1)
	if err != nil {
		return 0, "", err
	}
	key := string(r.b[r.off : r.off+keyLen])
	r.off += keyLen
	return kind, key, nil
}
