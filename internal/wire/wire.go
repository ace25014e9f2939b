// Package wire is the versioned binary encoding of core.Snapshot — the
// stable format that lets window captures cross process and datacenter
// boundaries and merge centrally, turning the in-process Snapshot.Merge
// plane into the paper's distributed-aggregation sketch ("our quantile
// design can deliver better aggregate throughput ... in distributed
// computing").
//
// # Frame layout
//
// A blob is a plain concatenation of self-describing frames; appending two
// blobs yields a valid blob, so N workers can write into one pipe or file
// and an aggregator decodes the lot in one pass. Each frame is
//
//	magic   [4]byte  "QLVS"
//	version uint16   little-endian, 1 or 2
//	length  uint32   little-endian payload byte count
//	payload [length]byte
//
// Within a payload, fixed-width integers and float64 bit patterns are
// little-endian; counts and lengths are unsigned varints
// (binary.AppendUvarint).
//
// # Format version 2 (current)
//
// A v2 payload opens with one frame-kind byte:
//
//	kind    1 byte   0 = full snapshot, 1 = delta, 2 = tombstone
//
// A FULL frame (kind 0) serializes one keyed capture:
//
//	key        uvarint len + bytes        ("" for unkeyed captures)
//	config     size, period, digits       uvarint each
//	           flags                      1 byte: bit 0 FewK, 1 TopKOnly, 2 SampleKOnly;
//	                                      bit 3 retired (never written, ignored
//	                                      on decode); bits 4-7 corrupt
//	           fraction, statThreshold,
//	           burstAlpha, highPhiMin     float64 each
//	           phis                       uvarint len + float64s
//	streams    uvarint                    merged sub-stream count (>= 1)
//	sealGen    uvarint                    seal-generation clock at capture (0 = untracked)
//	sums       uvarint len + float64s     Level-2 running sums (len == len(phis))
//	summaries  uvarint count, then per summary:
//	           count                      uvarint sub-window element count
//	           quantiles                  uvarint len + float64s (== len(phis))
//	           densities                  uvarint len + float64s (== len(phis))
//	           tails                      uvarint count, then uvarint len + float64s each
//	           samples                    uvarint count, then uvarint len +
//	                                      (float64 value, uvarint weight) pairs each
//	           burst                      1 byte present flag; if 1, one 0/1 byte
//	                                      per managed quantile
//
// A DELTA frame (kind 1) ships only what changed for one key since a
// per-destination export cursor — the incremental form that cuts
// steady-state export bandwidth from O(resident keys) to O(changed keys):
//
//	key        uvarint len + bytes
//	config     as in a full frame
//	streams    uvarint
//	sealGen    uvarint   toGen: the seal-generation clock at capture (> 0)
//	fromGen    uvarint   the cursor the delta is relative to (<= sealGen);
//	                     0 marks a bootstrap frame that REPLACES the key
//	resident   uvarint   resident summary count at capture (<= sealGen)
//	sums       uvarint len + float64s      the FULL Level-2 sums (cheap: one
//	                                       float per configured ϕ)
//	summaries  as in a full frame, but carrying ONLY the resident summaries
//	           sealed after fromGen: exactly min(resident, sealGen-fromGen)
//	           of them, oldest first
//
// The receiver folds a delta by appending the shipped summaries to the
// key's retained run, trimming the front to `resident` (the summaries that
// slid out of the worker's window since the cursor), and replacing the sums
// wholesale — reproducing the worker's full capture bit for bit. That
// arithmetic, on both sides, is core's (core.Delta).
//
// A TOMBSTONE frame (kind 2) retires one key — the receiver deletes its
// state. Exporters emit it when a key present at the cursor has been
// evicted (TTL expiry or explicit Evict):
//
//	key        uvarint len + bytes
//
// # Format version 1
//
// Version 1 is the frozen original layout: a full-snapshot payload with no
// kind byte and no sealGen field. The decoder keeps accepting v1 frames
// (they rebuild with SealGen 0 — mergeable and queryable, but unable to
// anchor a delta export); the encoder only emits v2. The checked-in golden
// blobs of BOTH versions pin their bytes in the compatibility-matrix test.
//
// # Decode strictness
//
// Decode trusts nothing: the version is gated, the payload must be
// consumed exactly, every slice length is bounds-checked against the
// remaining payload BEFORE allocation, a full frame's parts must pass
// core.NewSnapshot's structural validation and a delta frame's must pass
// core.NewDelta's (the cursor arithmetic above, then the same structure),
// cached tails and sample lists must be sorted descending (the merge heaps
// assume it), and the NaN/Inf policy is
// enforced: NaN is rejected everywhere (ingestion drops NaN, so no
// legitimate capture contains one); ±Inf is rejected in configuration
// fields but allowed in data positions (quantiles, sums, tails, samples)
// and densities (+Inf marks a point mass). Every failure is a wrapped,
// non-panicking error carrying one of the sentinel values below.
//
// # Version policy
//
// The version is per-frame. Decoders accept versions they know (currently
// 1 and 2) and reject newer ones with ErrVersion rather than guessing; any
// change to a payload layout MUST bump Version. The golden-blob
// compatibility matrix in this package pins the bytes of every version, so
// an accidental layout change fails loudly instead of silently forking the
// format.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/core"
)

// Version is the current frame format version; Encode always emits it.
const Version = 2

// VersionV1 is the frozen original format version, still decoded.
const VersionV1 = 1

// magic opens every frame: "QLVS" (QLove Snapshot).
var magic = [4]byte{'Q', 'L', 'V', 'S'}

const (
	headerSize = 10      // magic + version + payload length
	maxPayload = 1 << 30 // sanity cap on a single frame's payload
	// allocCap bounds the up-front capacity of the one slice minted from a
	// claimed element count whose in-memory element size exceeds its wire
	// floor (a frame's summary headers); past it the slice grows by append
	// as summaries actually decode, so allocation always tracks real
	// payload. A summary's block is never sized from a claim at all: its
	// values decode into the Decoder's scratch first (see summaryScratch).
	allocCap = 4096
)

// Sentinel decode errors; every error Decode returns wraps exactly one of
// them (or io.EOF at a clean end of stream).
var (
	// ErrMagic reports bytes that are not a frame at all.
	ErrMagic = errors.New("wire: bad magic")
	// ErrVersion reports a frame from an unknown (newer) format version.
	ErrVersion = errors.New("wire: unsupported format version")
	// ErrTruncated reports a stream that ends mid-frame.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrCorrupt reports a structurally invalid payload: length
	// cross-checks, value policy, delta arithmetic or snapshot invariants
	// failed.
	ErrCorrupt = errors.New("wire: corrupt frame")
	// ErrFrameKind reports a well-formed frame whose kind the caller
	// cannot accept (a delta or tombstone in a snapshot-only stream read
	// through Decode; use DecodeFrame for mixed streams).
	ErrFrameKind = errors.New("wire: unexpected frame kind")
)

// Kind discriminates the v2 frame types.
type Kind uint8

const (
	// KindFull is a complete keyed capture (the only v1 frame type).
	KindFull Kind = 0
	// KindDelta carries one key's summaries sealed since an export cursor.
	KindDelta Kind = 1
	// KindTombstone retires one key on the receiver.
	KindTombstone Kind = 2
)

// String names the kind for error messages.
func (k Kind) String() string {
	switch k {
	case KindFull:
		return "full"
	case KindDelta:
		return "delta"
	case KindTombstone:
		return "tombstone"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Frame is one decoded frame of any kind. Key is always set; Snap is
// non-zero exactly for KindFull, Delta exactly for KindDelta. Both were
// checked as they decoded (core.NewSnapshot, core.NewDelta), so a receiver
// merges Snap and folds Delta (core.Snapshot.Advance) without checking a
// summary again.
type Frame struct {
	Kind  Kind
	Key   string
	Snap  core.Snapshot
	Delta Delta
}

// Delta is the payload of one delta frame: the resident summaries one key
// sealed after the export cursor FromGen, plus the full Level-2 sums. It is
// core's checked delta — the cursor arithmetic the package comment lays out
// lives there once — made by core.Snapshot.Delta on the producing side.
type Delta = core.Delta

// config flag bits.
const (
	flagFewK = 1 << iota
	flagTopKOnly
	flagSampleKOnly
)

// flagsCorrupt are the config flag bits no encoder has ever written. Bit 3
// is not among them: it once marked an operator's online budget controller,
// which is gone, and a decoder ignores it rather than reject it, because a
// disk store's recovery ends its log at the first record that fails to
// decode and would drop every record after one that set it.
const flagsCorrupt = 0xF0

// Encoder writes frames to a stream, reusing one marshalling buffer across
// calls so steady-state export allocates only what the kernel write needs.
type Encoder struct {
	w   io.Writer
	buf []byte
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Encode writes one keyed full frame and returns the bytes written.
// Encoding the zero Snapshot is refused: it carries no configuration to
// describe itself with (merge identities are a fold concern, not a
// transport one).
func (e *Encoder) Encode(key string, s core.Snapshot) (int, error) {
	if s.IsZero() {
		return 0, fmt.Errorf("wire: cannot encode the zero Snapshot")
	}
	return e.flush(AppendFrame(e.buf[:0], key, s))
}

// EncodeDelta writes one keyed delta frame and returns the bytes written.
// A Delta keeps its cursor arithmetic by construction; only the zero Delta,
// which carries no configuration, is refused.
func (e *Encoder) EncodeDelta(key string, d Delta) (int, error) {
	if d.Parts().Shape == nil {
		return 0, fmt.Errorf("wire: cannot encode the zero Delta")
	}
	return e.flush(AppendDeltaFrame(e.buf[:0], key, d))
}

// EncodeTombstone writes one key-retirement frame and returns the bytes
// written.
func (e *Encoder) EncodeTombstone(key string) (int, error) {
	return e.flush(AppendTombstoneFrame(e.buf[:0], key))
}

// flush bounds-checks and writes one appended frame, retaining the buffer.
func (e *Encoder) flush(frame []byte) (int, error) {
	e.buf = frame
	if len(frame)-headerSize > maxPayload {
		// Refused at encode time: past the cap the decoder would reject
		// the frame (and past 4 GiB the u32 length field would silently
		// truncate), so such a capture must never reach the stream.
		return 0, fmt.Errorf("wire: frame payload %d bytes exceeds the %d-byte cap", len(frame)-headerSize, maxPayload)
	}
	n, err := e.w.Write(frame)
	if err != nil {
		return n, fmt.Errorf("wire: write frame: %w", err)
	}
	return n, nil
}

// AppendFrame appends one complete full frame (header and payload) to dst
// and returns the extended slice. The capture must be non-zero and its
// payload must stay within the decoder's 1 GiB frame cap — Encoder.Encode
// enforces the bound; direct AppendFrame callers own it themselves.
func AppendFrame(dst []byte, key string, s core.Snapshot) []byte {
	return appendFrame(dst, func(dst []byte) []byte {
		p := s.Parts()
		dst = append(dst, byte(KindFull))
		dst = appendKey(dst, key)
		dst = appendConfig(dst, p.Shape.Config())
		dst = binary.AppendUvarint(dst, uint64(p.Streams))
		dst = binary.AppendUvarint(dst, p.SealGen)
		dst = appendF64s(dst, p.Sums)
		dst = appendSummaries(dst, p.Summaries)
		return dst
	})
}

// AppendDeltaFrame appends one complete delta frame to dst; d must not be
// the zero Delta. Like AppendFrame, direct callers own the payload cap.
func AppendDeltaFrame(dst []byte, key string, d Delta) []byte {
	return appendFrame(dst, func(dst []byte) []byte {
		p := d.Parts()
		dst = append(dst, byte(KindDelta))
		dst = appendKey(dst, key)
		dst = appendConfig(dst, p.Shape.Config())
		dst = binary.AppendUvarint(dst, uint64(p.Streams))
		dst = binary.AppendUvarint(dst, p.SealGen)
		dst = binary.AppendUvarint(dst, d.FromGen())
		dst = binary.AppendUvarint(dst, uint64(d.Resident()))
		dst = appendF64s(dst, p.Sums)
		dst = appendSummaries(dst, p.Summaries)
		return dst
	})
}

// AppendTombstoneFrame appends one complete tombstone frame to dst.
func AppendTombstoneFrame(dst []byte, key string) []byte {
	return appendFrame(dst, func(dst []byte) []byte {
		dst = append(dst, byte(KindTombstone))
		return appendKey(dst, key)
	})
}

// appendFrame writes the header, runs the payload appender and patches the
// length field.
func appendFrame(dst []byte, payload func([]byte) []byte) []byte {
	dst = append(dst, magic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, Version)
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // payload length, patched below
	start := len(dst)
	dst = payload(dst)
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-start))
	return dst
}

func appendKey(dst []byte, key string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	return append(dst, key...)
}

func appendConfig(dst []byte, cfg core.Config) []byte {
	dst = binary.AppendUvarint(dst, uint64(cfg.Spec.Size))
	dst = binary.AppendUvarint(dst, uint64(cfg.Spec.Period))
	dst = binary.AppendUvarint(dst, uint64(cfg.Digits))
	var flags byte
	if cfg.FewK {
		flags |= flagFewK
	}
	if cfg.TopKOnly {
		flags |= flagTopKOnly
	}
	if cfg.SampleKOnly {
		flags |= flagSampleKOnly
	}
	dst = append(dst, flags)
	dst = appendF64(dst, cfg.Fraction)
	dst = appendF64(dst, cfg.StatThreshold)
	dst = appendF64(dst, cfg.BurstAlpha)
	dst = appendF64(dst, cfg.HighPhiMin)
	return appendF64s(dst, cfg.Phis)
}

func appendSummaries(dst []byte, summaries []core.Summary) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(summaries)))
	for i := range summaries {
		sm := &summaries[i]
		l, m := sm.NumQuantiles(), sm.Managed()
		dst = binary.AppendUvarint(dst, uint64(sm.Count()))
		dst = binary.AppendUvarint(dst, uint64(l))
		for i := 0; i < l; i++ {
			dst = appendF64(dst, sm.Quantile(i))
		}
		dst = binary.AppendUvarint(dst, uint64(l))
		for i := 0; i < l; i++ {
			dst = appendF64(dst, sm.Density(i))
		}
		dst = binary.AppendUvarint(dst, uint64(m))
		for mi := 0; mi < m; mi++ {
			dst = appendF64s(dst, sm.Tail(mi))
		}
		dst = binary.AppendUvarint(dst, uint64(m))
		for mi := 0; mi < m; mi++ {
			values, weights := sm.Samples(mi)
			dst = binary.AppendUvarint(dst, uint64(len(values)))
			for j, v := range values {
				dst = appendF64(dst, v)
				dst = binary.AppendUvarint(dst, uint64(weights[j]))
			}
		}
		if !sm.Flagged() {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		for mi := 0; mi < m; mi++ {
			if sm.Bursty(mi) {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
	}
	return dst
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendF64s(dst []byte, vs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = appendF64(dst, v)
	}
	return dst
}

// Decoder reads frames from a stream, reusing one frame buffer across
// calls.
type Decoder struct {
	frameReader        // buf holds the header and payload of the frame last read
	raw         []byte // buf once its frame has decoded; nil after an error

	// cfgRaw is the encoded configuration of the last frame whose config
	// validated, and shape what it resolved to: a frame carrying the same
	// bytes — every frame of a typical blob — shares that Shape instead of
	// decoding, validating and allocating its own. shapes, when set, is
	// where the decoder looks up and keeps the shapes of new bytes.
	cfgRaw []byte
	shape  *core.Shape
	shapes *Shapes

	sum summaryScratch
}

// NewDecoder returns a Decoder reading from r. Frames are read with
// exactly two reads each (header, then payload), so no extra buffering
// layer is needed even over a pipe.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{frameReader: frameReader{r: r}} }

// Shapes interns the shapes decoders resolve, by the encoded bytes of their
// configuration, so that every decoder made by NewDecoder hands out ONE
// *core.Shape per configuration however many blobs carry it: the states a
// receiver keeps from them share it, and a fold comparing two of them
// finds one pointer instead of comparing fields. It keeps at most
// maxShapes configurations (a receiver sees a handful; one pushed garbage
// must not grow it without bound) and resolves the rest per decoder, as a
// plain Decoder does. The zero value is ready to use and safe for
// concurrent use.
type Shapes struct {
	mu sync.Mutex
	m  map[string]*core.Shape
}

// maxShapes bounds a Shapes table.
const maxShapes = 64

// NewDecoder returns a Decoder reading from r whose shapes are interned in
// t.
func (t *Shapes) NewDecoder(r io.Reader) *Decoder {
	return &Decoder{frameReader: frameReader{r: r}, shapes: t}
}

// lookup returns the shape interned for the encoded configuration raw, or
// nil.
func (t *Shapes) lookup(raw []byte) *core.Shape {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[string(raw)]
}

// intern returns the shape kept for raw, keeping sh as it when there is
// none and room for it.
func (t *Shapes) intern(raw []byte, sh *core.Shape) *core.Shape {
	t.mu.Lock()
	defer t.mu.Unlock()
	if kept, ok := t.m[string(raw)]; ok {
		return kept
	}
	if len(t.m) < maxShapes {
		if t.m == nil {
			t.m = make(map[string]*core.Shape)
		}
		t.m[string(raw)] = sh
	}
	return sh
}

// Consumed returns the total bytes read from the stream so far —
// including the bytes of a frame whose decode failed, so after an error
// it points at where in the input the bad frame ends (or the stream gave
// out).
func (d *Decoder) Consumed() int64 { return d.consumed }

// Raw returns the verbatim bytes, header included, of the frame the last
// DecodeFrame or Decode call returned, or nil if that call failed. The bytes
// are the Decoder's own and valid until its next call; a caller that keeps
// them copies them.
func (d *Decoder) Raw() []byte { return d.raw }

// Decode reads the next frame of a snapshot-only stream. At a clean end of
// stream it returns io.EOF unwrapped; a well-formed delta or tombstone
// frame is an error wrapping ErrFrameKind (use DecodeFrame for mixed
// streams); any other failure wraps a package sentinel and never panics,
// whatever the input bytes.
func (d *Decoder) Decode() (key string, snap core.Snapshot, err error) {
	f, err := d.DecodeFrame()
	if err != nil {
		return "", core.Snapshot{}, err
	}
	if f.Kind != KindFull {
		return "", core.Snapshot{}, fmt.Errorf("%w: %v frame in a snapshot-only stream", ErrFrameKind, f.Kind)
	}
	return f.Key, f.Snap, nil
}

// DecodeFrame reads the next frame of any kind. At a clean end of stream
// (the reader is exhausted exactly at a frame boundary) it returns io.EOF
// unwrapped; any other failure wraps a package sentinel and never panics,
// whatever the input bytes.
func (d *Decoder) DecodeFrame() (Frame, error) {
	d.raw = nil
	v, err := d.next()
	if err != nil {
		return Frame{}, err
	}
	f, err := d.decodePayload(d.buf[headerSize:], v)
	if err == nil {
		d.raw = d.buf
	}
	return f, err
}

// payloadReader is a bounds-checked cursor over one frame's payload.
type payloadReader struct {
	b   []byte
	off int
}

func (r *payloadReader) remaining() int { return len(r.b) - r.off }

func (r *payloadReader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: %s: bad varint", ErrCorrupt, what)
	}
	r.off += n
	return v, nil
}

// count reads a length-prefixed element count and checks it against the
// bytes actually left (elemSize is a lower bound on the wire size of one
// element), so a corrupted length cannot drive allocation beyond the
// payload it arrived in. The check is v > remaining/elemSize without the
// divide: v*elemSize cannot overflow once v is at most remaining.
func (r *payloadReader) count(what string, elemSize int) (int, error) {
	v, err := r.uvarint(what)
	if err != nil {
		return 0, err
	}
	if rem := uint64(r.remaining()); v > rem || v*uint64(elemSize) > rem {
		return 0, fmt.Errorf("%w: %s: count %d exceeds remaining payload", ErrCorrupt, what, v)
	}
	return int(v), nil
}

func (r *payloadReader) byte(what string) (byte, error) {
	if r.remaining() < 1 {
		return 0, fmt.Errorf("%w: %s: payload exhausted", ErrCorrupt, what)
	}
	b := r.b[r.off]
	r.off++
	return b, nil
}

func (r *payloadReader) f64(what string) (float64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("%w: %s: payload exhausted", ErrCorrupt, what)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v, nil
}

func (r *payloadReader) f64s(what string) ([]float64, error) {
	n, err := r.count(what, 8)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
		r.off += 8
	}
	return out, nil
}

// appendF64s reads a length-prefixed float64 run onto dst, which therefore
// grows with the values actually present, never with a claimed count alone.
func (r *payloadReader) appendF64s(dst []float64, what string) ([]float64, error) {
	n, err := r.count(what, 8)
	if err != nil {
		return dst, err
	}
	for i := 0; i < n; i++ {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:])))
		r.off += 8
	}
	return dst, nil
}

func (d *Decoder) decodePayload(b []byte, version uint16) (Frame, error) {
	r := &payloadReader{b: b}
	kind, key, err := envelope(r, version)
	if err != nil {
		return Frame{}, err
	}

	if kind == KindTombstone {
		if r.remaining() != 0 {
			return Frame{}, fmt.Errorf("%w: %d trailing tombstone payload bytes", ErrCorrupt, r.remaining())
		}
		return Frame{Kind: KindTombstone, Key: key}, nil
	}

	if err := d.decodeShape(r); err != nil {
		return Frame{}, err
	}
	p := core.SnapshotParts{Shape: d.shape}
	if p.Streams, err = intField(r, "streams"); err != nil {
		return Frame{}, err
	}
	if version >= 2 {
		if p.SealGen, err = r.uvarint("seal generation"); err != nil {
			return Frame{}, err
		}
	}
	var fromGen uint64
	var resident int
	if kind == KindDelta {
		if fromGen, err = r.uvarint("delta from-generation"); err != nil {
			return Frame{}, err
		}
		if resident, err = intField(r, "delta resident count"); err != nil {
			return Frame{}, err
		}
	}
	if p.Sums, err = r.f64s("sums"); err != nil {
		return Frame{}, err
	}
	if err := noNaN("sums", p.Sums); err != nil {
		return Frame{}, err
	}

	// Each summary costs at least its count varint + two length varints +
	// tail/sample/burst bytes: >= 5 bytes on the wire. The slice GROWS as
	// summaries actually decode (capacity capped up front): a summary
	// header is far bigger in memory than its 5-byte wire floor, so
	// allocating the claimed count outright would let a corrupt count
	// demand ~10x the payload in one allocation.
	nSummaries, err := r.count("summary count", 5)
	if err != nil {
		return Frame{}, err
	}
	if nSummaries > 0 {
		p.Summaries = make([]core.Summary, 0, min(nSummaries, allocCap))
	}
	for i := 0; i < nSummaries; i++ {
		sm, err := d.sum.decode(r)
		if err != nil {
			return Frame{}, fmt.Errorf("summary %d: %w", i, err)
		}
		p.Summaries = append(p.Summaries, sm)
	}
	if r.remaining() != 0 {
		return Frame{}, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, r.remaining())
	}

	if kind == KindDelta {
		d, err := core.NewDelta(p, fromGen, resident)
		if err != nil {
			return Frame{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return Frame{Kind: KindDelta, Key: key, Delta: d}, nil
	}

	snap, err := core.NewSnapshot(p)
	if err != nil {
		return Frame{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return Frame{Kind: KindFull, Key: key, Snap: snap}, nil
}

// decodeShape consumes the frame's configuration and leaves what it resolves
// to in d.shape. A configuration byte-identical to the previous frame's — or,
// through d.shapes, to one another decoder resolved — is not decoded again:
// the frames then share one read-only Shape (as SnapshotParts documents for
// summaries), and each distinct configuration is validated once.
func (d *Decoder) decodeShape(r *payloadReader) error {
	start := r.off
	if end, ok := configEnd(r.b, start); ok {
		raw := r.b[start:end]
		if d.cfgRaw != nil && bytes.Equal(raw, d.cfgRaw) {
			r.off = end
			return nil
		}
		if d.shapes != nil {
			if sh := d.shapes.lookup(raw); sh != nil {
				d.shape, d.cfgRaw = sh, append(d.cfgRaw[:0], raw...)
				r.off = end
				return nil
			}
		}
	}
	cfg, err := decodeConfig(r)
	if err != nil {
		return err
	}
	shape, err := core.NewShape(cfg)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	raw := r.b[start:r.off]
	if d.shapes != nil {
		shape = d.shapes.intern(raw, shape)
	}
	d.shape, d.cfgRaw = shape, append(d.cfgRaw[:0], raw...)
	return nil
}

// configEnd returns where the encoded configuration that starts at b[off]
// ends, without decoding it; ok is false if it does not fit in b (decodeConfig
// then says what is wrong with it).
func configEnd(b []byte, off int) (end int, ok bool) {
	for i := 0; i < 3; i++ { // size, period, digits
		_, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
	}
	off += 1 + 4*8 // flags, four float64 fields
	if off > len(b) {
		return 0, false
	}
	nPhis, n := binary.Uvarint(b[off:])
	if n <= 0 || nPhis > uint64(len(b)-off-n)/8 {
		return 0, false
	}
	return off + n + 8*int(nPhis), true
}

func decodeConfig(r *payloadReader) (core.Config, error) {
	var cfg core.Config
	var err error
	if cfg.Spec.Size, err = intField(r, "window size"); err != nil {
		return cfg, err
	}
	if cfg.Spec.Period, err = intField(r, "window period"); err != nil {
		return cfg, err
	}
	if cfg.Digits, err = intField(r, "digits"); err != nil {
		return cfg, err
	}
	flags, err := r.byte("config flags")
	if err != nil {
		return cfg, err
	}
	if flags&flagsCorrupt != 0 {
		return cfg, fmt.Errorf("%w: config flags %#02x", ErrCorrupt, flags)
	}
	cfg.FewK = flags&flagFewK != 0
	cfg.TopKOnly = flags&flagTopKOnly != 0
	cfg.SampleKOnly = flags&flagSampleKOnly != 0
	for _, f := range []struct {
		dst  *float64
		what string
	}{
		{&cfg.Fraction, "fraction"},
		{&cfg.StatThreshold, "stat threshold"},
		{&cfg.BurstAlpha, "burst alpha"},
		{&cfg.HighPhiMin, "high-phi min"},
	} {
		v, err := r.f64(f.what)
		if err != nil {
			return cfg, err
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return cfg, fmt.Errorf("%w: %s: non-finite %v", ErrCorrupt, f.what, v)
		}
		*f.dst = v
	}
	if cfg.Phis, err = r.f64s("phis"); err != nil {
		return cfg, err
	}
	// ValidatePhis catches Inf (outside (0, 1]) but every comparison it
	// runs is false for NaN, so the NaN policy must be enforced here.
	if err := noNaN("phis", cfg.Phis); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// summaryScratch is where one summary's values land as they decode, before
// core.NewSummary copies them into a block of exactly their size — so the
// block is sized from the bytes actually present, whatever the counts in the
// payload claim, and costs one allocation. A Decoder reuses it for every
// summary of every frame.
type summaryScratch struct {
	// vals holds, back to back: the quantiles, the densities, every tail,
	// then per sample list its values followed by its weights. ends[i] is
	// where list i (tails first, then sample lists) ends in vals.
	vals []float64
	ends []int
	// Views into vals handed to NewSummary, cut once vals has stopped
	// growing, and the burst flags.
	tails, values, weights [][]float64
	flags                  []bool
}

func (sc *summaryScratch) decode(r *payloadReader) (core.Summary, error) {
	count, err := intField(r, "count")
	if err != nil {
		return core.Summary{}, err
	}
	vals, ends := sc.vals[:0], sc.ends[:0]
	if vals, err = r.appendF64s(vals, "quantiles"); err != nil {
		return core.Summary{}, err
	}
	l := len(vals)
	if err := noNaN("quantiles", vals); err != nil {
		return core.Summary{}, err
	}
	if vals, err = r.appendF64s(vals, "densities"); err != nil {
		return core.Summary{}, err
	}
	// Densities may legitimately be +Inf (point mass) but never NaN or
	// -Inf (the finite-difference construction cannot produce either).
	for _, v := range vals[l:] {
		if math.IsNaN(v) || math.IsInf(v, -1) {
			return core.Summary{}, fmt.Errorf("%w: densities: invalid %v", ErrCorrupt, v)
		}
	}
	listsAt := len(vals)
	nTails, err := r.count("tail count", 1)
	if err != nil {
		return core.Summary{}, err
	}
	for mi := 0; mi < nTails; mi++ {
		start := len(vals)
		if vals, err = r.appendF64s(vals, "tail"); err != nil {
			return core.Summary{}, err
		}
		if err := noNaN("tail", vals[start:]); err != nil {
			return core.Summary{}, err
		}
		if err := descending("tail", vals[start:]); err != nil {
			return core.Summary{}, err
		}
		ends = append(ends, len(vals))
	}
	nSamples, err := r.count("sample list count", 1)
	if err != nil {
		return core.Summary{}, err
	}
	for mi := 0; mi < nSamples; mi++ {
		n, err := r.count("sample list", 9) // 8-byte value + >=1-byte weight
		if err != nil {
			return core.Summary{}, err
		}
		start := len(vals)
		vals = append(vals, make([]float64, 2*n)...)
		values, weights := vals[start:start+n], vals[start+n:]
		for j := range values {
			v, err := r.f64("sample value")
			if err != nil {
				return core.Summary{}, err
			}
			if math.IsNaN(v) {
				return core.Summary{}, fmt.Errorf("%w: sample value: NaN", ErrCorrupt)
			}
			if j > 0 && v > values[j-1] {
				return core.Summary{}, fmt.Errorf("%w: sample values not descending", ErrCorrupt)
			}
			w, err := intField(r, "sample weight")
			if err != nil {
				return core.Summary{}, err
			}
			values[j], weights[j] = v, float64(w)
		}
		ends = append(ends, len(vals))
	}
	burst, err := r.byte("burst flag")
	if err != nil {
		return core.Summary{}, err
	}
	var flags []bool
	switch burst {
	case 0:
	case 1:
		// One flag per managed quantile; the managed count equals the tail
		// count in every valid capture, which NewSnapshot re-checks against
		// the configuration afterwards.
		flags = sc.flags[:0]
		for mi := 0; mi < nTails; mi++ {
			b, err := r.byte("burst flags")
			if err != nil {
				return core.Summary{}, err
			}
			if b > 1 {
				return core.Summary{}, fmt.Errorf("%w: burst flag byte %d", ErrCorrupt, b)
			}
			flags = append(flags, b == 1)
		}
		sc.flags = flags
		if flags == nil {
			flags = []bool{} // flagged, with no managed quantile to flag
		}
	default:
		return core.Summary{}, fmt.Errorf("%w: burst presence byte %d", ErrCorrupt, burst)
	}

	sc.vals, sc.ends = vals, ends // keep what grew
	sc.tails, sc.values, sc.weights = sc.tails[:0], sc.values[:0], sc.weights[:0]
	at := listsAt
	for i, end := range ends {
		if i < nTails {
			sc.tails = append(sc.tails, vals[at:end])
		} else {
			n := (end - at) / 2
			sc.values, sc.weights = append(sc.values, vals[at:at+n]), append(sc.weights, vals[at+n:end])
		}
		at = end
	}
	sm, err := core.NewSummary(count, vals[:l], vals[l:listsAt], sc.tails, sc.values, sc.weights, flags)
	if err != nil {
		return core.Summary{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return sm, nil
}

// intField reads a uvarint that must fit a non-negative int.
func intField(r *payloadReader, what string) (int, error) {
	v, err := r.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 {
		return 0, fmt.Errorf("%w: %s: %d out of range", ErrCorrupt, what, v)
	}
	return int(v), nil
}

func noNaN(what string, vs []float64) error {
	for _, v := range vs {
		if math.IsNaN(v) {
			return fmt.Errorf("%w: %s: NaN", ErrCorrupt, what)
		}
	}
	return nil
}

func descending(what string, vs []float64) error {
	for i := 1; i < len(vs); i++ {
		if vs[i] > vs[i-1] {
			return fmt.Errorf("%w: %s not sorted descending", ErrCorrupt, what)
		}
	}
	return nil
}
