package aggstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/wire"
)

// Disk is the persistent store backend: a single-map store whose every
// mutation is first appended to an on-disk write-ahead log, with periodic
// snapshot compaction. Reopening the same directory replays the newest
// loadable snapshot plus the log's valid prefix, reconstructing the
// resident state — per-worker folds, salt-group indexes, last-push stamps
// — exactly as it was at the last durable record, so an aggregator
// restart resumes delta ingestion where the acknowledged pushes left off.
//
// Layout (one Disk instance owns a directory at a time):
//
//	wal-<seq>.log    append-only mutation log: length-prefixed,
//	                 CRC32-sealed records; a torn tail (crash mid-append)
//	                 is detected and truncated on recovery
//	snap-<seq>.bin   full-state snapshot taken when the previous WAL
//	                 outgrew CompactBytes; written to a temp file, synced,
//	                 renamed — a crash mid-compaction leaves the previous
//	                 snapshot+WAL pair intact
//
// A fold (ApplyFrame) is logged as the frame that arrived: one frame record
// holds the worker and the frame's bytes exactly as received, and replay
// decodes it and folds it through the same planner against the replayed
// state, so a rejected delta logs nothing and a replayed one lands where the
// live one did. Live folds log only frame, drop, touch and drop-worker
// records. WALs written before frame records existed hold state records
// instead — a resulting state re-encoded as a wire full frame under a put,
// replace-group or bootstrap-sub op — and those still replay
// (testdata/state_records.wal pins it). Snapshots hold every resident state
// as a full frame, so anything resident (a core.Snapshot checked when its
// frame decoded) round-trips bit-identically.
//
// Durability is governed by DiskConfig.Fsync: FsyncAlways syncs every
// record before the mutation returns (a state acknowledged to a worker
// survives kill -9), FsyncInterval batches syncs on a timer, FsyncNone
// syncs only at compaction and Close. Mutations are serialized by one
// mutex (the WAL is inherently serial); reads go straight to the resident
// in-memory map and run in parallel as usual. A write error does not take
// the store down — it keeps serving from memory — but is sticky and
// surfaced by Err and Close so the operator layer can report lost
// durability.
type Disk struct {
	mem          *Map
	dir          string
	mode         string
	compactBytes int64
	// shapes is the table recovery resolved every configuration through;
	// the receiver decodes later pushes through it too (Shapes), so the
	// states of one configuration share one shape across a restart.
	shapes wire.Shapes

	mu       sync.Mutex
	seq      uint64 // active WAL sequence
	snapSeq  uint64 // snapshot the active WAL extends (0 = none)
	wal      *os.File
	bw       *bufio.Writer // nil in FsyncAlways mode
	walBytes int64
	scratch  []byte
	werr     error
	closed   bool
	stop     chan struct{} // interval flusher lifecycle (nil otherwise)
	done     chan struct{}
}

// Fsync modes for DiskConfig.Fsync.
const (
	FsyncAlways   = "always"
	FsyncInterval = "interval"
	FsyncNone     = "none"
)

const (
	// fsyncPeriod is the sync cadence of FsyncInterval mode.
	fsyncPeriod         = 100 * time.Millisecond
	defaultCompactBytes = 8 << 20
	// maxWalRecord bounds a record's claimed length during recovery (a
	// frame payload is capped at 1 GiB by the wire format; the record adds
	// only the op byte and the worker name).
	maxWalRecord = 1<<30 + 1<<20
)

// WAL record ops. recFrame is a fold logged as its received frame. The first
// three are state records, which only WALs written before frame records
// existed hold: replay still reads them, nothing writes them.
const (
	recPut byte = iota + 1
	recReplaceGroup
	recBootstrapSub
	recDrop
	recTouch
	recDropWorker
	recFrame
)

var (
	snapMagic = []byte("QAGS")
	snapEnd   = []byte("QAGE")
)

// DiskConfig parameterizes OpenDisk.
type DiskConfig struct {
	// Dir is the storage directory, created if needed. One Disk instance
	// must own it at a time.
	Dir string
	// Fsync selects the WAL durability discipline: FsyncAlways (the
	// default — every record synced before the mutation returns),
	// FsyncInterval (buffered appends synced every fsyncPeriod, 100ms),
	// or FsyncNone (buffered, synced only at compaction and Close).
	Fsync string
	// CompactBytes triggers snapshot compaction once the active WAL
	// exceeds this many bytes (0 picks the 8 MiB default; negative
	// disables compaction).
	CompactBytes int64
}

// OpenDisk opens (creating or recovering) a persistent store in cfg.Dir.
func OpenDisk(cfg DiskConfig) (*Disk, error) {
	if cfg.Dir == "" {
		return nil, errors.New("aggstore: disk store needs a directory")
	}
	mode := cfg.Fsync
	if mode == "" {
		mode = FsyncAlways
	}
	switch mode {
	case FsyncAlways, FsyncInterval, FsyncNone:
	default:
		return nil, fmt.Errorf("aggstore: unknown fsync mode %q (always | interval | none)", cfg.Fsync)
	}
	compact := cfg.CompactBytes
	if compact == 0 {
		compact = defaultCompactBytes
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("aggstore: disk store: %w", err)
	}
	d := &Disk{mem: NewMap(), dir: cfg.Dir, mode: mode, compactBytes: compact}
	if err := d.recover(); err != nil {
		return nil, fmt.Errorf("aggstore: disk store %s: %w", cfg.Dir, err)
	}
	if mode == FsyncInterval {
		d.stop, d.done = make(chan struct{}), make(chan struct{})
		go d.flushLoop()
	}
	return d, nil
}

func (d *Disk) Kind() string { return "disk" }

// Shapes returns the shape table the store recovered with, for the decoder
// of the frames that are then applied to it.
func (d *Disk) Shapes() *wire.Shapes { return &d.shapes }

// Err returns the sticky write error, if any: after a failed WAL append,
// snapshot write or sync the store keeps serving from memory, but
// durability of subsequent mutations is gone until the store is reopened.
func (d *Disk) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.werr
}

// Close flushes and closes the WAL. The store must not be used after
// Close; reopening the directory recovers everything durable.
func (d *Disk) Close() error {
	if d.stop != nil {
		close(d.stop)
		<-d.done
		d.stop = nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return d.werr
	}
	d.closed = true
	if err := d.flushSync(); err != nil && d.werr == nil {
		d.werr = err
	}
	if err := d.wal.Close(); err != nil && d.werr == nil {
		d.werr = err
	}
	return d.werr
}

// Compact forces a snapshot compaction (tests and operational tooling;
// the store compacts itself when the WAL outgrows CompactBytes).
func (d *Disk) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("aggstore: disk store is closed")
	}
	if d.werr != nil {
		return d.werr
	}
	if err := d.compactLocked(); err != nil {
		d.werr = err
		return err
	}
	return nil
}

// --- reads: straight to the resident map ---

func (d *Disk) Group(worker, base string) []NamedState { return d.mem.Group(worker, base) }
func (d *Disk) NamesMatching(worker string, match func(base string) bool) []NamedState {
	return d.mem.NamesMatching(worker, match)
}
func (d *Disk) Workers(stale func(time.Time) bool) []string {
	return d.mem.Workers(stale)
}
func (d *Disk) WorkerCount() int            { return d.mem.WorkerCount() }
func (d *Disk) KeyCount() int               { return d.mem.KeyCount() }
func (d *Disk) LockWaitNanos() (r, w int64) { return d.mem.LockWaitNanos() }

// --- mutations: WAL first, then the resident map, one lock ---

// ApplyFrame plans the fold against the resident map, logs the frame as it
// arrived, then applies the plan, all under d.mu: the log's order is the
// order folds were planned in, so replay re-plans each frame against exactly
// the state the live fold saw. A frame the plan rejects logs nothing.
func (d *Disk) ApplyFrame(worker string, f wire.Frame, raw []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	m, err := plan(d.mem.get, worker, f)
	if err != nil {
		return err
	}
	rec := d.newRecord(recFrame)
	rec = appendLenPrefixed(rec, worker)
	d.appendRecord(append(rec, raw...))
	m.apply(d.mem, worker)
	d.maybeCompact()
	return nil
}

func (d *Disk) Drop(worker, name string) bool {
	d.mu.Lock()
	rec := d.newRecord(recDrop)
	rec = appendLenPrefixed(rec, worker)
	rec = appendLenPrefixed(rec, name)
	d.appendRecord(rec)
	dropped := d.mem.Drop(worker, name)
	d.maybeCompact()
	d.mu.Unlock()
	return dropped
}

func (d *Disk) Touch(worker string, t time.Time) {
	d.mu.Lock()
	rec := d.newRecord(recTouch)
	rec = appendLenPrefixed(rec, worker)
	var ts [8]byte
	binary.LittleEndian.PutUint64(ts[:], uint64(t.UnixNano()))
	rec = append(rec, ts[:]...)
	d.appendRecord(rec)
	d.mem.Touch(worker, t)
	d.mu.Unlock()
}

func (d *Disk) DropWorker(worker string) bool {
	d.mu.Lock()
	rec := d.newRecord(recDropWorker)
	rec = appendLenPrefixed(rec, worker)
	d.appendRecord(rec)
	dropped := d.mem.DropWorker(worker)
	d.mu.Unlock()
	return dropped
}

func (d *Disk) SweepWorkers(stale func(time.Time) bool) int {
	if stale == nil {
		return 0
	}
	d.mu.Lock()
	// Log the individual drops, not the predicate: replay must reproduce
	// exactly the workers THIS sweep retired, whatever clock it runs under.
	live := make(map[string]struct{})
	for _, id := range d.mem.Workers(stale) {
		live[id] = struct{}{}
	}
	dropped := 0
	for _, id := range d.mem.Workers(nil) {
		if _, ok := live[id]; ok {
			continue
		}
		rec := d.newRecord(recDropWorker)
		rec = appendLenPrefixed(rec, id)
		d.appendRecord(rec)
		d.mem.DropWorker(id)
		dropped++
	}
	d.mu.Unlock()
	return dropped
}

// newRecord starts a WAL record in d.scratch: room for the length prefix
// appendRecord fills in, then the op. Caller holds d.mu.
func (d *Disk) newRecord(op byte) []byte {
	return append(d.scratch[:0], 0, 0, 0, 0, op)
}

// appendRecord seals rec, begun by newRecord, with its body's length and
// CRC32 and appends it to the WAL in one write (syncing in FsyncAlways
// mode). Caller holds d.mu. The grown buffer is kept for reuse.
func (d *Disk) appendRecord(rec []byte) {
	defer func() { d.scratch = rec[:0] }()
	if d.werr != nil || d.closed {
		return
	}
	body := rec[4:]
	binary.LittleEndian.PutUint32(rec, uint32(len(body)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(body))
	w := io.Writer(d.wal)
	if d.bw != nil {
		w = d.bw
	}
	if _, err := w.Write(rec); err != nil {
		d.werr = err
		return
	}
	d.walBytes += int64(len(rec))
	if d.mode == FsyncAlways {
		if err := d.wal.Sync(); err != nil {
			d.werr = err
		}
	}
}

func (d *Disk) maybeCompact() {
	if d.compactBytes > 0 && d.walBytes >= d.compactBytes && d.werr == nil && !d.closed {
		if err := d.compactLocked(); err != nil {
			d.werr = err
		}
	}
}

// compactLocked folds the WAL into a fresh snapshot: write snap-(seq+1)
// (temp file, sync, rename, dir sync), start wal-(seq+1), then retire
// everything older. A crash at any point leaves either the old
// snapshot+WAL pair or the new snapshot recoverable. Caller holds d.mu.
func (d *Disk) compactLocked() error {
	newSeq := d.seq + 1
	if err := d.writeSnapshot(newSeq); err != nil {
		return err
	}
	f, err := os.OpenFile(d.walPath(newSeq), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := d.syncDir(); err != nil {
		f.Close()
		return err
	}
	// The old WAL is fully superseded by the snapshot; unflushed buffered
	// records need not survive (they are IN the snapshot).
	d.wal.Close()
	d.wal, d.walBytes, d.seq, d.snapSeq = f, 0, newSeq, newSeq
	if d.bw != nil {
		d.bw = bufio.NewWriterSize(f, 1<<16)
	}
	d.removeObsolete(newSeq)
	return nil
}

// writeSnapshot persists the full resident state as snap-<seq>: magic,
// per-worker (sorted) id + last-push stamp + its states as wire full
// frames (sorted by internal name), CRC32 footer + end magic.
func (d *Disk) writeSnapshot(seq uint64) error {
	body := append(make([]byte, 0, 1<<16), snapMagic...)
	workers := d.mem.dump()
	body = appendUvarint(body, uint64(len(workers)))
	for _, w := range workers {
		body = appendLenPrefixed(body, w.id)
		var ts [8]byte
		binary.LittleEndian.PutUint64(ts[:], uint64(w.nanos))
		body = append(body, ts[:]...)
		body = appendUvarint(body, uint64(len(w.states)))
		for _, ns := range w.states {
			body = wire.AppendFrame(body, ns.Name, ns.Snap)
		}
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	body = append(body, crc[:]...)
	body = append(body, snapEnd...)

	tmp := d.snapPath(seq) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(body); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, d.snapPath(seq)); err != nil {
		return err
	}
	return d.syncDir()
}

// --- recovery ---

// recover rebuilds the resident map (load), truncates any torn tail off
// the newest segment, and leaves it open for appending.
func (d *Disk) recover() error {
	active, activeOff, err := d.load()
	if err != nil {
		return err
	}
	f, err := os.OpenFile(d.walPath(active), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if activeOff >= 0 {
		// Drop the torn tail so new appends start at a record boundary.
		if err := f.Truncate(activeOff); err != nil {
			f.Close()
			return err
		}
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return err
	}
	d.wal, d.seq, d.walBytes = f, active, end
	if d.mode != FsyncAlways {
		d.bw = bufio.NewWriterSize(f, 1<<16)
	}
	d.removeObsolete(d.snapSeq)
	return nil
}

// load rebuilds the resident map from the newest loadable snapshot plus
// every WAL segment at or after it (ascending), and returns the newest
// segment's sequence number and where its valid prefix ends (−1 when it
// has no file yet). It only reads, so it may replay a directory a live
// store is appending to.
func (d *Disk) load() (active uint64, activeOff int64, err error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return 0, 0, err
	}
	var snaps, wals []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "snap-", ".bin"); ok {
			snaps = append(snaps, seq)
		} else if seq, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			wals = append(wals, seq)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })

	// Newest snapshot that validates wins; an unreadable one (torn
	// mid-compaction crash) falls back to its predecessor, whose WAL
	// segment is still on disk and replays the difference. The snapshot and
	// every replayed frame resolve their configurations through one table,
	// so the recovered states of one configuration share one shape.
	for i := len(snaps) - 1; i >= 0; i-- {
		if err := d.loadSnapshot(snaps[i]); err == nil {
			d.snapSeq = snaps[i]
			break
		}
	}
	active = d.snapSeq
	for _, seq := range wals {
		if seq > active {
			active = seq
		}
	}
	if active == 0 {
		active = 1
	}
	activeOff = -1
	fr := newFrameReader(&d.shapes)
	for _, seq := range wals {
		if seq < d.snapSeq {
			continue
		}
		off, err := d.replayWAL(seq, fr)
		if err != nil {
			return 0, 0, err
		}
		if seq == active {
			activeOff = off
		}
	}
	return active, activeOff, nil
}

// replayWAL applies one segment's valid record prefix to the resident
// map, returning the offset where the valid prefix ends (a torn or
// corrupt tail stops the replay without error — it is exactly the
// in-flight mutation a crash cut off).
func (d *Disk) replayWAL(seq uint64, fr *frameReader) (int64, error) {
	data, err := os.ReadFile(d.walPath(seq))
	if err != nil {
		return 0, err
	}
	off := 0
	for {
		body, next, ok := walRecordAt(data, off)
		if !ok || applyRecord(d.mem, fr, body) != nil {
			break
		}
		off = next
	}
	return int64(off), nil
}

// walRecordAt returns the body of the WAL record starting at data[off] and
// the offset the next one starts at; ok is false when no whole record with
// a matching CRC starts there.
func walRecordAt(data []byte, off int) (body []byte, next int, ok bool) {
	if len(data)-off < 8 {
		return nil, off, false
	}
	n := binary.LittleEndian.Uint32(data[off:])
	if n == 0 || n > maxWalRecord || len(data)-off < int(n)+8 {
		return nil, off, false
	}
	body = data[off+4 : off+4+int(n)]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[off+4+int(n):]) {
		return nil, off, false
	}
	return body, off + 8 + int(n), true
}

// frameReader decodes the one frame a WAL record carries. One serves a
// whole recovery, so replayed frames share configurations the way the
// frames of one pushed blob do.
type frameReader struct {
	br  bytes.Reader
	dec *wire.Decoder
}

func newFrameReader(shapes *wire.Shapes) *frameReader {
	fr := &frameReader{}
	fr.dec = shapes.NewDecoder(&fr.br)
	return fr
}

// decode decodes b, which must hold exactly one frame.
func (fr *frameReader) decode(b []byte) (wire.Frame, error) {
	fr.br.Reset(b)
	start := fr.dec.Consumed()
	f, err := fr.dec.DecodeFrame()
	if err != nil {
		return wire.Frame{}, err
	}
	if n := fr.dec.Consumed() - start; n != int64(len(b)) {
		return wire.Frame{}, fmt.Errorf("record holds %d bytes past its frame", int64(len(b))-n)
	}
	return f, nil
}

// applyRecord replays one WAL record onto mem. A frame record whose fold
// the planner rejects is an error, ending the valid prefix like a torn one:
// the live store logged it only after the same plan succeeded.
func applyRecord(mem *Map, fr *frameReader, body []byte) error {
	if len(body) == 0 {
		return errors.New("empty record")
	}
	op, rest := body[0], body[1:]
	worker, rest, err := takeLenPrefixed(rest)
	if err != nil {
		return err
	}
	switch op {
	case recFrame:
		f, err := fr.decode(rest)
		if err != nil {
			return err
		}
		return applyFrame(mem, worker, f)
	case recPut, recReplaceGroup, recBootstrapSub:
		f, err := fr.decode(rest)
		if err != nil {
			return err
		}
		if f.Kind != wire.KindFull {
			return fmt.Errorf("state record carries a %v frame", f.Kind)
		}
		mutation{op: op, name: f.Key, st: f.Snap}.apply(mem, worker)
	case recDrop:
		name, _, err := takeLenPrefixed(rest)
		if err != nil {
			return err
		}
		mem.Drop(worker, name)
	case recTouch:
		if len(rest) != 8 {
			return errors.New("bad touch record")
		}
		mem.Touch(worker, metaTime(int64(binary.LittleEndian.Uint64(rest))))
	case recDropWorker:
		mem.DropWorker(worker)
	default:
		return fmt.Errorf("unknown wal op %d", op)
	}
	return nil
}

// loadSnapshot parses snap-<seq> into a fresh map, replacing the resident
// one only on full success (a partial parse must not leak state into a
// fallback to an older snapshot).
func (d *Disk) loadSnapshot(seq uint64) error {
	data, err := os.ReadFile(d.snapPath(seq))
	if err != nil {
		return err
	}
	if len(data) < len(snapMagic)+8 || !bytes.HasPrefix(data, snapMagic) || !bytes.HasSuffix(data, snapEnd) {
		return errors.New("snapshot framing invalid")
	}
	body := data[:len(data)-8]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(data)-8:]) {
		return errors.New("snapshot crc mismatch")
	}
	mem := NewMap()
	br := bytes.NewReader(body[len(snapMagic):])
	dec := d.shapes.NewDecoder(br)
	nw, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	for i := uint64(0); i < nw; i++ {
		id, err := readLenPrefixed(br)
		if err != nil {
			return err
		}
		var ts [8]byte
		if _, err := io.ReadFull(br, ts[:]); err != nil {
			return err
		}
		mem.Touch(id, metaTime(int64(binary.LittleEndian.Uint64(ts[:]))))
		ns, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		for j := uint64(0); j < ns; j++ {
			f, err := dec.DecodeFrame()
			if err != nil {
				return err
			}
			if f.Kind != wire.KindFull {
				return fmt.Errorf("snapshot carries a %v frame", f.Kind)
			}
			mem.set(id, mutation{op: recPut, name: f.Key, st: f.Snap})
		}
	}
	if br.Len() != 0 {
		return fmt.Errorf("snapshot has %d trailing bytes", br.Len())
	}
	d.mem = mem
	return nil
}

// removeObsolete retires snapshots older than keepSnap and WAL segments
// older than keepSnap's (they are fully folded into it), plus any
// abandoned temp files. Removal failures are ignored — stale files only
// cost space and are retried at the next compaction.
func (d *Disk) removeObsolete(keepSnap uint64) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(d.dir, name))
			continue
		}
		if seq, ok := parseSeq(name, "snap-", ".bin"); ok && seq < keepSnap {
			os.Remove(filepath.Join(d.dir, name))
		} else if seq, ok := parseSeq(name, "wal-", ".log"); ok && seq < keepSnap {
			os.Remove(filepath.Join(d.dir, name))
		}
	}
}

// --- fsync plumbing ---

func (d *Disk) flushLoop() {
	defer close(d.done)
	t := time.NewTicker(fsyncPeriod)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			d.mu.Lock()
			if !d.closed && d.werr == nil {
				if err := d.flushSync(); err != nil {
					d.werr = err
				}
			}
			d.mu.Unlock()
		}
	}
}

// flushSync drains the append buffer (when one exists) and syncs the WAL.
// Caller holds d.mu.
func (d *Disk) flushSync() error {
	if d.bw != nil {
		if err := d.bw.Flush(); err != nil {
			return err
		}
	}
	return d.wal.Sync()
}

func (d *Disk) syncDir() error {
	f, err := os.Open(d.dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	f.Close()
	return err
}

// --- encoding helpers and paths ---

func (d *Disk) walPath(seq uint64) string {
	return filepath.Join(d.dir, fmt.Sprintf("wal-%016d.log", seq))
}

func (d *Disk) snapPath(seq uint64) string {
	return filepath.Join(d.dir, fmt.Sprintf("snap-%016d.bin", seq))
}

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	return seq, err == nil
}

func appendUvarint(dst []byte, v uint64) []byte {
	var b [binary.MaxVarintLen64]byte
	return append(dst, b[:binary.PutUvarint(b[:], v)]...)
}

func appendLenPrefixed(dst []byte, s string) []byte {
	return append(appendUvarint(dst, uint64(len(s))), s...)
}

func takeLenPrefixed(b []byte) (string, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || uint64(len(b)-k) < n {
		return "", nil, errors.New("bad length-prefixed field")
	}
	return string(b[k : k+int(n)]), b[k+int(n):], nil
}

func readLenPrefixed(br *bytes.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > uint64(br.Len()) {
		return "", errors.New("bad length-prefixed field")
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// --- full-state dump (compaction source) ---

type diskWorkerDump struct {
	id     string
	nanos  int64
	states []NamedState
}

// dump captures the whole resident state in deterministic order: workers
// sorted by id, each worker's states sorted by internal name (base before
// its salted sub-streams, NUL sorting below every user byte).
func (m *Map) dump() []diskWorkerDump {
	m.rlock()
	defer m.runlock()
	out := make([]diskWorkerDump, 0, len(m.workers))
	for id, w := range m.workers {
		dw := diskWorkerDump{id: id, nanos: w.lastPush.UnixNano()}
		bases := make([]string, 0, len(w.groups))
		for b := range w.groups {
			bases = append(bases, b)
		}
		sort.Strings(bases)
		for _, b := range bases {
			dw.states = w.groups[b].fold(b, dw.states)
		}
		out = append(out, dw)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}
