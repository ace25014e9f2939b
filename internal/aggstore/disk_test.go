package aggstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// requireSameState asserts the disk store's whole observable surface
// matches the reference store's.
func requireSameState(t *testing.T, got, want Store, when string) {
	t.Helper()
	if g, w := got.WorkerCount(), want.WorkerCount(); g != w {
		t.Fatalf("%s: WorkerCount %d != %d", when, g, w)
	}
	if g, w := got.KeyCount(), want.KeyCount(); g != w {
		t.Fatalf("%s: KeyCount %d != %d", when, g, w)
	}
	workers := want.Workers(nil)
	if g := got.Workers(nil); !reflect.DeepEqual(g, workers) {
		t.Fatalf("%s: Workers %v != %v", when, g, workers)
	}
	for _, id := range workers {
		names := residentNames(want, id)
		if g := residentNames(got, id); !reflect.DeepEqual(g, names) {
			t.Fatalf("%s: resident names of %s %v != %v", when, id, g, names)
		}
		seen := map[string]struct{}{}
		for _, n := range names {
			base := wire.LogicalKey(n)
			if _, dup := seen[base]; dup {
				continue
			}
			seen[base] = struct{}{}
			g, w := got.Group(id, base), want.Group(id, base)
			if len(g) != len(w) {
				t.Fatalf("%s: Group(%s,%s): %d members != %d", when, id, base, len(g), len(w))
			}
			for i := range g {
				if g[i].Name != w[i].Name {
					t.Fatalf("%s: Group(%s,%s)[%d] name %q != %q", when, id, base, i, g[i].Name, w[i].Name)
				}
				if !reflect.DeepEqual(g[i].State.Parts, w[i].State.Parts) {
					t.Fatalf("%s: Group(%s,%s)[%d] %q parts diverge after recovery", when, id, base, i, g[i].Name)
				}
			}
		}
	}
}

// TestDiskRecovery drives the same randomized frames through a Map and a
// Disk, then reopens the directory three ways — after a clean Close,
// after an abandon-without-Close (the kill -9 shape; FsyncAlways makes
// every applied record durable), and after further ops atop the recovered
// state — requiring the recovered store to match the reference exactly,
// parts and all.
func TestDiskRecovery(t *testing.T) {
	dir := t.TempDir()
	ref := NewMap()
	rng := rand.New(rand.NewSource(11))
	var tag uint64

	d, err := OpenDisk(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	driveOps(t, rng, 300, &tag, nil, ref, d)
	requireSameState(t, d, ref, "before close")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d, err = OpenDisk(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, d, ref, "after clean reopen")

	// Keep mutating, then abandon WITHOUT Close: FsyncAlways means every
	// completed mutation is already on disk, exactly the kill -9 contract.
	driveOps(t, rng, 200, &tag, nil, ref, d)
	d2, err := OpenDisk(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, d2, ref, "after crash reopen")

	// The recovered store keeps accepting and persisting new mutations.
	driveOps(t, rng, 100, &tag, nil, ref, d2)
	requireSameState(t, d2, ref, "after post-recovery ops")
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d2.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskTornTail pins crash-mid-append semantics: a torn record at the
// WAL tail is detected (CRC/length), truncated, and everything before it
// recovers; subsequent appends land cleanly on the truncated log. The last
// record is a frame record, cut at every offset inside it: each cut
// recovers the state before that frame.
func TestDiskTornTail(t *testing.T) {
	dir := t.TempDir()
	ref := NewMap()
	d, err := OpenDisk(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []string{"a", "b", "c"} {
		for _, s := range []Store{ref, d} {
			s.Touch("w", time.Unix(int64(i), 0))
			mustApply(t, s, "w", fullFrame(t, k, uint64(i+1)))
		}
	}
	raw := deltaFrame(t, "a", 1, 4)
	mustApply(t, d, "w", raw)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	path, recs := ReadWAL(t, dir)
	last := recs[len(recs)-1]
	if last.Op != recFrame || !bytes.Equal(last.Rest, raw) {
		t.Fatalf("last record: op %d, %d bytes; want the frame as applied", last.Op, len(last.Rest))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := last.Start; cut < last.End; cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDisk(DiskConfig{Dir: dir, Fsync: FsyncNone})
		if err != nil {
			t.Fatal(err)
		}
		requireSameState(t, d, ref, fmt.Sprintf("cut %d bytes into the frame record", cut-last.Start))
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mustApply(t, ref, "w", raw)

	// Tear the tail: a record header claiming more bytes than follow.
	wf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Write([]byte{0xff, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	wf.Close()

	d, err = OpenDisk(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, d, ref, "after torn tail")
	mustApply(t, d, "w", fullFrame(t, "d", 9))
	mustApply(t, ref, "w", fullFrame(t, "d", 9))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = OpenDisk(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, d, ref, "after append past torn tail")
	d.Close()
}

// TestDiskReplayRejectsBadFrameRecords: a frame record is replayed only if
// it holds exactly one frame and that frame folds. Records the live store
// would never write — trailing bytes after the frame, a delta for a key
// never bootstrapped — are sealed with valid CRCs here, followed by a good
// record; each ends the valid prefix like a torn tail: the good record after
// it is not replayed and the log is truncated where the bad one starts.
func TestDiskReplayRejectsBadFrameRecords(t *testing.T) {
	full := fullFrame(t, "k", 1)
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"trailing bytes", append(append([]byte(nil), full...), 0)},
		{"delta never bootstrapped", deltaFrame(t, "k", 3, 5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ref := NewMap()
			d, err := OpenDisk(DiskConfig{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []Store{ref, d} {
				s.Touch("w", time.Unix(1, 0))
				mustApply(t, s, "w", fullFrame(t, "before", 2))
			}
			d.mu.Lock()
			d.appendRecord(append(appendLenPrefixed(d.newRecord(recFrame), "w"), tc.frame...))
			d.mu.Unlock()
			mustApply(t, d, "w", fullFrame(t, "after", 3))
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			path, recs := ReadWAL(t, dir)
			bad := recs[len(recs)-2]
			if bad.Op != recFrame {
				t.Fatalf("record %d is op %d, not the bad frame record", len(recs)-2, bad.Op)
			}

			d, err = OpenDisk(DiskConfig{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			requireSameState(t, d, ref, "reopen past a bad frame record")
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != int64(bad.Start) {
				t.Fatalf("log is %d bytes, not truncated at the bad record's offset %d", fi.Size(), bad.Start)
			}
		})
	}
}

// TestDiskCompaction forces compaction after nearly every mutation
// (CompactBytes=1) and requires the snapshot+fresh-WAL cycle to preserve
// state across a reopen, retire superseded files, and tolerate an
// abandoned temp snapshot (the crash-mid-compaction shape).
func TestDiskCompaction(t *testing.T) {
	dir := t.TempDir()
	ref := NewMap()
	rng := rand.New(rand.NewSource(23))
	var tag uint64
	d, err := OpenDisk(DiskConfig{Dir: dir, CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	driveOps(t, rng, 200, &tag, nil, ref, d)
	requireSameState(t, d, ref, "compacting store")
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, e.Name())
	}
	if len(files) > 3 {
		t.Fatalf("compaction left %d files behind: %v", len(files), files)
	}

	// A leftover temp snapshot (crash between write and rename) is inert.
	if err := os.WriteFile(filepath.Join(dir, "snap-9999999999999999.bin.tmp"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d, err = OpenDisk(DiskConfig{Dir: dir, CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, d, ref, "after compacted reopen")
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("temp snapshot survived recovery: %v", tmps)
	}
	d.Close()
}

// TestDiskExplicitCompactAndCorruptSnapshotFallback: a corrupted newest
// snapshot falls back to the previous snapshot+WAL pair when one exists.
func TestDiskExplicitCompactAndCorruptSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	ref := NewMap()
	d, err := OpenDisk(DiskConfig{Dir: dir, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		for _, s := range []Store{ref, d} {
			s.Touch("w", time.Unix(int64(i), 0))
			mustApply(t, s, "w", deltaFrame(t, "k", uint64(i-1), uint64(i)))
		}
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	mustApply(t, d, "w", fullFrame(t, "post", 7))
	mustApply(t, ref, "w", fullFrame(t, "post", 7))
	d.Close()

	// Reopen: snapshot + the post-compaction WAL record.
	d, err = OpenDisk(DiskConfig{Dir: dir, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, d, ref, "snapshot+wal reopen")
	d.Close()

	// Corrupt the snapshot: with no older snapshot the directory still
	// opens (empty state is the honest answer for a destroyed single copy)
	// — but the WAL tail must not crash recovery.
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.bin"))
	if len(snaps) != 1 {
		t.Fatalf("snapshots: %v", snaps)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err = OpenDisk(DiskConfig{Dir: dir, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if n := d.WorkerCount(); n != 0 {
		// Only the post-compaction WAL survived; it re-creates the worker
		// via its frame record, so 1 worker with just the "post" key is also
		// acceptable — what is NOT acceptable is a phantom full recovery.
		if names := residentNames(d, "w"); len(names) != 1 || names[0] != "post" {
			t.Fatalf("corrupt snapshot recovered to workers=%d names=%v", n, names)
		}
	}
	d.Close()
}

// TestDiskFsyncModes exercises the interval and none disciplines: both
// recover everything after a clean Close, and the interval flusher makes
// records durable without one.
func TestDiskFsyncModes(t *testing.T) {
	for _, mode := range []string{FsyncInterval, FsyncNone} {
		dir := t.TempDir()
		ref := NewMap()
		cfg := DiskConfig{Dir: dir, Fsync: mode}
		d, err := OpenDisk(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		var tag uint64
		driveOps(t, rng, 120, &tag, nil, ref, d)
		if mode == FsyncInterval {
			// The flusher must land the buffered records on its own. The
			// poll replays the directory read-only: a second store's
			// recovery would truncate the torn tail it finds — a record
			// the live store may still be writing.
			deadline := time.Now().Add(2 * time.Second)
			for {
				m := replayDir(t, dir)
				if m.WorkerCount() == ref.WorkerCount() && m.KeyCount() == ref.KeyCount() {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s: interval flusher never persisted the tail", mode)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		d, err = OpenDisk(cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireSameState(t, d, ref, mode+" after clean close")
		d.Close()
	}
}

// replayDir returns what a recovery of dir would rebuild, without opening
// a file for writing or truncating a torn tail.
func replayDir(t *testing.T, dir string) *Map {
	t.Helper()
	d := &Disk{mem: NewMap(), dir: dir}
	if _, _, err := d.load(); err != nil {
		t.Fatal(err)
	}
	return d.mem
}

// TestDiskConfigValidation pins the constructor's error surface.
func TestDiskConfigValidation(t *testing.T) {
	if _, err := OpenDisk(DiskConfig{}); err == nil {
		t.Fatal("empty dir accepted")
	}
	if _, err := OpenDisk(DiskConfig{Dir: t.TempDir(), Fsync: "sometimes"}); err == nil ||
		!strings.Contains(err.Error(), "fsync") {
		t.Fatalf("bad fsync mode: %v", err)
	}
}

// TestMalformedNamesAreUnsaltedKeys: a name whose NUL is not the
// second-to-last byte is refused by the aggregator, but a WAL written before
// that check existed may hold one, and a store must group it (as an unsalted
// key) rather than index past its end — on the live path and on replay. Once
// the first-NUL split panicked here with the WAL record already appended, so
// every later OpenDisk of the directory panicked too.
func TestMalformedNamesAreUnsaltedKeys(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ref := NewMap()
	ss := []Store{ref, NewStriped(0), d}
	var tag uint64
	for _, name := range []string{"abc\x00", "\x00", "a\x00bc"} {
		if wire.ValidName(name) {
			t.Fatalf("%q is a valid name", name)
		}
		for _, s := range ss {
			s.Touch("w", time.Unix(1000, 0))
			mustApply(t, s, "w", fullFrame(t, name, tag+1))
			mustApply(t, s, "w", deltaFrame(t, name, tag+1, tag+2))
			mustApply(t, s, "w", deltaFrame(t, name, 0, tag+3))
			mustApply(t, s, "w", deltaFrame(t, name, tag+3, tag+4))
			if st, ok := resident(s, "w", name); !ok || st.Parts.SealGen != tag+4 {
				t.Fatalf("%T lost %q", s, name)
			}
			if name == "\x00" && !s.Drop("w", name) {
				t.Fatalf("%T: Drop(%q) found nothing", s, name)
			}
		}
		tag += 4
	}
	requireSameState(t, ss[1], ref, "striped")
	requireSameState(t, d, ref, "disk before close")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = OpenDisk(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen a WAL holding malformed names: %v", err)
	}
	defer d.Close()
	requireSameState(t, d, ref, "disk after reopen")
}
