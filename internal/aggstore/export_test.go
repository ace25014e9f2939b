package aggstore

import (
	"os"
	"path/filepath"
	"testing"
)

// Hooks shared with the aggstore_test package, whose tests drive the disk
// store with the blobs a real Engine exports.

var (
	RequireSameState = requireSameState
	ResidentNames    = residentNames
)

// residentNames lists every internal name the worker holds, sorted.
func residentNames(s Store, worker string) []string {
	var names []string
	for _, ns := range s.NamesMatching(worker, func(string) bool { return true }) {
		names = append(names, ns.Name)
	}
	return names
}

// WAL record ops, as a scan reports them.
const (
	RecTouch = recTouch
	RecFrame = recFrame
)

// WALRecord is one record of a WAL segment: its op, its worker, what
// follows the worker name (a frame record's frame), and its extent in the
// segment, header and CRC included.
type WALRecord struct {
	Op         byte
	Worker     string
	Rest       []byte
	Start, End int
}

// ReadWAL returns the newest WAL segment in dir and its records, up to the
// first that does not scan.
func ReadWAL(t testing.TB, dir string) (string, []WALRecord) {
	t.Helper()
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("wal files: %v (%v)", wals, err)
	}
	path := wals[len(wals)-1] // zero-padded sequence numbers sort lexically
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []WALRecord
	for off := 0; ; {
		body, next, ok := walRecordAt(data, off)
		if !ok {
			break
		}
		worker, rest, err := takeLenPrefixed(body[1:])
		if err != nil {
			t.Fatalf("record at %d: %v", off, err)
		}
		recs = append(recs, WALRecord{Op: body[0], Worker: worker, Rest: rest, Start: off, End: next})
		off = next
	}
	return path, recs
}
