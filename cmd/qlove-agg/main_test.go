package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/wire"
	"repro/internal/workload"
)

// exportBlob runs one worker engine over the given keys and returns its
// export.
func exportBlob(t *testing.T, cfg qlove.Config, seeds map[string]int64) []byte {
	t.Helper()
	e, err := qlove.NewEngine(qlove.EngineConfig{Config: cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for key, seed := range seeds {
		if err := e.Push(key, workload.Generate(workload.NewNetMon(seed), 3*cfg.Spec.Size)); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	var buf bytes.Buffer
	if _, err := e.Export(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAggregateAndReport(t *testing.T) {
	cfg := qlove.Config{Spec: qlove.Window{Size: 400, Period: 100}, Phis: []float64{0.5, 0.99}, FewK: true}
	blobA := exportBlob(t, cfg, map[string]int64{"shared": 1, "only-a": 2})
	blobB := exportBlob(t, cfg, map[string]int64{"shared": 3, "only-b": 4})

	dir := t.TempDir()
	fa, fb := filepath.Join(dir, "a.bin"), filepath.Join(dir, "b.bin")
	if err := os.WriteFile(fa, blobA, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fb, blobB, 0o644); err != nil {
		t.Fatal(err)
	}

	agg, err := aggregate([]string{fa, fb}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Len() != 3 {
		t.Fatalf("keys = %v", agg.Keys())
	}
	sn, ok := agg.Get("shared")
	if !ok || sn.Streams() != 2 {
		t.Fatalf("shared streams = %d ok=%v", sn.Streams(), ok)
	}

	// The file path and the stdin path (concatenated blobs) agree
	// bit-for-bit.
	var stdinAgg qlove.EngineSnapshot
	joined := append(append([]byte(nil), blobA...), blobB...)
	if _, err := stdinAgg.ReadFrom(bytes.NewReader(joined)); err != nil {
		t.Fatal(err)
	}
	for _, k := range agg.Keys() {
		a, _ := agg.Query(k)
		b, ok := stdinAgg.Query(k)
		if !ok {
			t.Fatalf("stdin path missing %q", k)
		}
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("key %q: file path %v != stdin path %v", k, a, b)
			}
		}
	}

	// Table output names every key.
	var out bytes.Buffer
	if err := report(&out, agg, false, 0, 0); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"shared", "only-a", "only-b"} {
		if !strings.Contains(out.String(), k) {
			t.Fatalf("table output missing %q:\n%s", k, out.String())
		}
	}

	// JSON output round-trips and honours -top.
	out.Reset()
	if err := report(&out, agg, true, 1, 0); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Keys []keyReport `json:"keys"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Keys) != 1 || doc.Keys[0].Key != "shared" {
		t.Fatalf("-top 1 selected %+v (want the 2-stream key)", doc.Keys)
	}

	// -phi selects one configured quantile and refuses unknown ones.
	out.Reset()
	if err := report(&out, agg, false, 0, 0.99); err != nil {
		t.Fatal(err)
	}
	if err := report(&out, agg, false, 0, 0.95); err == nil {
		t.Fatal("unconfigured ϕ answered")
	}
}

func TestRunEndToEnd(t *testing.T) {
	cfg := qlove.Config{Spec: qlove.Window{Size: 200, Period: 50}, Phis: []float64{0.5}}
	blob := exportBlob(t, cfg, map[string]int64{"svc": 7})
	var out bytes.Buffer
	if err := run(nil, bytes.NewReader(blob), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "svc") {
		t.Fatalf("output: %s", out.String())
	}
	// Corrupt input surfaces a wrapped error, not a panic.
	if err := run(nil, bytes.NewReader(blob[:len(blob)-3]), &out); err == nil {
		t.Fatal("truncated blob accepted")
	}
}

// TestSweepInterval: the worker-GC ticker runs at half the deadline, never
// below minSweepInterval — a 1ns deadline, which validation accepts, must
// still get a ticking sweeper (time.Tick(0) is nil and blocks forever).
func TestSweepInterval(t *testing.T) {
	for _, tc := range []struct{ deadline, want time.Duration }{
		{time.Nanosecond, minSweepInterval},
		{time.Microsecond, minSweepInterval},
		{2 * time.Millisecond, time.Millisecond},
		{3 * time.Millisecond, 1500 * time.Microsecond},
		{5 * time.Minute, 150 * time.Second},
	} {
		if got := sweepInterval(tc.deadline); got != tc.want {
			t.Errorf("sweepInterval(%v) = %v, want %v", tc.deadline, got, tc.want)
		}
		if time.Tick(sweepInterval(tc.deadline)) == nil {
			t.Errorf("deadline %v: time.Tick returned nil", tc.deadline)
		}
	}
}

// TestServeFlagValidation: -serve refuses positional blob arguments (blobs
// arrive over HTTP in serve mode), and the serve-only / disk-only /
// fanin-only flags are rejected out of place.
func TestServeFlagValidation(t *testing.T) {
	if err := run([]string{"-serve", "some.bin"}, nil, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "no blob arguments") {
		t.Fatalf("serve with args: %v", err)
	}
	if err := run([]string{"-dir", "/tmp/x"}, nil, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "only apply with -serve") {
		t.Fatalf("-dir without -serve: %v", err)
	}
	if err := run([]string{"-serve", "-store", "disk"}, nil, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-dir") {
		t.Fatalf("-store disk without -dir: %v", err)
	}
	if err := run([]string{"-serve", "-fanin-timeout", "5s"}, nil, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-fanin-timeout only applies") {
		t.Fatalf("-fanin-timeout without -fanin: %v", err)
	}
	if err := run([]string{"-serve", "-fanin", "http://a:1", "-dir", "/tmp/x"}, nil, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "belong on the replicas") {
		t.Fatalf("-dir on the fan-in router: %v", err)
	}
	// The router holds no state: every state-plane flag belongs on the
	// replicas, not silently ignored here.
	for _, flags := range [][]string{{"-store", "disk"}, {"-instrument"}} {
		args := append([]string{"-serve", "-fanin", "http://a:1"}, flags...)
		if err := run(args, nil, io.Discard); err == nil || !strings.Contains(err.Error(), "belong on the replicas") {
			t.Fatalf("%v on the fan-in router: %v", flags, err)
		}
	}
	// Two backends are selectable; the stripe count is not a flag.
	if err := run([]string{"-serve", "-store", "map"}, nil, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "unknown aggregator store") {
		t.Fatalf("-store map: %v", err)
	}
	if err := run([]string{"-serve", "-stripes", "4"}, nil, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined: -stripes") {
		t.Fatalf("-stripes: %v", err)
	}
	if err := run([]string{"-serve", "-quorum", "2"}, nil, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-quorum only applies with -fanin") {
		t.Fatalf("-quorum without -fanin: %v", err)
	}
	if err := run([]string{"-serve", "-replication", "2"}, nil, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-replication 2 needs") {
		t.Fatalf("-replication on one replica: %v", err)
	}
	if err := run([]string{"-serve", "-replication", "0"}, nil, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-replication 0 < 1") {
		t.Fatalf("-replication 0: %v", err)
	}
	if err := run([]string{"-replication", "2"}, nil, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "only apply with -serve") {
		t.Fatalf("-replication without -serve: %v", err)
	}
}

// buildAgg compiles the qlove-agg binary once per test binary run.
var buildAgg = struct {
	once sync.Once
	path string
	err  error
}{}

func aggBinary(t *testing.T) string {
	t.Helper()
	buildAgg.once.Do(func() {
		dir, err := os.MkdirTemp("", "qlove-agg-bin")
		if err != nil {
			buildAgg.err = err
			return
		}
		bin := filepath.Join(dir, "qlove-agg")
		out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
		if err != nil {
			buildAgg.err = fmt.Errorf("build qlove-agg: %v\n%s", err, out)
			return
		}
		buildAgg.path = bin
	})
	if buildAgg.err != nil {
		t.Fatal(buildAgg.err)
	}
	return buildAgg.path
}

// aggProc is one real qlove-agg -serve subprocess.
type aggProc struct {
	cmd  *exec.Cmd
	addr string
}

// startAgg launches the binary with the given extra flags on an ephemeral
// port and waits until it answers /healthz.
func startAgg(t *testing.T, extra ...string) *aggProc {
	t.Helper()
	args := append([]string{"-serve", "-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(aggBinary(t), args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The serve line prints the bound address: "serving on http://HOST:PORT".
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "http://"); i >= 0 {
				addr := line[i+len("http://"):]
				if j := strings.IndexByte(addr, ' '); j >= 0 {
					addr = addr[:j]
				}
				addrCh <- addr
				break
			}
		}
		io.Copy(io.Discard, stderr) // keep draining so the child never blocks
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatal("qlove-agg never printed its serve line")
	}
	p := &aggProc{cmd: cmd, addr: addr}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p
			}
		}
		if time.Now().After(deadline) {
			p.kill()
			t.Fatal("qlove-agg never became healthy")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// kill delivers SIGKILL — the crash, not a shutdown — and reaps the child.
func (p *aggProc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// saltFrames re-encodes a blob with every frame renamed from k to
// wire.SaltedName(k, j), the internal sub-stream name an escalated key's
// engine ships.
func saltFrames(t *testing.T, blob io.Reader, j byte) []byte {
	t.Helper()
	var out []byte
	dec := wire.NewDecoder(blob)
	for {
		f, err := dec.DecodeFrame()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		name := wire.SaltedName(f.Key, j)
		switch f.Kind {
		case wire.KindFull:
			out = wire.AppendFrame(out, name, f.Snap)
		case wire.KindDelta:
			out = wire.AppendDeltaFrame(out, name, f.Delta)
		case wire.KindTombstone:
			out = wire.AppendTombstoneFrame(out, name)
		}
	}
}

func httpPush(t *testing.T, addr, worker string, blob []byte) {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/push?worker="+worker, "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("push to %s: %s: %s", addr, resp.Status, body)
	}
}

func httpSnapshot(t *testing.T, addr string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot from %s: %s: %s", addr, resp.Status, body)
	}
	return body
}

// TestServeCrashRestartRecovery is the real-process crash test: a
// disk-backed qlove-agg is SIGKILLed mid delta chain, restarted on the
// same directory, and must (a) immediately serve a /snapshot bit-identical
// to an uninterrupted reference at the same point, and (b) accept the
// REST of each worker's delta chain — cursors recovered, no re-bootstrap —
// ending bit-identical to the reference that never died.
func TestServeCrashRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	cfg := qlove.Config{Spec: qlove.Window{Size: 256, Period: 64}, Phis: []float64{0.5, 0.99}, FewK: true}

	// Two workers, four delta blobs each (the first two bootstrap). Each
	// worker salts its keys two ways, so the WAL logs salted sub-stream
	// names: round r feeds plain engine r%2, whose frames ship renamed to
	// sub-stream r%2 of their key.
	const workers, rounds = 2, 4
	blobs := make([][][]byte, workers)
	for w := 0; w < workers; w++ {
		var engs [2]*qlove.Engine
		var curs [2]qlove.ExportCursor
		for j := range engs {
			eng, err := qlove.NewEngine(qlove.EngineConfig{Config: cfg, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				for range eng.Results() {
				}
			}()
			engs[j] = eng
		}
		gen := workload.NewNetMon(int64(80 + w))
		for round := 0; round < rounds; round++ {
			j := round % 2
			for ki, key := range []string{"api/latency", "db/qps", "cache/hits"} {
				if err := engs[j].Push(key, workload.Generate(gen, 150+50*ki)); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if _, err := engs[j].ExportDelta(&buf, &curs[j]); err != nil {
				t.Fatal(err)
			}
			blobs[w] = append(blobs[w], saltFrames(t, &buf, byte(j)))
		}
		for _, eng := range engs {
			eng.Close()
		}
	}
	worker := func(w int) string { return fmt.Sprintf("w%d", w) }

	dir := t.TempDir()
	victim := startAgg(t, "-store", "disk", "-dir", dir)
	ref := startAgg(t) // uninterrupted in-memory reference

	// First half of each chain to both, then SIGKILL the disk service.
	for w := 0; w < workers; w++ {
		for _, blob := range blobs[w][:2] {
			httpPush(t, victim.addr, worker(w), blob)
			httpPush(t, ref.addr, worker(w), blob)
		}
	}
	preCrash := httpSnapshot(t, ref.addr)
	victim.kill()

	revived := startAgg(t, "-store", "disk", "-dir", dir)
	defer revived.kill()
	defer ref.kill()

	// (a) The recovered snapshot is bit-identical to the uninterrupted
	// reference at the crash point.
	if got := httpSnapshot(t, revived.addr); !bytes.Equal(got, preCrash) {
		t.Fatalf("recovered /snapshot diverges from uninterrupted reference (%d vs %d bytes)",
			len(got), len(preCrash))
	}

	// (b) The delta chains RESUME against the recovered cursors.
	for w := 0; w < workers; w++ {
		for _, blob := range blobs[w][2:] {
			httpPush(t, revived.addr, worker(w), blob)
			httpPush(t, ref.addr, worker(w), blob)
		}
	}
	got, want := httpSnapshot(t, revived.addr), httpSnapshot(t, ref.addr)
	if !bytes.Equal(got, want) {
		t.Fatalf("post-resume /snapshot diverges from uninterrupted reference (%d vs %d bytes)",
			len(got), len(want))
	}
}
