// Command qlove-agg is the central half of the distributed quantile plane:
// it consumes snapshot blobs exported by worker processes (Engine.Export
// or EngineSnapshot.WriteTo), groups the keyed frames, merges captures of
// the same key into one logical-window view and reports the merged
// quantile estimates.
//
//	qlove-agg worker-0.bin worker-1.bin worker-2.bin
//	cat exports/*.bin | qlove-agg            # blobs concatenate freely
//	qlove-agg -json -top 10 exports/*.bin    # machine-readable, hottest 10
//	qlove-agg -phi 0.99 exports/*.bin        # one quantile column only
//
// Inputs are read in argument order ("-" or no arguments reads stdin);
// frames for the same key — whether within one blob or across blobs — are
// merged in that order, so a fixed input order yields bit-reproducible
// estimates. Keys whose captures were produced under different operator
// configurations refuse to merge (that is a deployment error, not noise).
//
// With -serve the tool becomes the LONG-RUNNING half of the plane instead
// of a batch fold: an HTTP service (internal/aggsrv) that accepts worker
// pushes — full blobs for bootstrap, Engine.ExportDelta blobs thereafter,
// tombstones for evicted keys — folds them into resident per-worker state
// and answers /query, /snapshot and /healthz from the merged view:
//
//	qlove-agg -serve -addr 127.0.0.1:7171
//	qlove-agg -serve -worker-deadline 5m   # GC workers silent for 5 minutes
//	curl 'http://127.0.0.1:7171/query?key=api/latency&phi=0.99'
//
// -worker-deadline bounds the service under worker churn: a worker that
// stops pushing for that long is dropped from the merged view (like the
// engine's wall-clock key TTL); if it comes back it re-bootstraps.
//
// The service's state plane is configurable: -store picks the backend
// ("striped", the in-memory default, or "disk", which is durable), and
// -instrument wraps it with the per-op metrics recorder (see GET /metrics). -fanin
// URL,URL,… instead makes this process a pure HTTP router partitioning keys
// by hash slot over aggregator replicas (other qlove-agg -serve processes),
// which hold the state and therefore take the state-plane flags.
// -replication R keeps R copies of every hash slot: pushes fan out to all
// R owners, reads prefer the primary and fail over to secondaries. A push
// succeeds once -quorum owners of each slot ack (default: ⌈R/2⌉, so an R=2
// pair acks on one replica), and the router resyncs a replica that lost
// state from its slot co-owners; POST /slots/move re-homes one hash slot
// live (GET /slots shows the table):
//
//	qlove-agg -serve -store striped -instrument
//	qlove-agg -serve -fanin http://10.0.0.1:7171,http://10.0.0.2:7171 -replication 2
//
// With -store disk -dir DIR every fold is appended to a crash-safe log
// under DIR before it is applied, and the NEXT -serve on the same
// directory recovers the full state — per-worker cursors included, so
// workers resume delta pushes without re-bootstrapping, and a kill -9'd
// service answers /snapshot bit-identically to one that never died.
// -fsync picks the sync discipline (always | interval, which syncs every
// 100ms | none).
//
//	qlove-agg -serve -store disk -dir /var/lib/qlove-agg
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/aggsrv"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qlove-agg:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("qlove-agg", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit one JSON document instead of the table")
	top := fs.Int("top", 0, "report only the N keys with the most window elements (0 = all keys, sorted)")
	phi := fs.Float64("phi", 0, "report only this configured quantile (0 = all configured quantiles)")
	serve := fs.Bool("serve", false, "run as a long-running HTTP aggregation service instead of a batch fold")
	addr := fs.String("addr", "127.0.0.1:7171", "serve: listen address")
	deadline := fs.Duration("worker-deadline", 0,
		"serve: drop workers that stop pushing for this long (0 = keep departed workers forever)")
	store := fs.String("store", "striped", "serve: state backend (striped | disk)")
	dir := fs.String("dir", "", "serve: the disk backend's state directory (required with -store disk)")
	fsync := fs.String("fsync", "", "serve: disk backend sync discipline (always | interval: sync every 100ms | none; default always)")
	instrument := fs.Bool("instrument", false, "serve: record per-op store metrics (GET /metrics)")
	replication := fs.Int("replication", 1,
		"serve: copies of each hash slot, with -fanin (1 = no replication)")
	fanin := fs.String("fanin", "",
		"serve: comma-separated replica base URLs; this process routes over them instead of holding state")
	faninTimeout := fs.Duration("fanin-timeout", 0,
		"serve: per-request deadline for fan-in calls to replicas (0 = default 10s)")
	quorum := fs.Int("quorum", 0,
		"serve: replica acks a push needs per slot, with -fanin (0 = ⌈replication/2⌉)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *deadline < 0 {
		return fmt.Errorf("-worker-deadline %v < 0", *deadline)
	}
	if *faninTimeout < 0 {
		return fmt.Errorf("-fanin-timeout %v < 0", *faninTimeout)
	}
	if *serve {
		if len(fs.Args()) != 0 {
			return fmt.Errorf("-serve takes no blob arguments; workers push over HTTP")
		}
		if *replication < 1 {
			return fmt.Errorf("-replication %d < 1", *replication)
		}
		if *fanin != "" {
			if *deadline != 0 {
				return fmt.Errorf("-worker-deadline belongs on the replicas, not the fan-in router")
			}
			if *store != "striped" || *dir != "" || *fsync != "" || *instrument {
				return fmt.Errorf("-store/-dir/-fsync/-instrument belong on the replicas, not the fan-in router")
			}
			return serveFanin(*addr, strings.Split(*fanin, ","), *faninTimeout, *replication, *quorum)
		}
		if *faninTimeout != 0 {
			return fmt.Errorf("-fanin-timeout only applies with -fanin")
		}
		if *quorum != 0 {
			return fmt.Errorf("-quorum only applies with -fanin")
		}
		if *replication > 1 {
			return fmt.Errorf("-replication %d needs -fanin (one aggregator cannot hold extra copies)", *replication)
		}
		if *store == "disk" && *dir == "" {
			return fmt.Errorf("-store disk needs -dir (the state directory to log to and recover from)")
		}
		cfg := qlove.AggregatorConfig{Store: *store, Instrument: *instrument, Dir: *dir, Fsync: *fsync}
		return serveHTTP(*addr, *deadline, cfg)
	}
	if *deadline != 0 {
		return fmt.Errorf("-worker-deadline only applies with -serve")
	}
	if *fanin != "" || *replication != 1 || *quorum != 0 || *instrument ||
		*store != "striped" || *dir != "" || *fsync != "" || *faninTimeout != 0 {
		return fmt.Errorf("-store/-dir/-fsync/-instrument/-replication/-quorum/-fanin/-fanin-timeout only apply with -serve")
	}
	agg, err := aggregate(fs.Args(), stdin)
	if err != nil {
		return err
	}
	return report(stdout, agg, *jsonOut, *top, *phi)
}

// minSweepInterval floors the worker-GC ticker, as the engine floors its
// idle-key sweep: time.Tick returns nil for a zero interval, so without the
// floor a -worker-deadline under 2ns would never sweep, and a tiny positive
// one would busy-loop.
const minSweepInterval = time.Millisecond

// sweepInterval spaces worker-GC sweeps: half the deadline, floored.
func sweepInterval(deadline time.Duration) time.Duration {
	return max(deadline/2, minSweepInterval)
}

// serveHTTP runs the aggregation service until the process is killed.
// With a worker deadline, departed workers are GC'd: reads exclude them
// the moment the deadline passes, and a background ticker sweeps their
// resident state (pushes sweep too, so the ticker only covers the
// all-workers-gone case).
func serveHTTP(addr string, deadline time.Duration, cfg qlove.AggregatorConfig) error {
	agg, err := qlove.NewAggregatorConfig(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		agg.Close()
		return err
	}
	if deadline > 0 {
		if cfg.Store == "disk" {
			// Recovered last-push stamps stay authoritative: a worker that
			// had gone silent before the crash is still the one retired,
			// rather than every worker getting a fresh deadline because the
			// service bounced.
			agg.SetPushDeadlineFromStored(deadline, nil)
		} else {
			agg.SetPushDeadline(deadline, nil)
		}
		go func() {
			for range time.Tick(sweepInterval(deadline)) {
				agg.Sweep()
			}
		}()
	}
	fmt.Fprintf(os.Stderr, "qlove-agg: serving on http://%s (POST /push?worker=ID, GET /query /snapshot /healthz /metrics)\n", ln.Addr())
	srv := &http.Server{
		Handler: aggsrv.New(agg).Handler(),
		// Header reads are bounded so a half-open connection cannot pin a
		// handler goroutine forever; push bodies stay unbounded in time
		// (a worker on a slow link may legitimately stream for a while —
		// the handler drains them without holding the fold lock).
		ReadHeaderTimeout: 10 * time.Second,
	}
	return srv.Serve(ln)
}

// serveFanin runs the stateless HTTP router over remote replica servers.
func serveFanin(addr string, urls []string, timeout time.Duration, replication, quorum int) error {
	f, err := aggsrv.NewFaninConfig(aggsrv.FaninConfig{
		Replicas: urls, Timeout: timeout, Replication: replication, Quorum: quorum,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "qlove-agg: fan-in on http://%s over %d replicas\n", ln.Addr(), len(urls))
	srv := &http.Server{Handler: f.Handler(), ReadHeaderTimeout: 10 * time.Second}
	return srv.Serve(ln)
}

// aggregate folds every input blob into one keyed capture.
func aggregate(paths []string, stdin io.Reader) (qlove.EngineSnapshot, error) {
	var agg qlove.EngineSnapshot
	if len(paths) == 0 {
		paths = []string{"-"}
	}
	for _, path := range paths {
		in := stdin
		name := "stdin"
		var file *os.File
		if path != "-" {
			f, err := os.Open(path)
			if err != nil {
				return qlove.EngineSnapshot{}, err
			}
			in, file, name = f, f, path
		}
		// Buffered: the decoder reads each ~200-byte frame in two calls,
		// which must not mean two syscalls per frame.
		_, err := agg.ReadFrom(bufio.NewReader(in))
		if file != nil {
			file.Close()
		}
		if err != nil {
			return qlove.EngineSnapshot{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	return agg, nil
}

// keyReport is one merged key's line, shared by the table and -json paths.
type keyReport struct {
	Key        string    `json:"key"`
	Streams    int       `json:"streams"`
	SubWindows int       `json:"sub_windows"`
	Elements   int       `json:"elements"`
	Phis       []float64 `json:"phis"`
	Estimates  []float64 `json:"estimates"`
}

func report(w io.Writer, agg qlove.EngineSnapshot, jsonOut bool, top int, phi float64) error {
	// The cheap shape fields drive the -top selection; estimates — heap
	// merges over every resident summary per key — are computed only for
	// the keys that survive it.
	reports := make([]keyReport, 0, agg.Len())
	for _, k := range agg.Keys() {
		sn, _ := agg.Get(k)
		reports = append(reports, keyReport{
			Key:        k,
			Streams:    sn.Streams(),
			SubWindows: sn.SubWindows(),
			Elements:   sn.Elements(),
		})
	}
	if top > 0 {
		sort.SliceStable(reports, func(i, j int) bool { return reports[i].Elements > reports[j].Elements })
		if top < len(reports) {
			reports = reports[:top]
		}
	}
	for i := range reports {
		r := &reports[i]
		sn, _ := agg.Get(r.Key)
		if phi != 0 {
			// Estimate's interpolation guard: an unconfigured ϕ is an
			// error, not a silently interpolated answer.
			est, ok := sn.Estimate(phi)
			if !ok {
				return fmt.Errorf("key %q: ϕ=%v is not a configured quantile (configured: %v)",
					r.Key, phi, sn.Config().Phis)
			}
			r.Phis = []float64{phi}
			r.Estimates = []float64{est}
		} else {
			r.Phis = sn.Config().Phis
			r.Estimates = sn.Estimates()
		}
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Keys []keyReport `json:"keys"`
		}{reports})
	}
	for _, r := range reports {
		fmt.Fprintf(w, "%-24s streams=%-3d subwindows=%-4d elements=%-8d", r.Key, r.Streams, r.SubWindows, r.Elements)
		for i, p := range r.Phis {
			fmt.Fprintf(w, "  p%g=%.6g", p*100, r.Estimates[i])
		}
		fmt.Fprintln(w)
	}
	if len(reports) == 0 {
		fmt.Fprintln(w, "(no snapshots)")
	}
	return nil
}
