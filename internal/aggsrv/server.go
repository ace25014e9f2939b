// Package aggsrv is the HTTP transport of the streaming aggregation
// service: a thin, stdlib-only layer over qlove.Aggregator that accepts
// worker push streams (full blobs for bootstrap, delta blobs thereafter)
// and serves the merged cross-worker view. cmd/qlove-agg mounts it in
// -serve mode; the repo benchmark's pipeline-delta workload drives it
// from live worker engines.
//
// Endpoints:
//
//	POST /push?worker=ID   body = wire blob (full/delta/tombstone frames)
//	                       -> {"worker","frames","keys"}
//	GET  /query?key=K      merged estimates for one key; &phi=0.99 selects
//	                       one configured quantile (unconfigured ϕ is 400)
//	GET  /snapshot         every key's merged estimates, sorted — streamed
//	                       one key at a time, so service memory stays
//	                       bounded on large key sets
//	GET  /healthz          {"status":"ok","workers":N,"keys":M}; status
//	                       "degraded" + an error string when a durable
//	                       backend has hit a persistence error
//	GET  /metrics          the aggregator's self-description: store
//	                       backend, op counters (instrumented stores),
//	                       lock-wait
//	GET  /slots/export     ?slot=N or ?slots=a,b,c — the slots' resident
//	                       state as self-contained bootstrap blobs, one per
//	                       worker (the fan-in's slot migration and dirty
//	                       replica resync read this)
//	POST /slots/drop       ?slot= / ?slots= — drop the slots' resident
//	                       state (after a migration flips ownership away)
//
// All responses are JSON. Estimates are float64s encoded by encoding/json
// with Go's shortest round-trippable formatting, so a client parsing them
// back gets bit-identical values — the bit-for-bit verifications over
// HTTP (the fan-in and crash-restart tests, the benchmark's gates) lean
// on this.
//
// A Server fronts one *qlove.Aggregator on any store backend. Scale-out
// and replication are NewFaninConfig's: an HTTP router over N such servers.
package aggsrv

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro"
)

// maxPushBody caps one push request (a worker's full bootstrap blob can be
// large; a frame is already capped at 1 GiB by the wire format).
const maxPushBody = 1 << 30

// pushBodies recycles the buffers push bodies are read into, and the parts
// the fan-in builds from them. Who may hold one, and when it goes back:
//   - Server.handlePush holds its body until it returns, then Puts it:
//     Aggregator.Apply decodes every value into fresh memory and the disk
//     store copies the frame bytes it logs.
//   - Fanin.handlePush lends its body, and each per-replica part, to the
//     requests forwarding them (lentBuf). The handler holds one reference
//     until it returns, each request body one until the transport first
//     closes it — which may be after the handler has returned — and the
//     last release Puts the buffer. A transport that never closed a body
//     would only cost the pool that buffer.
//
// TestPushBodyIsNotRetained overwrites returned buffers to hold the first
// rule, TestFaninPushBodyOutlivesRoundTrip reads bodies after their handler
// has returned to hold the second.
var pushBodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPushPregrow bounds how much of a claimed Content-Length is reserved
// before any byte arrives; past it (or with no length, or a false one) the
// buffer grows as the body does.
const maxPushPregrow = 1 << 20

// readPushBody reads the request's bounded body into a buffer from
// pushBodies; the caller Puts it back when the handler is done with the
// bytes.
func readPushBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	buf := pushBodies.Get().(*bytes.Buffer)
	buf.Reset()
	if n := r.ContentLength; n > 0 {
		// MinRead more than the body: ReadFrom wants that much room spare
		// when it makes the read that finds EOF.
		buf.Grow(int(min(n, maxPushPregrow)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxPushBody)); err != nil {
		pushBodies.Put(buf)
		return nil, err
	}
	return buf, nil
}

// KeyReport is one key's merged view, shared by /query and /snapshot.
type KeyReport struct {
	Key        string    `json:"key"`
	Streams    int       `json:"streams"`
	SubWindows int       `json:"sub_windows"`
	Elements   int       `json:"elements"`
	Phis       []float64 `json:"phis"`
	Estimates  []float64 `json:"estimates"`
}

// PushResult acknowledges one applied push.
type PushResult struct {
	Worker string `json:"worker"`
	Frames int    `json:"frames"`
	Keys   int    `json:"keys"`
}

// Health is the /healthz document. Status degrades (and Error fills in)
// when a durable backend has hit a persistence error: the in-memory view
// still serves, but restart recovery can no longer be trusted past that
// point.
type Health struct {
	Status  string `json:"status"`
	Workers int    `json:"workers"`
	Keys    int    `json:"keys"`
	Error   string `json:"error,omitempty"`
}

// Server serves one aggregator over HTTP.
type Server struct {
	agg *qlove.Aggregator
	mux *http.ServeMux
}

// New returns a server over the aggregator (a fresh default one when nil).
func New(agg *qlove.Aggregator) *Server {
	if agg == nil {
		agg = qlove.NewAggregator()
	}
	s := &Server{agg: agg, mux: http.NewServeMux()}
	s.mux.HandleFunc("/push", s.handlePush)
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/slots/export", s.handleSlotsExport)
	s.mux.HandleFunc("/slots/drop", s.handleSlotsDrop)
	return s
}

// SlotExport is the /slots/export document: the requested slots' resident
// state as one self-contained bootstrap blob per worker (re-Apply-able
// via /push, bit-for-bit). The fan-in's /slots/move and dirty-replica
// resync read it.
type SlotExport struct {
	Slots   []int              `json:"slots"`
	Workers []qlove.WorkerBlob `json:"workers"`
}

// parseSlots reads ?slot=N or ?slots=a,b,c from a request query.
func parseSlots(r *http.Request) ([]int, error) {
	q := r.URL.Query()
	raw := q.Get("slots")
	if s := q.Get("slot"); s != "" {
		if raw != "" {
			return nil, fmt.Errorf("pass ?slot= or ?slots=, not both")
		}
		raw = s
	}
	if raw == "" {
		return nil, fmt.Errorf("need ?slot=N or ?slots=a,b,c")
	}
	var out []int
	for _, part := range strings.Split(raw, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad slot %q", part)
		}
		if n < 0 || n >= qlove.Slots {
			return nil, fmt.Errorf("slot %d outside [0, %d)", n, qlove.Slots)
		}
		out = append(out, n)
	}
	return out, nil
}

func (s *Server) handleSlotsExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "slots/export is GET-only")
		return
	}
	slots, err := parseSlots(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	blobs, err := s.agg.ExportSlots(slots)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, SlotExport{Slots: slots, Workers: blobs})
}

func (s *Server) handleSlotsDrop(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "slots/drop is POST-only")
		return
	}
	slots, err := parseSlots(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Slots   []int `json:"slots"`
		Dropped int   `json:"dropped"`
	}{Slots: slots, Dropped: s.agg.DropSlots(slots)})
}

// Aggregator returns the served aggregator (e.g. to preload blobs).
func (s *Server) Aggregator() *qlove.Aggregator { return s.agg }

// Handler returns the root handler for mounting on any http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // a failed write is the client's disconnect, nothing to do
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

func (s *Server) handlePush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "push is POST-only")
		return
	}
	worker := r.URL.Query().Get("worker")
	if worker == "" {
		writeErr(w, http.StatusBadRequest, "push needs a ?worker=ID (the per-worker fold state is keyed by it)")
		return
	}
	// Drain the (bounded) body BEFORE folding: Apply holds the
	// aggregator's write lock, and a slow or stalled uploader must not
	// wedge every concurrent query behind it.
	body, err := readPushBody(w, r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "read push body: %v", err)
		return
	}
	defer pushBodies.Put(body)
	frames, err := s.agg.Apply(worker, bytes.NewReader(body.Bytes()))
	if err != nil {
		// Frames already folded stay applied; the worker discards its
		// cursor and re-bootstraps (from-generation-0 frames replace).
		writeErr(w, http.StatusBadRequest, "apply failed after %d frames: %v", frames, err)
		return
	}
	writeJSON(w, http.StatusOK, PushResult{Worker: worker, Frames: frames, Keys: s.agg.Keys()})
}

// report builds one key's merged KeyReport; phi 0 means every configured
// quantile.
func report(key string, sn qlove.Snapshot, phi float64) (KeyReport, error) {
	rep := KeyReport{
		Key:        key,
		Streams:    sn.Streams(),
		SubWindows: sn.SubWindows(),
		Elements:   sn.Elements(),
	}
	if phi != 0 {
		est, ok := sn.Estimate(phi)
		if !ok {
			return rep, fmt.Errorf("ϕ=%v is not a configured quantile (configured: %v)", phi, sn.Config().Phis)
		}
		rep.Phis = []float64{phi}
		rep.Estimates = []float64{est}
		return rep, nil
	}
	rep.Phis = sn.Config().Phis
	rep.Estimates = sn.Estimates()
	return rep, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "query is GET-only")
		return
	}
	q := r.URL.Query()
	if !q.Has("key") {
		writeErr(w, http.StatusBadRequest, "query needs ?key=")
		return
	}
	key := q.Get("key")
	var phi float64
	if p := q.Get("phi"); p != "" {
		var err error
		if phi, err = strconv.ParseFloat(p, 64); err != nil {
			writeErr(w, http.StatusBadRequest, "bad phi %q", p)
			return
		}
	}
	sn, ok, err := s.agg.Query(key)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !ok {
		writeErr(w, http.StatusNotFound, "key %q is not aggregated", key)
		return
	}
	rep, err := report(key, sn, phi)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "key %q: %v", key, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "snapshot is GET-only")
		return
	}
	snap, err := s.agg.Snapshot()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// Stream one KeyReport at a time instead of materializing the whole
	// []KeyReport: the response stays {"keys":[…]} but the service never
	// holds more than one key's report (plus the write buffer), so memory
	// is bounded by the snapshot itself, not by its JSON expansion.
	// report() cannot fail for phi=0 (it only validates a requested
	// quantile), so nothing can error after the status line is committed.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"keys":[`)
	for i, k := range snap.Keys() {
		sn, _ := snap.Get(k)
		rep, err := report(k, sn, 0)
		if err != nil {
			// Unreachable for phi=0; abort mid-body so the client's JSON
			// parse fails rather than silently truncating the key set.
			return
		}
		b, err := json.Marshal(rep)
		if err != nil {
			return
		}
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.Write(b)
		if i%512 == 511 {
			bw.Flush()
		}
	}
	bw.WriteString("]}\n")
	bw.Flush()
}

// MetricsReport is the /metrics document: the aggregator's metrics as a
// one-element "replicas" list, the shape /metrics clients already parse.
type MetricsReport struct {
	Replicas []qlove.AggregatorMetrics `json:"replicas"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "metrics is GET-only")
		return
	}
	writeJSON(w, http.StatusOK, MetricsReport{Replicas: []qlove.AggregatorMetrics{s.agg.Metrics()}})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{Status: "ok", Workers: s.agg.Workers(), Keys: s.agg.Keys()}
	// A disk store that has hit a persistence error keeps serving its
	// in-memory view but must say so: restart recovery is compromised.
	if err := s.agg.DurabilityErr(); err != nil {
		h.Status = "degraded"
		h.Error = err.Error()
	}
	writeJSON(w, http.StatusOK, h)
}
