// Package cluster is the distributed serving tier over the session
// engine: the mtvserve HTTP server (standalone or worker role) and the
// coordinator that shards sweeps across a pool of workers by store
// persist key. See docs/CLUSTER.md for topology, hashing, and failure
// semantics.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mtvec"
	"mtvec/internal/metrics"
	"mtvec/internal/store"
)

// Config configures a standalone or worker Server.
type Config struct {
	// Scale is the workload scale relative to Table 3 millions. Every
	// node of a cluster must run the same scale: the store persist keys
	// the coordinator shards by include it.
	Scale float64
	// Jobs bounds concurrent simulations (<= 0 selects NumCPU).
	Jobs int
	// StoreDir roots the persistent result store ("" = in-memory caches
	// only; such a worker still serves, it just re-simulates after a
	// restart).
	StoreDir string
	// StealAge overrides the store's lock-file steal age (0 = default).
	StealAge time.Duration
}

// Server is one serving node: the full single-node mtvserve API plus
// Prometheus metrics. A coordinator treats Servers as workers;
// standalone deployments expose exactly the same surface.
type Server struct {
	env   *mtvec.Env
	ses   *mtvec.Session
	dir   *mtvec.Store // persistent tier; nil without StoreDir
	scale float64
	jobs  int
	start time.Time

	// draining flips readiness: a draining server answers in-flight work
	// and liveness probes but reports 503 on /readyz, so coordinators
	// stop routing new sweeps to it.
	draining atomic.Bool

	reg     *metrics.Registry
	runsBy  *metrics.CounterVec // mtvec_runs_total{source}
	httpReq *metrics.CounterVec // mtvec_http_requests_total{endpoint, code}
	runSec  *metrics.Histogram  // mtvec_run_seconds
}

// NewServer builds a serving node.
func NewServer(cfg Config) (*Server, error) {
	env := mtvec.NewEnv(cfg.Scale)
	env.SetJobs(cfg.Jobs)
	s := &Server{
		env:   env,
		ses:   env.Session(),
		scale: cfg.Scale,
		jobs:  env.Jobs(),
		start: time.Now(),
	}
	if cfg.StoreDir != "" {
		dir, err := mtvec.OpenStoreOptions(cfg.StoreDir, mtvec.StoreOptions{StealAge: cfg.StealAge})
		if err != nil {
			return nil, err
		}
		s.dir = dir
		env.SetStore(dir)
	}
	s.initMetrics()
	return s, nil
}

// initMetrics builds the node's registry (see docs/CLUSTER.md for the
// catalog).
func (s *Server) initMetrics() {
	r := metrics.NewRegistry()
	s.reg = r
	s.runsBy = r.CounterVec("mtvec_runs_total",
		"Simulation points answered, by cache tier.", "source")
	s.httpReq = r.CounterVec("mtvec_http_requests_total",
		"HTTP requests served, by endpoint and status code.", "endpoint", "code")
	s.runSec = r.Histogram("mtvec_run_seconds",
		"Wall time of answered points (all tiers).", nil)
	r.CounterFunc("mtvec_simulations_total",
		"Machine runs actually executed (cache misses).",
		func() float64 { return float64(s.env.Simulations()) })
	r.GaugeFunc("mtvec_gate_active",
		"Simulations inside the worker gate right now.",
		func() float64 { return float64(s.ses.Active()) })
	r.GaugeFunc("mtvec_gate_limit",
		"Worker gate admission limit (jobs).",
		func() float64 { return float64(s.jobs) })
	r.GaugeFunc("mtvec_draining",
		"1 while the server is draining (readiness down), else 0.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	if s.dir != nil {
		stat := func(get func(store.Stats) int64) func() float64 {
			return func() float64 { return float64(get(s.dir.Stats())) }
		}
		r.CounterFunc("mtvec_store_hits_total",
			"Store lookups served a verified record.",
			stat(func(st store.Stats) int64 { return st.Hits }))
		r.CounterFunc("mtvec_store_misses_total",
			"Store lookups that missed.",
			stat(func(st store.Stats) int64 { return st.Misses }))
		r.CounterFunc("mtvec_store_writes_total",
			"Records written to the store.",
			stat(func(st store.Stats) int64 { return st.Writes }))
		r.CounterFunc("mtvec_store_corrupt_total",
			"Records dropped for failing verification.",
			stat(func(st store.Stats) int64 { return st.Corrupt }))
	}
}

// Env returns the server's experiment environment (tests and embedding
// callers).
func (s *Server) Env() *mtvec.Env { return s.env }

// Session returns the server's run session.
func (s *Server) Session() *mtvec.Session { return s.ses }

// Metrics returns the server's registry.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// StartDraining flips the server to draining: /readyz answers 503 from
// now on (so coordinators stop routing to it), while in-flight and even
// new requests still complete — the HTTP shutdown deadline, not this
// flag, bounds them.
func (s *Server) StartDraining() { s.draining.Store(true) }

// Draining reports whether StartDraining was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// track wraps a handler with the request counter, labelled by a stable
// endpoint name (not the raw path — unbounded label values would leak
// series).
func (s *Server) track(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return instrument(s.httpReq, endpoint, h)
}

// instrument counts one endpoint's requests by status code.
func instrument(reqs *metrics.CounterVec, endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		reqs.With(endpoint, strconv.Itoa(rec.code)).Inc()
	}
}

// statusRecorder captures the status code a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards streaming flushes (SSE handlers need the flusher).
func (r *statusRecorder) Flush() {
	if fl, ok := r.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// Handler returns the server's routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.track("healthz", s.handleHealth))
	mux.HandleFunc("GET /readyz", s.track("readyz", s.handleReady))
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /api/v1/workloads", s.track("workloads", s.handleWorkloads))
	mux.HandleFunc("GET /api/v1/experiments", s.track("experiments", s.handleExperiments))
	mux.HandleFunc("GET /api/v1/experiments/{id}", s.track("experiment", s.handleExperiment))
	mux.HandleFunc("POST /api/v1/run", s.track("run", s.handleRun))
	mux.HandleFunc("POST /api/v1/sweep", s.track("sweep", s.handleSweep))
	mux.HandleFunc("GET /api/v1/stream", s.track("stream", s.handleStream))
	return mux
}

// observe records one answered point in the metrics.
func (s *Server) observe(src string, elapsed time.Duration) {
	s.runsBy.With(src).Inc()
	s.runSec.Observe(elapsed.Seconds())
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var rq RunRequest
	if err := decodeJSON(w, r, &rq); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	spec, err := ResolveSpec(s.env, rq)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	start := time.Now()
	rep, src, err := s.ses.RunTracked(r.Context(), spec)
	if err != nil {
		if mtvec.IsContextErr(err) {
			return // client went away; nothing to answer
		}
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	s.observe(src.String(), time.Since(start))
	w.Header().Set("X-Mtvec-Cache", src.String())
	writeJSON(w, http.StatusOK, RunResponse{
		Cache:     src.String(),
		ElapsedMS: msSince(start),
		Report:    rep,
	})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var rq SweepRequest
	if err := decodeJSON(w, r, &rq); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	axes, err := rq.Expand()
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}

	// Resolve every point's spec up front so a malformed sweep fails
	// whole, before any simulation starts.
	points := make([]SweepPoint, 0, len(axes))
	specs := make([]mtvec.RunSpec, 0, len(axes))
	var bad []error
	for _, pt := range axes {
		spec, err := ResolveSpec(s.env, rq.Base.at(pt))
		if err != nil {
			bad = append(bad, fmt.Errorf("point (ctx=%d, lat=%d, policy=%q): %w", pt.Contexts, pt.Latency, pt.Policy, err))
			continue
		}
		points = append(points, SweepPoint{Contexts: pt.Contexts, Latency: pt.Latency, Policy: pt.Policy})
		specs = append(specs, spec)
	}
	if len(bad) > 0 {
		s.fail(w, http.StatusBadRequest, errors.Join(bad...))
		return
	}

	// Fan out through the session's sweep path: the jobs gate bounds
	// actual simulation concurrency, and shared points collapse onto
	// one simulation.
	start := time.Now()
	results := s.ses.RunAllTracked(r.Context(), specs...)
	for i, res := range results {
		points[i].ElapsedMS = res.Elapsed.Seconds() * 1e3
		if res.Err != nil {
			points[i].Error = res.Err.Error()
			continue
		}
		points[i].Cache = res.Source.String()
		points[i].Report = res.Report
		s.observe(points[i].Cache, res.Elapsed)
	}
	if r.Context().Err() != nil {
		return // client went away mid-sweep
	}

	resp := SweepResponse{Points: points, ElapsedMS: msSince(start)}
	resp.tally()
	writeJSON(w, http.StatusOK, resp)
}

// sseObserver forwards run events as server-sent events. The simulator
// calls it synchronously on the handler goroutine, so writes need no
// locking; a failed write just stops further events (the client is
// gone, and the run is cancelled through the request context).
type sseObserver struct {
	w        io.Writer
	fl       http.Flusher
	spans    bool
	switches bool
	dead     bool
}

func (o *sseObserver) event(name string, v any) {
	if o.dead {
		return
	}
	data, err := json.Marshal(v)
	if err == nil {
		_, err = fmt.Fprintf(o.w, "event: %s\ndata: %s\n\n", name, data)
	}
	if err != nil {
		o.dead = true
		return
	}
	o.fl.Flush()
}

func (o *sseObserver) Progress(now int64, dispatched int64) {
	o.event("progress", map[string]int64{"cycle": now, "dispatched": dispatched})
}

func (o *sseObserver) ThreadSwitch(now int64, from, to int) {
	if o.switches {
		o.event("switch", map[string]int64{"cycle": now, "from": int64(from), "to": int64(to)})
	}
}

func (o *sseObserver) Span(sp mtvec.Span) {
	if o.spans {
		o.event("span", sp)
	}
}

// streamParams are the query keys the stream endpoint accepts — the
// POST body schema flattened, plus the SSE-only switches toggle.
var streamParams = map[string]bool{
	"mode": true, "programs": true, "policy": true, "contexts": true,
	"latency": true, "xbar": true, "issue_width": true, "load_ports": true,
	"store_ports": true, "banks": true, "bank_busy": true, "max_cycles": true,
	"progress_stride": true, "dual_scalar": true, "spans": true, "switches": true,
}

// queryRunRequest builds a RunRequest (plus the SSE-only switches
// toggle) from the stream endpoint's query parameters — the POST body
// schema, flattened. Unknown parameters and malformed values are
// rejected, mirroring the POST decoder's strict field checking — a
// typo'd axis must not silently simulate the default machine.
func queryRunRequest(r *http.Request) (rq RunRequest, switches bool, err error) {
	q := r.URL.Query()
	var unknown []string
	for name := range q {
		if !streamParams[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		// Sorted so the diagnostic does not depend on map iteration order.
		sort.Strings(unknown)
		return RunRequest{}, false, fmt.Errorf("unknown query parameter %q", unknown[0])
	}
	rq = RunRequest{Mode: q.Get("mode"), Policy: q.Get("policy")}
	for _, tag := range strings.Split(q.Get("programs"), ",") {
		if tag = strings.TrimSpace(tag); tag != "" {
			rq.Programs = append(rq.Programs, tag)
		}
	}
	atoi := func(name string) int {
		v := q.Get(name)
		if v == "" {
			return 0
		}
		n, aerr := strconv.Atoi(v)
		if aerr != nil && err == nil {
			err = fmt.Errorf("%s: %w", name, aerr)
		}
		return n
	}
	rq.Contexts = atoi("contexts")
	rq.Latency = atoi("latency")
	rq.Xbar = atoi("xbar")
	rq.IssueWidth = atoi("issue_width")
	rq.LoadPorts = atoi("load_ports")
	rq.StorePorts = atoi("store_ports")
	rq.Banks = atoi("banks")
	rq.BankBusy = atoi("bank_busy")
	rq.MaxCycles = int64(atoi("max_cycles"))
	rq.ProgressStride = int64(atoi("progress_stride"))
	abool := func(name string) bool {
		v := q.Get(name)
		if v == "" {
			return false
		}
		b, berr := strconv.ParseBool(v)
		if berr != nil && err == nil {
			err = fmt.Errorf("%s: %w", name, berr)
		}
		return b
	}
	rq.DualScalar = abool("dual_scalar")
	rq.Spans = abool("spans")
	switches = abool("switches")
	return rq, switches, err
}

// handleStream answers one run as an SSE stream: progress (and
// optionally span/switch) events while the simulation executes, then a
// final result event carrying the RunResponse. A cached result skips
// straight to the result event — no simulation, no progress.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.fail(w, http.StatusInternalServerError, errors.New("streaming unsupported by connection"))
		return
	}
	rq, switches, err := queryRunRequest(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	spec, err := ResolveSpec(s.env, rq)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}

	start := time.Now()
	obs := &sseObserver{w: w, fl: fl, spans: rq.Spans, switches: switches}
	sse := func(cache string) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("X-Mtvec-Cache", cache)
		w.WriteHeader(http.StatusOK)
	}

	// A result some tier already holds streams as just its result event.
	if rep, src, ok := s.ses.Cached(spec); ok {
		s.observe(src.String(), time.Since(start))
		sse(src.String())
		obs.event("result", RunResponse{Cache: src.String(), ElapsedMS: msSince(start), Report: rep})
		return
	}

	sse(mtvec.RunFromSim.String())
	rep, src, err := s.ses.RunTracked(r.Context(), spec.With(mtvec.WithObserver(obs)))
	if err != nil {
		if !mtvec.IsContextErr(err) {
			obs.event("error", map[string]string{"error": err.Error()})
		}
		return
	}
	s.observe(src.String(), time.Since(start))
	obs.event("result", RunResponse{Cache: src.String(), ElapsedMS: msSince(start), Report: rep})
}

// experimentInfo is one catalog entry.
type experimentInfo struct {
	ID         string `json:"id"`
	Title      string `json:"title"`
	PaperShape string `json:"paper_shape"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	var list []experimentInfo
	for _, e := range mtvec.Experiments() {
		list = append(list, experimentInfo{ID: e.ID, Title: e.Title, PaperShape: e.PaperShape})
	}
	writeJSON(w, http.StatusOK, list)
}

// handleExperiment regenerates one experiment (every table/figure of
// it) against the shared Env, through the same suite path as mtvbench:
// the experiment's inputs are resolved on the suite's pool, under the
// Env's own jobs bound, before it renders. With a warm store this is
// pure serving: the X-Mtvec-Simulations header reports how many
// machine runs the request actually cost (0 on a fully cached
// regeneration; approximate under concurrent requests, which share the
// Env's counters).
//
// Unlike the point endpoints, regeneration runs under
// context.Background(), not the request's context: its simulation
// points land in the shared memo/store tiers where any later request is
// served from them, so finishing after a client disconnect is
// deliberate (cache warming).
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	exp := mtvec.ExperimentByID(id)
	if exp == nil {
		s.fail(w, http.StatusNotFound, fmt.Errorf("unknown experiment %q", id))
		return
	}
	render := mtvec.RenderResult
	contentType := "text/plain; charset=utf-8"
	switch format := r.URL.Query().Get("format"); format {
	case "", "text":
	case "markdown":
		render = mtvec.RenderResultMarkdown
		contentType = "text/markdown; charset=utf-8"
	default:
		s.fail(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (text | markdown)", format))
		return
	}
	hits0 := s.env.StoreHits()
	start := time.Now()
	res, st, err := mtvec.RunExperimentsContext(context.Background(), s.env, []mtvec.Experiment{*exp}, 0)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	var buf strings.Builder
	if err := render(&buf, res[0]); err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("X-Mtvec-Simulations", strconv.FormatInt(st.Simulations, 10))
	h.Set("X-Mtvec-Store-Hits", strconv.FormatInt(s.env.StoreHits()-hits0, 10))
	h.Set("X-Mtvec-Elapsed-Ms", strconv.FormatFloat(msSince(start), 'f', 1, 64))
	io.WriteString(w, buf.String())
}

// workloadInfo is one program-catalog entry.
type workloadInfo struct {
	Name  string `json:"name"`
	Short string `json:"short"`
	Suite string `json:"suite"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, workloadCatalog())
}

// workloadCatalog lists every runnable program: the Table 3
// reconstructions followed by the vectorizable benchmark suite
// (docs/BENCHMARKS.md) — the same union the run endpoints resolve.
func workloadCatalog() []workloadInfo {
	var list []workloadInfo
	for _, spec := range mtvec.Workloads() {
		list = append(list, workloadInfo{Name: spec.Name, Short: spec.Short, Suite: spec.Suite})
	}
	for _, spec := range mtvec.BenchWorkloads() {
		list = append(list, workloadInfo{Name: spec.Name, Short: spec.Short, Suite: spec.Suite})
	}
	return list
}

// healthResponse is the /healthz body: liveness plus cache counters.
type healthResponse struct {
	Status      string  `json:"status"`
	UptimeS     float64 `json:"uptime_s"`
	Scale       float64 `json:"scale"`
	Jobs        int     `json:"jobs"`
	Simulations int64   `json:"simulations"`
	StoreHits   int64   `json:"store_hits"`
	Draining    bool    `json:"draining,omitempty"`
	// Store carries the persistent tier's counters; null without -store.
	Store *mtvec.StoreStats `json:"store,omitempty"`
}

// handleHealth is liveness: it answers 200 as long as the process
// serves, draining or not. Readiness is /readyz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{
		Status:      "ok",
		UptimeS:     time.Since(s.start).Seconds(),
		Scale:       s.scale,
		Jobs:        s.jobs,
		Simulations: s.env.Simulations(),
		StoreHits:   s.env.StoreHits(),
		Draining:    s.draining.Load(),
	}
	if s.dir != nil {
		st := s.dir.Stats()
		resp.Store = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleReady is readiness: 200 while accepting new work, 503 once
// draining. Coordinators probe it to stop routing to a worker that is
// shutting down before its listener actually closes.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

// decodeJSON reads one JSON request body with a size bound and strict
// field checking, so typo'd axis names fail loudly instead of silently
// running the default machine.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("request body: %w", err)
	}
	return nil
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Nanoseconds()) / 1e6
}
