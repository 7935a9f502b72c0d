package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"mtvec"
	"mtvec/internal/metrics"
)

// CoordinatorConfig configures a Coordinator.
type CoordinatorConfig struct {
	// Scale must match the workers': persist keys include it, and the
	// coordinator shards points by the keys it computes locally.
	Scale float64
	// Workers are the worker base URLs (http://host:port).
	Workers []string
	// Client issues sub-sweeps; nil selects a default with no timeout
	// (cold sub-sweeps legitimately run for minutes, so a shard is
	// abandoned only when its worker fails, never for being slow).
	Client *http.Client
	// Deprecated: HedgeAfter is ignored, since the coordinator no longer
	// hedges. It stays only because the repobench serve workload sets
	// it; ROADMAP's benchmark note schedules its removal.
	HedgeAfter time.Duration
	// ProbeInterval paces the /readyz health prober (<= 0 selects 1s).
	ProbeInterval time.Duration
}

// Coordinator shards sweeps across a pool of workers. Points route by
// store persist key on a consistent-hash ring, so a point always lands
// on the worker whose disk store already holds it, and duplicate
// in-flight points meet on that worker, whose session memo simulates
// them once. Failed shards retry down each point's owner chain. The
// external API is the worker API — clients cannot tell a coordinator
// from a big worker, except that it's faster.
type Coordinator struct {
	env     *mtvec.Env
	ring    *ring
	workers []string
	targets map[string]*url.URL
	client  *http.Client
	probe   *http.Client
	start   time.Time
	health  map[string]*atomic.Bool

	rr       atomic.Int64 // round-robin cursor for proxied endpoints
	draining atomic.Bool

	ctx    context.Context
	cancel context.CancelFunc

	reg      *metrics.Registry
	httpReq  *metrics.CounterVec
	pointsBy *metrics.CounterVec
	shardSec *metrics.HistogramVec
	healthyG *metrics.GaugeVec
	mSweeps  *metrics.Counter
	mRetries *metrics.Counter
}

// NewCoordinator builds a coordinator and starts its health prober.
// Close releases the prober and aborts in-flight sub-sweeps.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	ring, err := newRing(cfg.Workers)
	if err != nil {
		return nil, err
	}
	targets := make(map[string]*url.URL, len(cfg.Workers))
	for _, w := range cfg.Workers {
		u, err := url.Parse(w)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("worker %q: need an absolute http(s) base URL", w)
		}
		targets[w] = u
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	probeEvery := cfg.ProbeInterval
	if probeEvery <= 0 {
		probeEvery = time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		env:     mtvec.NewEnv(cfg.Scale),
		ring:    ring,
		workers: append([]string(nil), cfg.Workers...),
		targets: targets,
		client:  client,
		// The probe timeout is generous on purpose: a worker saturated
		// with simulations can be slow to answer /readyz, and a timed-out
		// probe would wrongly un-route it, destabilizing the shard map.
		probe:  &http.Client{Timeout: 2 * time.Second},
		start:  time.Now(),
		health: make(map[string]*atomic.Bool, len(cfg.Workers)),
		ctx:    ctx,
		cancel: cancel,
	}
	c.initMetrics()
	for _, w := range c.workers {
		b := new(atomic.Bool)
		b.Store(true) // optimistic until the first probe says otherwise
		c.health[w] = b
		c.healthyG.With(w).Set(1)
	}
	go c.probeLoop(probeEvery)
	return c, nil
}

func (c *Coordinator) initMetrics() {
	r := metrics.NewRegistry()
	c.reg = r
	c.httpReq = r.CounterVec("mtvec_http_requests_total",
		"HTTP requests served, by endpoint and status code.", "endpoint", "code")
	c.pointsBy = r.CounterVec("mtvec_coord_points_total",
		"Sweep points answered, by cache tier (or error).", "source")
	c.shardSec = r.HistogramVec("mtvec_coord_shard_seconds",
		"Sub-sweep wall time, by worker.", nil, "worker")
	c.healthyG = r.GaugeVec("mtvec_worker_healthy",
		"1 while the worker's readiness probe passes, else 0.", "worker")
	c.mSweeps = r.Counter("mtvec_coord_sweeps_total",
		"Sweep requests fanned out.")
	c.mRetries = r.Counter("mtvec_coord_retries_total",
		"Points re-routed to the next owner after a shard failure.")
	r.GaugeFunc("mtvec_draining",
		"1 while the coordinator is draining (readiness down), else 0.",
		func() float64 {
			if c.draining.Load() {
				return 1
			}
			return 0
		})
}

// Close stops the health prober and cancels in-flight sub-sweeps.
func (c *Coordinator) Close() { c.cancel() }

// Env returns the coordinator's local environment (spec resolution and
// persist-key computation only; it never simulates).
func (c *Coordinator) Env() *mtvec.Env { return c.env }

// Metrics returns the coordinator's registry.
func (c *Coordinator) Metrics() *metrics.Registry { return c.reg }

// StartDraining flips /readyz to 503; in-flight sweeps still complete.
func (c *Coordinator) StartDraining() { c.draining.Store(true) }

// --- health ---

func (c *Coordinator) isHealthy(worker string) bool {
	return c.health[worker].Load()
}

func (c *Coordinator) setHealthy(worker string, ok bool) {
	if c.health[worker].Swap(ok) != ok {
		if ok {
			c.healthyG.With(worker).Set(1)
		} else {
			c.healthyG.With(worker).Set(0)
		}
	}
}

func (c *Coordinator) healthyCount() int {
	n := 0
	for _, w := range c.workers {
		if c.isHealthy(w) {
			n++
		}
	}
	return n
}

// probeLoop polls every worker's /readyz. A worker that fails a probe
// (or answers 503 because it is draining) drops out of owner chains
// until a later probe passes; a shard failure marks it unhealthy
// immediately, without waiting for the prober.
func (c *Coordinator) probeLoop(every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-tick.C:
		}
		for _, w := range c.workers {
			req, err := http.NewRequestWithContext(c.ctx, http.MethodGet, w+"/readyz", nil)
			if err != nil {
				c.setHealthy(w, false)
				continue
			}
			resp, err := c.probe.Do(req)
			if err != nil {
				c.setHealthy(w, false)
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			c.setHealthy(w, resp.StatusCode == http.StatusOK)
		}
	}
}

// --- sweep fan-out ---

// pointTask is one point of one sweep request: its routing state and,
// once answered, its result. A task sits in exactly one in-flight
// sub-sweep at a time, and only that sub-sweep's goroutine touches it
// until it is sent on its sweep's done channel.
type pointTask struct {
	idx     int
	axes    PointAxes
	owners  []string
	attempt int // owner index of the current attempt
	pt      SweepPoint
}

// pickOwner advances t to the first healthy owner at or after its
// current attempt and returns that owner; if every remaining owner
// looks unhealthy it returns the current one anyway (an optimistic last
// resort beats failing while probes are stale). It reports false once
// the owner chain is exhausted.
func (c *Coordinator) pickOwner(t *pointTask) (string, bool) {
	if t.attempt >= len(t.owners) {
		return "", false
	}
	for i := t.attempt; i < len(t.owners); i++ {
		if c.isHealthy(t.owners[i]) {
			t.attempt = i
			return t.owners[i], true
		}
	}
	return t.owners[t.attempt], true
}

// sweepRun is one client sweep's fan-out state: the shared base
// request, the channel its answered tasks arrive on, and its retry
// count.
type sweepRun struct {
	c    *Coordinator
	base RunRequest
	// done has room for every task, and each task is sent once, so a
	// sub-sweep never blocks on a client that stopped collecting.
	done    chan *pointTask
	retries atomic.Int64
}

// resolve records a task's answer and hands it to the collector.
func (r *sweepRun) resolve(t *pointTask, pt SweepPoint) {
	t.pt = pt
	r.done <- t
}

// dispatch groups tasks by their current owner and launches one
// sub-sweep per worker. Sub-sweeps run under the coordinator's
// lifetime, not the client request's, so answered points warm the
// owner's store even after the client has gone (the same rationale as
// experiment regeneration).
func (r *sweepRun) dispatch(tasks []*pointTask) {
	groups := make(map[string][]*pointTask)
	for _, t := range tasks {
		w, ok := r.c.pickOwner(t)
		if !ok {
			r.resolve(t, SweepPoint{Error: "every worker in the point's owner chain failed"})
			continue
		}
		groups[w] = append(groups[w], t)
	}
	for w, g := range groups {
		go r.subSweep(w, g)
	}
}

// subSweep answers one shard. Infra failures (unreachable worker, 5xx)
// mark the worker unhealthy and walk every point to its next owner;
// 4xx answers are terminal (the request itself is wrong — most likely
// a scale mismatch between coordinator and worker — and no other
// worker would answer differently). A worker that hangs while staying
// alive holds its points back until it answers or dies.
func (r *sweepRun) subSweep(worker string, tasks []*pointTask) {
	start := time.Now()
	pts, terminal, err := r.c.postSweep(worker, r.base, tasks)
	r.c.shardSec.With(worker).Observe(time.Since(start).Seconds())
	switch {
	case err != nil && terminal:
		for _, t := range tasks {
			r.resolve(t, SweepPoint{Error: fmt.Sprintf("worker %s: %v", worker, err)})
		}
	case err != nil:
		r.c.setHealthy(worker, false)
		for _, t := range tasks {
			t.attempt++
		}
		r.retries.Add(int64(len(tasks)))
		r.c.mRetries.Add(int64(len(tasks)))
		r.dispatch(tasks)
	default:
		for i, t := range tasks {
			pts[i].Worker = worker
			r.resolve(t, pts[i])
		}
	}
}

// postSweep sends one explicit-points sub-sweep. terminal reports that
// the error is the request's own fault and retrying elsewhere is
// pointless.
func (c *Coordinator) postSweep(worker string, base RunRequest, tasks []*pointTask) (pts []SweepPoint, terminal bool, err error) {
	sub := SweepRequest{Base: base, Points: make([]PointAxes, len(tasks))}
	for i, t := range tasks {
		sub.Points[i] = t.axes
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return nil, true, err
	}
	req, err := http.NewRequestWithContext(c.ctx, http.MethodPost, worker+"/api/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, true, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e errorResponse
		msg := resp.Status
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e) == nil && e.Error != "" {
			msg = fmt.Sprintf("%s: %s", resp.Status, e.Error)
		}
		return nil, resp.StatusCode >= 400 && resp.StatusCode < 500, errors.New(msg)
	}
	var sr SweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, false, fmt.Errorf("sub-sweep response: %w", err)
	}
	if len(sr.Points) != len(tasks) {
		return nil, false, fmt.Errorf("sub-sweep answered %d of %d points", len(sr.Points), len(tasks))
	}
	return sr.Points, false, nil
}

// sweep answers one client sweep: resolve every point, shard the
// points by persist key, and collect. onPoint (optional) observes each
// point as it resolves, in completion order — the SSE progress hook.
func (c *Coordinator) sweep(ctx context.Context, rq SweepRequest, onPoint func(int, SweepPoint)) (*SweepResponse, int, error) {
	axes, err := rq.Expand()
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	c.mSweeps.Inc()
	start := time.Now()

	// Resolve every point's spec locally so a malformed sweep fails
	// whole before any worker sees it, and so sharding can use the same
	// persist keys the workers' stores file results under.
	tasks := make([]*pointTask, len(axes))
	var bad []error
	for i, pt := range axes {
		spec, err := ResolveSpec(c.env, rq.Base.at(pt))
		if err != nil {
			bad = append(bad, fmt.Errorf("point (ctx=%d, lat=%d, policy=%q): %w", pt.Contexts, pt.Latency, pt.Policy, err))
			continue
		}
		key, stable := c.env.Session().PersistKey(spec)
		if !stable {
			// Unpersistable points still route deterministically, by the
			// resolved request itself.
			j, _ := json.Marshal(rq.Base.at(pt))
			key = "unstable:" + string(j)
		}
		tasks[i] = &pointTask{idx: i, axes: pt, owners: c.ring.owners(key)}
	}
	if len(bad) > 0 {
		return nil, http.StatusBadRequest, errors.Join(bad...)
	}

	run := &sweepRun{c: c, base: rq.Base, done: make(chan *pointTask, len(tasks))}
	run.dispatch(tasks)

	// Collect in completion order. A client disconnect abandons the
	// wait without cancelling the shards: their answers still warm the
	// workers' stores.
	resp := &SweepResponse{Points: make([]SweepPoint, len(tasks))}
	for remaining := len(tasks); remaining > 0; remaining-- {
		select {
		case t := <-run.done:
			pt := t.pt
			pt.Contexts, pt.Latency, pt.Policy = t.axes.Contexts, t.axes.Latency, t.axes.Policy
			resp.Points[t.idx] = pt
			if pt.Error != "" {
				c.pointsBy.With("error").Inc()
			} else {
				c.pointsBy.With(pt.Cache).Inc()
			}
			if onPoint != nil {
				onPoint(t.idx, pt)
			}
		case <-ctx.Done():
			return nil, http.StatusServiceUnavailable, ctx.Err()
		}
	}
	resp.Retries = int(run.retries.Load())
	resp.tally()
	resp.ElapsedMS = msSince(start)
	return resp, http.StatusOK, nil
}

// --- HTTP surface ---

// Handler returns the coordinator's routes: the worker API shape, plus
// the cluster topology endpoint. Run/sweep shard across workers;
// streams and experiment regeneration proxy to one healthy worker;
// the static catalogs answer locally.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", instrument(c.httpReq, "healthz", c.handleHealth))
	mux.HandleFunc("GET /readyz", instrument(c.httpReq, "readyz", c.handleReady))
	mux.Handle("GET /metrics", c.reg.Handler())
	mux.HandleFunc("GET /api/v1/cluster", instrument(c.httpReq, "cluster", c.handleCluster))
	mux.HandleFunc("POST /api/v1/run", instrument(c.httpReq, "run", c.handleRun))
	mux.HandleFunc("POST /api/v1/sweep", instrument(c.httpReq, "sweep", c.handleSweep))
	mux.HandleFunc("GET /api/v1/workloads", instrument(c.httpReq, "workloads", c.handleWorkloads))
	mux.HandleFunc("GET /api/v1/experiments", instrument(c.httpReq, "experiments", c.handleExperiments))
	mux.HandleFunc("GET /api/v1/experiments/{id}", instrument(c.httpReq, "experiment", c.proxyHandler))
	mux.HandleFunc("GET /api/v1/stream", instrument(c.httpReq, "stream", c.proxyHandler))
	return mux
}

func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	var rq SweepRequest
	if err := decodeJSON(w, r, &rq); err != nil {
		httpFail(w, http.StatusBadRequest, err)
		return
	}
	if !strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		resp, code, err := c.sweep(r.Context(), rq, nil)
		if err != nil {
			if mtvec.IsContextErr(err) {
				return
			}
			httpFail(w, code, err)
			return
		}
		writeJSON(w, code, resp)
		return
	}

	// SSE: one "point" event per resolved point, in completion order,
	// then the merged response as the "result" event.
	fl, ok := w.(http.Flusher)
	if !ok {
		httpFail(w, http.StatusInternalServerError, errors.New("streaming unsupported by connection"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	obs := &sseObserver{w: w, fl: fl}
	type pointEvent struct {
		Index int `json:"index"`
		SweepPoint
	}
	resp, _, err := c.sweep(r.Context(), rq, func(i int, pt SweepPoint) {
		obs.event("point", pointEvent{Index: i, SweepPoint: pt})
	})
	if err != nil {
		if !mtvec.IsContextErr(err) {
			obs.event("error", map[string]string{"error": err.Error()})
		}
		return
	}
	obs.event("result", resp)
}

func (c *Coordinator) handleRun(w http.ResponseWriter, r *http.Request) {
	var rq RunRequest
	if err := decodeJSON(w, r, &rq); err != nil {
		httpFail(w, http.StatusBadRequest, err)
		return
	}
	// A run is a one-point sweep: same routing and retries.
	resp, code, err := c.sweep(r.Context(), SweepRequest{Base: rq}, nil)
	if err != nil {
		if mtvec.IsContextErr(err) {
			return
		}
		httpFail(w, code, err)
		return
	}
	pt := resp.Points[0]
	if pt.Error != "" {
		httpFail(w, http.StatusInternalServerError, errors.New(pt.Error))
		return
	}
	w.Header().Set("X-Mtvec-Cache", pt.Cache)
	w.Header().Set("X-Mtvec-Worker", pt.Worker)
	writeJSON(w, http.StatusOK, RunResponse{Cache: pt.Cache, ElapsedMS: resp.ElapsedMS, Report: pt.Report})
}

// proxyHandler forwards the request to one healthy worker (round
// robin). Streams flush immediately, so SSE passes through live.
func (c *Coordinator) proxyHandler(w http.ResponseWriter, r *http.Request) {
	worker, ok := c.pickProxyTarget()
	if !ok {
		httpFail(w, http.StatusServiceUnavailable, errors.New("no healthy worker"))
		return
	}
	target := c.targets[worker]
	proxy := &httputil.ReverseProxy{
		Rewrite: func(pr *httputil.ProxyRequest) {
			pr.SetURL(target)
			pr.Out.Host = target.Host
		},
		FlushInterval: -1,
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			c.setHealthy(worker, false)
			httpFail(w, http.StatusBadGateway, fmt.Errorf("worker %s: %v", worker, err))
		},
	}
	proxy.ServeHTTP(w, r)
}

func (c *Coordinator) pickProxyTarget() (string, bool) {
	n := len(c.workers)
	start := int(c.rr.Add(1))
	for i := 0; i < n; i++ {
		w := c.workers[(start+i)%n]
		if c.isHealthy(w) {
			return w, true
		}
	}
	return "", false
}

func (c *Coordinator) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, workloadCatalog())
}

func (c *Coordinator) handleExperiments(w http.ResponseWriter, r *http.Request) {
	var list []experimentInfo
	for _, e := range mtvec.Experiments() {
		list = append(list, experimentInfo{ID: e.ID, Title: e.Title, PaperShape: e.PaperShape})
	}
	writeJSON(w, http.StatusOK, list)
}

// workerStatus is one /api/v1/cluster topology row.
type workerStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

// clusterResponse is the /api/v1/cluster body.
type clusterResponse struct {
	Scale   float64        `json:"scale"`
	Vnodes  int            `json:"vnodes_per_worker"`
	Workers []workerStatus `json:"workers"`
}

func (c *Coordinator) handleCluster(w http.ResponseWriter, r *http.Request) {
	resp := clusterResponse{Scale: c.env.Scale, Vnodes: ringVnodes}
	for _, worker := range c.workers {
		resp.Workers = append(resp.Workers, workerStatus{URL: worker, Healthy: c.isHealthy(worker)})
	}
	writeJSON(w, http.StatusOK, resp)
}

// coordHealth is the coordinator's /healthz body.
type coordHealth struct {
	Status         string  `json:"status"`
	Role           string  `json:"role"`
	UptimeS        float64 `json:"uptime_s"`
	Scale          float64 `json:"scale"`
	Workers        int     `json:"workers"`
	HealthyWorkers int     `json:"healthy_workers"`
	Draining       bool    `json:"draining,omitempty"`
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, coordHealth{
		Status:         "ok",
		Role:           "coordinator",
		UptimeS:        time.Since(c.start).Seconds(),
		Scale:          c.env.Scale,
		Workers:        len(c.workers),
		HealthyWorkers: c.healthyCount(),
		Draining:       c.draining.Load(),
	})
}

// handleReady reports readiness: draining or a fully-dead worker pool
// both mean new sweeps should go elsewhere.
func (c *Coordinator) handleReady(w http.ResponseWriter, r *http.Request) {
	switch {
	case c.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "draining"})
	case c.healthyCount() == 0:
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "no healthy workers"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

func httpFail(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}
