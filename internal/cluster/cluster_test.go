package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testCluster is a coordinator over live worker servers.
type testCluster struct {
	coord   *Coordinator
	workers []*Server
	servers []*httptest.Server
}

// newTestCluster starts n workers (each with its own store directory)
// and a coordinator over them.
func newTestCluster(t *testing.T, n int, cfg CoordinatorConfig) *testCluster {
	return newSlowCluster(t, n, cfg, 0)
}

// newSlowCluster is newTestCluster with worker 0's sweeps held back by
// slow (see slowSweeps); 0 leaves every worker at full speed.
func newSlowCluster(t *testing.T, n int, cfg CoordinatorConfig, slow time.Duration) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		w := newTestServer(t, t.TempDir())
		h := w.Handler()
		if i == 0 && slow > 0 {
			h = slowSweeps(h, slow)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		tc.workers = append(tc.workers, w)
		tc.servers = append(tc.servers, ts)
		cfg.Workers = append(cfg.Workers, ts.URL)
	}
	cfg.Scale = testScale
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 50 * time.Millisecond
	}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	tc.coord = coord
	return tc
}

// slowSweeps delays every POST /api/v1/sweep by d before h sees it,
// and drops the request once its context is done (the client gave up or
// the connection died). Other routes, /readyz included, pass straight
// through, so the prober still sees the worker as healthy.
func slowSweeps(h http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/api/v1/sweep" {
			// The server notices a closed connection, and cancels the
			// context, only once the body has been read.
			body, err := io.ReadAll(r.Body)
			if err != nil {
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			timer := time.NewTimer(d)
			defer timer.Stop()
			select {
			case <-r.Context().Done():
				return
			case <-timer.C:
			}
		}
		h.ServeHTTP(w, r)
	})
}

// sweep64 is the differential workload: 8 latencies x 8 context counts
// of the tf program, 64 distinct points.
const sweep64 = `{"base":{"mode":"queue","programs":["tf","sw"]},` +
	`"latencies":[10,20,30,40,50,60,70,80],"contexts":[1,2,3,4,5,6,7,8]}`

// diffSweep asserts the coordinator answers body field-identically to
// a fresh standalone server, and returns the coordinator's response.
func diffSweep(t *testing.T, tc *testCluster, body string) *SweepResponse {
	t.Helper()
	var want SweepResponse
	if rec := do(t, newTestServer(t, "").Handler(), "POST", "/api/v1/sweep", body, &want); rec.Code != 200 {
		t.Fatalf("standalone sweep = %d: %s", rec.Code, rec.Body.String())
	}
	var got SweepResponse
	if rec := do(t, tc.coord.Handler(), "POST", "/api/v1/sweep", body, &got); rec.Code != 200 {
		t.Fatalf("coordinator sweep = %d: %s", rec.Code, rec.Body.String())
	}
	if len(got.Points) != len(want.Points) {
		t.Fatalf("coordinator answered %d points, standalone %d", len(got.Points), len(want.Points))
	}
	for i := range want.Points {
		w, g := want.Points[i], got.Points[i]
		if g.Contexts != w.Contexts || g.Latency != w.Latency || g.Policy != w.Policy {
			t.Fatalf("point %d axes differ: %+v vs %+v", i, g, w)
		}
		if g.Error != "" || w.Error != "" {
			t.Fatalf("point %d errored: %q / %q", i, g.Error, w.Error)
		}
		wb, _ := json.Marshal(w.Report)
		gb, _ := json.Marshal(g.Report)
		if string(wb) != string(gb) {
			t.Fatalf("point %d report differs from standalone:\n%s\nvs\n%s", i, gb, wb)
		}
	}
	return &got
}

func TestCoordinatorSweepMatchesStandalone(t *testing.T) {
	tc := newTestCluster(t, 2, CoordinatorConfig{})
	resp := diffSweep(t, tc, sweep64)

	// The ring must actually have sharded the work: both workers
	// answered points, and the split is exactly the workers' own
	// simulation counts (every point was cold).
	byWorker := map[string]int{}
	for _, p := range resp.Points {
		byWorker[p.Worker]++
	}
	if len(byWorker) != 2 {
		t.Fatalf("points answered by %d workers, want 2: %v", len(byWorker), byWorker)
	}
	if resp.Simulated != 64 {
		t.Fatalf("cold cluster sweep simulated = %d, want 64", resp.Simulated)
	}

	// Replaying the same sweep costs zero simulations anywhere.
	sims := tc.workers[0].Env().Simulations() + tc.workers[1].Env().Simulations()
	var again SweepResponse
	do(t, tc.coord.Handler(), "POST", "/api/v1/sweep", sweep64, &again)
	if again.Failed != 0 || again.Simulated != 0 {
		t.Fatalf("replay sweep %+v, want all cache hits", again)
	}
	after := tc.workers[0].Env().Simulations() + tc.workers[1].Env().Simulations()
	if after != sims {
		t.Fatalf("replay cost %d simulations, want 0", after-sims)
	}
	if tc.coord.Env().Simulations() != 0 {
		t.Fatal("coordinator simulated locally")
	}
}

func TestCoordinatorSurvivesWorkerKilledMidSweep(t *testing.T) {
	// No prober help: the failure path alone must recover. The victim
	// is slow, so its shard is still in flight when we kill it.
	tc := newSlowCluster(t, 2, CoordinatorConfig{ProbeInterval: time.Hour}, 30*time.Second)

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/api/v1/sweep", strings.NewReader(sweep64))
		req.Header.Set("Content-Type", "application/json")
		tc.coord.Handler().ServeHTTP(rec, req)
		done <- rec
	}()
	time.Sleep(100 * time.Millisecond)
	// Kill worker 0 mid-sweep: in-flight sub-sweeps die with the
	// connection, and the coordinator must re-route its points.
	tc.servers[0].CloseClientConnections()
	tc.servers[0].Close()

	rec := <-done
	if rec.Code != 200 {
		t.Fatalf("sweep with killed worker = %d: %s", rec.Code, rec.Body.String())
	}
	var got SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Failed != 0 {
		t.Fatalf("sweep failed %d points after worker death: %+v", got.Failed, got)
	}
	if got.Retries == 0 {
		t.Fatal("no retries recorded though a worker died mid-sweep")
	}
	// Every point must match the standalone answer bit for bit.
	var want SweepResponse
	do(t, newTestServer(t, "").Handler(), "POST", "/api/v1/sweep", sweep64, &want)
	for i := range want.Points {
		wb, _ := json.Marshal(want.Points[i].Report)
		gb, _ := json.Marshal(got.Points[i].Report)
		if string(wb) != string(gb) {
			t.Fatalf("point %d differs from standalone after failover", i)
		}
	}
}

func TestCoordinatorCoalescesDuplicatePoints(t *testing.T) {
	tc := newTestCluster(t, 2, CoordinatorConfig{})
	body := `{"base":{"programs":["tf"]},"points":[{"latency":35},{"latency":35},{"latency":35}]}`
	var resp SweepResponse
	if rec := do(t, tc.coord.Handler(), "POST", "/api/v1/sweep", body, &resp); rec.Code != 200 {
		t.Fatalf("sweep = %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Coalesced != 2 {
		t.Fatalf("coalesced = %d, want 2", resp.Coalesced)
	}
	if sims := tc.workers[0].Env().Simulations() + tc.workers[1].Env().Simulations(); sims != 1 {
		t.Fatalf("cluster simulated %d times for one distinct point", sims)
	}
	for _, p := range resp.Points {
		if p.Report == nil || p.Error != "" {
			t.Fatalf("point %+v incomplete", p)
		}
	}
}

func TestCoordinatorHedgesSlowShard(t *testing.T) {
	// Worker 0 is pathologically slow: each sweep it is sent waits 30s
	// before it starts, so nothing it owns can come back within this
	// test. Only the hedge onto worker 1 lets the sweep finish.
	tc := newSlowCluster(t, 2, CoordinatorConfig{HedgeAfter: 100 * time.Millisecond}, 30*time.Second)

	start := time.Now()
	var resp SweepResponse
	if rec := do(t, tc.coord.Handler(), "POST", "/api/v1/sweep", sweep64, &resp); rec.Code != 200 {
		t.Fatalf("sweep = %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Failed != 0 {
		t.Fatalf("hedged sweep failed points: %+v", resp)
	}
	if resp.Hedges == 0 {
		t.Fatal("no hedges recorded though one shard was pathologically slow")
	}
	// Every point — worker 0's own shard included — must have been
	// answered by worker 1, far inside worker 0's 30s delay.
	for i, p := range resp.Points {
		if p.Worker != tc.servers[1].URL {
			t.Fatalf("point %d answered by %s, want the hedge target %s", i, p.Worker, tc.servers[1].URL)
		}
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("sweep took %s despite hedging", elapsed)
	}
}

func TestCoordinatorRunAndSSE(t *testing.T) {
	tc := newTestCluster(t, 2, CoordinatorConfig{})
	h := tc.coord.Handler()

	var run RunResponse
	rec := do(t, h, "POST", "/api/v1/run", `{"programs":["tf"],"latency":25}`, &run)
	if rec.Code != 200 || run.Cache != "sim" || run.Report == nil {
		t.Fatalf("run = %d, %+v", rec.Code, run)
	}
	if rec.Header().Get("X-Mtvec-Worker") == "" {
		t.Fatal("run response missing worker attribution")
	}
	// Same point again: the owning worker's memo answers.
	var again RunResponse
	do(t, h, "POST", "/api/v1/run", `{"programs":["tf"],"latency":25}`, &again)
	if again.Cache != "memo" {
		t.Fatalf("repeat run cache = %q, want memo", again.Cache)
	}

	// Sweep with SSE progress: one point event per point, then the
	// merged result.
	req := httptest.NewRequest("POST", "/api/v1/sweep",
		strings.NewReader(`{"base":{"programs":["tf"]},"latencies":[25,45]}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	srec := httptest.NewRecorder()
	h.ServeHTTP(srec, req)
	body := srec.Body.String()
	if srec.Code != 200 || srec.Header().Get("Content-Type") != "text/event-stream" {
		t.Fatalf("sse sweep = %d (%s)", srec.Code, srec.Header().Get("Content-Type"))
	}
	if strings.Count(body, "event: point") != 2 || !strings.Contains(body, "event: result") {
		t.Fatalf("sse stream malformed:\n%s", body)
	}

	// Stream proxying: the SSE run endpoint passes through to a worker.
	prec := do(t, h, "GET", "/api/v1/stream?programs=tf&latency=25", "", nil)
	if prec.Code != 200 || !strings.Contains(prec.Body.String(), "event: result") {
		t.Fatalf("proxied stream = %d:\n%s", prec.Code, prec.Body.String())
	}
}

func TestCoordinatorTopologyHealthAndDrain(t *testing.T) {
	tc := newTestCluster(t, 2, CoordinatorConfig{})
	h := tc.coord.Handler()

	var topo clusterResponse
	if rec := do(t, h, "GET", "/api/v1/cluster", "", &topo); rec.Code != 200 {
		t.Fatalf("cluster = %d", rec.Code)
	}
	if len(topo.Workers) != 2 || topo.Scale != testScale || topo.Vnodes != ringVnodes {
		t.Fatalf("topology %+v", topo)
	}
	for _, w := range topo.Workers {
		if !w.Healthy {
			t.Fatalf("worker %s unhealthy at start", w.URL)
		}
	}

	var health coordHealth
	do(t, h, "GET", "/healthz", "", &health)
	if health.Role != "coordinator" || health.Workers != 2 {
		t.Fatalf("health %+v", health)
	}
	if rec := do(t, h, "GET", "/readyz", "", nil); rec.Code != 200 {
		t.Fatalf("readyz = %d", rec.Code)
	}

	// A draining worker fails its readiness probe and drops from the
	// healthy count.
	tc.workers[0].StartDraining()
	deadline := time.Now().Add(3 * time.Second)
	for tc.coord.healthyCount() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("prober never noticed the draining worker")
		}
		time.Sleep(10 * time.Millisecond)
	}

	tc.coord.StartDraining()
	if rec := do(t, h, "GET", "/readyz", "", nil); rec.Code != 503 {
		t.Fatalf("coordinator readyz while draining = %d, want 503", rec.Code)
	}

	// Metrics surface the cluster counters.
	mrec := do(t, h, "GET", "/metrics", "", nil)
	for _, want := range []string{"mtvec_worker_healthy", "mtvec_coord_sweeps_total", "mtvec_draining 1"} {
		if !strings.Contains(mrec.Body.String(), want) {
			t.Errorf("coordinator metrics missing %q", want)
		}
	}
}
