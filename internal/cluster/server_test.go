package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// testScale keeps server-test simulations fast; results are still full
// deterministic runs.
const testScale = 5e-5

func newTestServer(t *testing.T, storeDir string) *Server {
	t.Helper()
	s, err := NewServer(Config{Scale: testScale, Jobs: 4, StoreDir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// do performs one request against the mux and decodes a JSON body.
func do(t *testing.T, h http.Handler, method, target, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, target, rec.Body.String(), err)
		}
	}
	return rec
}

func TestHealthAndCatalogs(t *testing.T) {
	h := newTestServer(t, "").Handler()

	var health healthResponse
	if rec := do(t, h, "GET", "/healthz", "", &health); rec.Code != 200 {
		t.Fatalf("healthz = %d", rec.Code)
	}
	if health.Status != "ok" || health.Scale != testScale {
		t.Fatalf("health %+v", health)
	}

	var ws []workloadInfo
	do(t, h, "GET", "/api/v1/workloads", "", &ws)
	// Ten Table 3 reconstructions plus the seven-kernel benchmark suite.
	if len(ws) != 17 {
		t.Fatalf("workloads = %d, want 17", len(ws))
	}
	bench := 0
	for _, w := range ws {
		if w.Suite == "Bench" {
			bench++
		}
	}
	if bench != 7 {
		t.Fatalf("bench-suite catalog entries = %d, want 7", bench)
	}

	var exps []experimentInfo
	do(t, h, "GET", "/api/v1/experiments", "", &exps)
	if len(exps) < 18 {
		t.Fatalf("experiments = %d, want >= 18", len(exps))
	}
}

func TestReadyzFlipsOnDrain(t *testing.T) {
	s := newTestServer(t, "")
	h := s.Handler()
	if rec := do(t, h, "GET", "/readyz", "", nil); rec.Code != 200 {
		t.Fatalf("readyz before drain = %d", rec.Code)
	}
	s.StartDraining()
	if rec := do(t, h, "GET", "/readyz", "", nil); rec.Code != 503 {
		t.Fatalf("readyz during drain = %d, want 503", rec.Code)
	}
	// Liveness and actual serving stay up throughout the drain.
	if rec := do(t, h, "GET", "/healthz", "", nil); rec.Code != 200 {
		t.Fatalf("healthz during drain = %d", rec.Code)
	}
	var resp RunResponse
	if rec := do(t, h, "POST", "/api/v1/run", `{"programs":["tf"]}`, &resp); rec.Code != 200 {
		t.Fatalf("run during drain = %d", rec.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	h := newTestServer(t, dir).Handler()
	do(t, h, "POST", "/api/v1/run", `{"programs":["tf"],"latency":80}`, nil)

	rec := do(t, h, "GET", "/metrics", "", nil)
	if rec.Code != 200 {
		t.Fatalf("metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`mtvec_runs_total{source="sim"} 1`,
		"mtvec_simulations_total 1",
		"mtvec_store_writes_total 1",
		"mtvec_gate_limit 4",
		"mtvec_draining 0",
		`mtvec_http_requests_total{endpoint="run",code="200"} 1`,
		"mtvec_run_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestRunEndpointCacheTiers(t *testing.T) {
	h := newTestServer(t, "").Handler()
	body := `{"mode":"solo","programs":["tf"],"latency":80}`

	var first RunResponse
	rec := do(t, h, "POST", "/api/v1/run", body, &first)
	if rec.Code != 200 {
		t.Fatalf("run = %d: %s", rec.Code, rec.Body.String())
	}
	if first.Cache != "sim" {
		t.Fatalf("first run cache = %q, want sim", first.Cache)
	}
	if first.Report == nil || first.Report.Cycles <= 0 {
		t.Fatalf("first run report %+v", first.Report)
	}
	if rec.Header().Get("X-Mtvec-Cache") != "sim" {
		t.Fatalf("cache header = %q", rec.Header().Get("X-Mtvec-Cache"))
	}

	var second RunResponse
	do(t, h, "POST", "/api/v1/run", body, &second)
	if second.Cache != "memo" {
		t.Fatalf("second run cache = %q, want memo", second.Cache)
	}
	if second.Report.Cycles != first.Report.Cycles {
		t.Fatal("memoized report differs")
	}
}

func TestRunEndpointServedFromStoreAcrossServers(t *testing.T) {
	dir := t.TempDir()
	body := `{"mode":"queue","programs":["tf","sw"],"contexts":2}`

	var cold RunResponse
	h1 := newTestServer(t, dir).Handler()
	if rec := do(t, h1, "POST", "/api/v1/run", body, &cold); rec.Code != 200 {
		t.Fatalf("cold run = %d: %s", rec.Code, rec.Body.String())
	}
	if cold.Cache != "sim" {
		t.Fatalf("cold cache = %q", cold.Cache)
	}

	// A brand-new server over the same store directory models a restart
	// (or another replica): the result must come from disk, bit-equal.
	srv2 := newTestServer(t, dir)
	var warm RunResponse
	do(t, srv2.Handler(), "POST", "/api/v1/run", body, &warm)
	if warm.Cache != "store" {
		t.Fatalf("warm cache = %q, want store", warm.Cache)
	}
	cb, _ := json.Marshal(cold.Report)
	wb, _ := json.Marshal(warm.Report)
	if string(cb) != string(wb) {
		t.Fatal("store-served report differs from the simulated one")
	}
	if sims := srv2.Env().Simulations(); sims != 0 {
		t.Fatalf("replica simulated %d times, want 0", sims)
	}
}

func TestSweepEndpoint(t *testing.T) {
	h := newTestServer(t, "").Handler()
	body := `{"base":{"mode":"solo","programs":["tf"]},"latencies":[20,50],"contexts":[1]}`

	var resp SweepResponse
	if rec := do(t, h, "POST", "/api/v1/sweep", body, &resp); rec.Code != 200 {
		t.Fatalf("sweep = %d: %s", rec.Code, rec.Body.String())
	}
	if len(resp.Points) != 2 || resp.Failed != 0 {
		t.Fatalf("sweep %+v", resp)
	}
	if resp.Simulated != 2 {
		t.Fatalf("cold sweep simulated = %d, want 2", resp.Simulated)
	}
	for _, p := range resp.Points {
		if p.Report == nil || p.Report.Cycles <= 0 {
			t.Fatalf("point %+v missing report", p)
		}
	}

	// Rerunning the sweep answers entirely from memo.
	var again SweepResponse
	do(t, h, "POST", "/api/v1/sweep", body, &again)
	if again.MemoHits != 2 || again.Simulated != 0 {
		t.Fatalf("warm sweep %+v, want 2 memo hits", again)
	}
	// The two latencies must really differ.
	if resp.Points[0].Report.Cycles == resp.Points[1].Report.Cycles {
		t.Fatal("latency sweep points identical")
	}
}

func TestSweepExplicitPoints(t *testing.T) {
	h := newTestServer(t, "").Handler()
	// The sub-sweep form: explicit points instead of axis lists.
	body := `{"base":{"mode":"solo","programs":["tf"]},"points":[{"latency":20},{"latency":50}]}`
	var resp SweepResponse
	if rec := do(t, h, "POST", "/api/v1/sweep", body, &resp); rec.Code != 200 {
		t.Fatalf("sweep = %d: %s", rec.Code, rec.Body.String())
	}
	if len(resp.Points) != 2 || resp.Failed != 0 || resp.Simulated != 2 {
		t.Fatalf("sweep %+v", resp)
	}
	if resp.Points[0].Latency != 20 || resp.Points[1].Latency != 50 {
		t.Fatalf("points out of order: %+v", resp.Points)
	}
	// Points and axis lists together are rejected.
	both := `{"base":{"programs":["tf"]},"points":[{"latency":20}],"latencies":[50]}`
	if rec := do(t, h, "POST", "/api/v1/sweep", both, nil); rec.Code != 400 {
		t.Fatalf("points+axes sweep = %d, want 400", rec.Code)
	}
}

func TestStreamEndpoint(t *testing.T) {
	h := newTestServer(t, "").Handler()
	target := "/api/v1/stream?mode=solo&programs=tf&progress_stride=512"

	rec := do(t, h, "GET", target, "", nil)
	if rec.Code != 200 {
		t.Fatalf("stream = %d: %s", rec.Code, rec.Body.String())
	}
	body := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(body, "event: progress") {
		t.Fatalf("no progress events in stream:\n%s", body)
	}
	if !strings.Contains(body, "event: result") {
		t.Fatalf("no result event in stream:\n%s", body)
	}
	if !strings.Contains(body, `"cache":"sim"`) {
		t.Fatalf("cold stream not marked sim:\n%s", body)
	}

	// Second stream of the same point: served from cache, result only.
	rec2 := do(t, h, "GET", target, "", nil)
	body2 := rec2.Body.String()
	if strings.Contains(body2, "event: progress") {
		t.Fatalf("cached stream still emitted progress:\n%s", body2)
	}
	if !strings.Contains(body2, "event: result") || !strings.Contains(body2, `"cache":"memo"`) {
		t.Fatalf("cached stream missing memo result:\n%s", body2)
	}
}

func TestExperimentEndpoint(t *testing.T) {
	h := newTestServer(t, "").Handler()
	rec := do(t, h, "GET", "/api/v1/experiments/table1", "", nil)
	if rec.Code != 200 {
		t.Fatalf("experiment = %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "Table 1") {
		t.Fatalf("unexpected body:\n%s", rec.Body.String())
	}
	if rec.Header().Get("X-Mtvec-Simulations") == "" {
		t.Fatal("missing simulations header")
	}
	if rec := do(t, h, "GET", "/api/v1/experiments/table1?format=markdown", "", nil); rec.Code != 200 ||
		!strings.Contains(rec.Body.String(), "###") {
		t.Fatalf("markdown render = %d:\n%s", rec.Code, rec.Body.String())
	}
	if rec := do(t, h, "GET", "/api/v1/experiments/nope", "", nil); rec.Code != 404 {
		t.Fatalf("unknown experiment = %d", rec.Code)
	}
	if rec := do(t, h, "GET", "/api/v1/experiments/table1?format=pdf", "", nil); rec.Code != 400 {
		t.Fatalf("unknown format = %d", rec.Code)
	}
}

func TestBadRequests(t *testing.T) {
	h := newTestServer(t, "").Handler()
	cases := []struct {
		method, target, body string
		want                 int
	}{
		{"POST", "/api/v1/run", `{`, 400},                                 // malformed JSON
		{"POST", "/api/v1/run", `{"programs":[]}`, 400},                   // no programs
		{"POST", "/api/v1/run", `{"programs":["zz"]}`, 400},               // unknown program
		{"POST", "/api/v1/run", `{"programs":["tf"],"mode":"warp"}`, 400}, // unknown mode
		{"POST", "/api/v1/run", `{"programs":["tf"],"lateency":80}`, 400}, // typo'd field
		{"POST", "/api/v1/run", `{"programs":["tf","sw"]}`, 400},          // solo with 2 programs
		{"POST", "/api/v1/run", `{"programs":["tf"],"contexts":99}`, 400}, // over MaxContexts
		{"POST", "/api/v1/run", `{"programs":["tf"],"banks":64}`, 400},    // bank no-op shape
		{"POST", "/api/v1/sweep", `{"base":{"programs":["tf"],"mode":"solo"},"contexts":[1,99]}`, 400},
		{"GET", "/api/v1/stream?programs=tf&contexts=nope", "", 400},
		{"GET", "/api/v1/stream?programs=", "", 400},
		{"GET", "/api/v1/stream?programs=tf&lateency=80", "", 400}, // typo'd query param
	}
	for _, tc := range cases {
		rec := do(t, h, tc.method, tc.target, tc.body, nil)
		if rec.Code != tc.want {
			t.Errorf("%s %s %s = %d, want %d (%s)", tc.method, tc.target, tc.body, rec.Code, tc.want, rec.Body.String())
		}
		if tc.want >= 400 && !strings.Contains(rec.Body.String(), `"error"`) {
			t.Errorf("%s %s: error body missing: %s", tc.method, tc.target, rec.Body.String())
		}
	}
	// Oversized sweep: 70^2 > MaxSweepPoints with two long axes.
	var lats, ctxs []string
	for i := 0; i < 70; i++ {
		lats = append(lats, fmt.Sprint(i+1))
	}
	for i := 0; i < 70; i++ {
		ctxs = append(ctxs, "1")
	}
	body := fmt.Sprintf(`{"base":{"programs":["tf"]},"latencies":[%s],"contexts":[%s]}`,
		strings.Join(lats, ","), strings.Join(ctxs, ","))
	if rec := do(t, h, "POST", "/api/v1/sweep", body, nil); rec.Code != 400 {
		t.Errorf("oversized sweep = %d, want 400", rec.Code)
	}
}
