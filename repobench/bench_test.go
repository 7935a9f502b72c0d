package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"maps"
	"testing"
)

// testScale keeps the workloads' set-up and requests fast.
const testScale = 3e-5

// runRequests sets a workload up and issues n requests from one client
// with tracing on or off. It returns a digest of every answered report
// in request order, the workload's traffic counters and the tracer.
func runRequests(t *testing.T, setup func(setupEnv) (instance, error), traced bool, n int) ([32]byte, map[string]float64, *tracer) {
	t.Helper()
	var tr *tracer
	if traced {
		tr = newTracer()
		tr.enabled.Store(true)
	}
	inst, err := setup(setupEnv{seed: 7, scale: testScale, jobs: 2, dir: t.TempDir(), tr: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	h := sha256.New()
	for k := 0; k < n; k++ {
		o := inst.request(context.Background(), 0, int64(k))
		if o.verify != nil {
			o.failed += o.verify()
		}
		if o.failed != 0 || o.points == 0 {
			t.Fatalf("traced=%v request %d: %d of %d points failed", traced, k, o.failed, o.points)
		}
		for _, rep := range o.reps {
			b, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
	}
	if checked, failed := inst.check(); failed != 0 {
		t.Fatalf("traced=%v: %d of %d checked points failed", traced, failed, checked)
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum, inst.traffic(), tr
}

// Tracing wraps the store, so a traced run must answer exactly what an
// untraced run of the same seed answers, from the same sources.
func TestTracedSweepMatchesUntraced(t *testing.T) {
	plain, plainMix, _ := runRequests(t, setupSweep, false, 6)
	traced, tracedMix, tr := runRequests(t, setupSweep, true, 6)
	if plain != traced {
		t.Error("traced and untraced runs answered different reports")
	}
	if !maps.Equal(plainMix, tracedMix) {
		t.Errorf("source mix differs: untraced %v, traced %v", plainMix, tracedMix)
	}
	if plainMix["source_sim"] == 0 || plainMix["source_memo"]+plainMix["source_store"] != 0 {
		t.Errorf("sweep-cold points did not all simulate: %v", plainMix)
	}
	ix := indexSpans(tr.snapshot())
	for _, name := range []string{"session.runall", "store.trylock", "store.put", "store.get"} {
		if len(ix.byName[name]) == 0 {
			t.Errorf("traced sweep recorded no %s span", name)
		}
	}
	for _, s := range ix.byName["store.put"] {
		if s.Parent == 0 || s.Req == 0 {
			t.Errorf("store.put span %+v has no parent request", s)
		}
	}
}

func TestTracedSuiteMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole experiment suite")
	}
	_, plainMix, _ := runRequests(t, setupSuite, false, 2)
	_, tracedMix, tr := runRequests(t, setupSuite, true, 2)
	if !maps.Equal(plainMix, tracedMix) {
		t.Errorf("traffic differs: untraced %v, traced %v", plainMix, tracedMix)
	}
	if plainMix["session_simulations"] != 0 || plainMix["session_store_hits"] != 2*plainMix["points_per_pass"] {
		t.Errorf("warm passes did not read every point from the store: %v", plainMix)
	}
	ix := indexSpans(tr.snapshot())
	for _, name := range []string{"experiments.run", "report.render", "store.do"} {
		if len(ix.byName[name]) == 0 {
			t.Errorf("traced passes recorded no %s span", name)
		}
	}
}

// Every worker span must hang under the coordinator span of the client
// request that caused it, and every coordinator span under its client
// span, or the cluster self times subtract the wrong children.
func TestServeSpansNest(t *testing.T) {
	_, mix, tr := runRequests(t, setupServe, true, 6)
	if mix["worker_simulations"] != mix["new_points_issued"] {
		t.Errorf("workers simulated %v points, want the %v new ones", mix["worker_simulations"], mix["new_points_issued"])
	}
	ix := indexSpans(tr.snapshot())
	byID := map[int64]span{}
	for _, s := range tr.snapshot() {
		byID[s.ID] = s
	}
	check := func(child, parent string) {
		if len(ix.byName[child]) == 0 {
			t.Errorf("no %s spans", child)
		}
		for _, s := range ix.byName[child] {
			if p, ok := byID[s.Parent]; !ok || p.Name != parent || p.Req != s.Req {
				t.Errorf("%s span %+v: parent %+v, want a %s of the same request", child, s, p, parent)
			}
		}
	}
	check("cluster.coord", "client.sweep")
	check("cluster.worker", "cluster.coord")
}
