package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"mtvec/internal/store"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 30, End: 50}}, 70},
		{"nested", []span{{Start: 10, End: 60}, {Start: 20, End: 30}}, 50},
		{"overlapping", []span{{Start: 10, End: 30}, {Start: 20, End: 50}}, 60},
		{"identical", []span{{Start: 10, End: 40}, {Start: 10, End: 40}}, 70},
		{"touching", []span{{Start: 10, End: 20}, {Start: 20, End: 30}}, 80},
		{"clipped to parent", []span{{Start: -10, End: 10}, {Start: 90, End: 120}}, 80},
		{"outside parent", []span{{Start: 100, End: 120}}, 100},
		{"mixed", []span{{Start: 40, End: 45}, {Start: 10, End: 30}, {Start: 20, End: 50}, {Start: 90, End: 120}}, 50},
		{"covers all", []span{{Start: 0, End: 60}, {Start: 50, End: 100}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestMeanSelfCountsOnlyNamedChildren(t *testing.T) {
	ix := indexSpans([]span{
		{ID: 1, Name: "experiments.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "store.do", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "store.get", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "report.render", Start: 60, End: 90},
		{ID: 5, Parent: 2, Name: "store.compute", Start: 15, End: 35},
		{ID: 6, Name: "experiments.run", Start: 200, End: 300},
	})
	// Pass 1 loses the union of its store children, [10, 50]; pass 2
	// has no children.
	if got, want := ix.meanSelf("experiments.run", "store."), (60.0+100.0)/2; got != want {
		t.Errorf("mean self %v, want %v", got, want)
	}
	if got, want := ix.meanSelf("store.do", "store.compute"), 10.0; got != want {
		t.Errorf("store.do self %v, want %v", got, want)
	}
	if got, n := ix.meanDur("store.get"); got != 20 || n != 1 {
		t.Errorf("store.get mean %v over %d, want 20 over 1", got, n)
	}
}

// The session only takes lock files for batched lanes when its backend
// is a store.TryLocker, so the timing wrapper must pass locks through
// whether tracing is on or off.
func TestTimedStoreForwardsTryLock(t *testing.T) {
	dir, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	back, ts := wrapStore(dir, tr)
	tl, ok := back.(store.TryLocker)
	if !ok {
		t.Fatal("wrapped backend is not a store.TryLocker")
	}
	for _, on := range []bool{false, true} {
		tr.enabled.Store(on)
		release := tl.TryLock("k")
		if release == nil {
			t.Fatalf("tracing %v: TryLock on a free key failed", on)
		}
		if again := tl.TryLock("k"); again != nil {
			again()
			t.Fatalf("tracing %v: second TryLock took a held lock", on)
		}
		release()
	}
	if n := len(indexSpans(tr.snapshot()).byName["store.trylock"]); n != 2 {
		t.Errorf("recorded %d trylock spans while tracing, want 2", n)
	}
	if ts.lookups.Load() != 0 {
		t.Errorf("TryLock counted as a lookup")
	}
}

// The result lines must carry exactly the metrics BENCHMARK.json names.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !slices.Equal(e2e, endToEndNames) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json has %v", endToEndNames, e2e)
	}
	if len(b.PerLayer) != len(perLayerNames) {
		t.Fatalf("%d per-layer metrics, BENCHMARK.json has %d", len(perLayerNames), len(b.PerLayer))
	}
	for i, m := range b.PerLayer {
		if pl := perLayerNames[i]; pl.name != m.Name || pl.unit != m.Unit {
			t.Errorf("per-layer metric %d is %s (%s), BENCHMARK.json has %s (%s)", i, pl.name, pl.unit, m.Name, m.Unit)
		}
	}
}
