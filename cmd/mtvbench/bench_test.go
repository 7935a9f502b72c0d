package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
	"unsafe"

	"mtvec/internal/prog"
)

// writeBenchFile writes a synthetic artifact for compare tests.
func writeBenchFile(t *testing.T, dir, name, ref string, ns map[string]float64) string {
	t.Helper()
	f := BenchFile{Schema: benchSchema, Ref: ref, Scale: 3e-5, Count: 1}
	for n, v := range ns {
		f.Benchmarks = append(f.Benchmarks, BenchResult{Name: n, Iters: 1, NsPerOp: v})
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBenchCompareGate(t *testing.T) {
	dir := t.TempDir()
	oldP := writeBenchFile(t, dir, "old.json", "old", map[string]float64{"a": 100, "b": 200})
	fast := writeBenchFile(t, dir, "fast.json", "fast", map[string]float64{"a": 50, "b": 100})
	slow := writeBenchFile(t, dir, "slow.json", "slow", map[string]float64{"a": 150, "b": 300})

	cmp, err := compareBench(oldP, fast, 0.10, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cmp.GeomeanRatio-0.5) > 1e-9 {
		t.Errorf("geomean ratio = %v, want 0.5", cmp.GeomeanRatio)
	}
	var buf bytes.Buffer
	if err := runBenchCompare(&buf, oldP, fast, "", 0.10, 0.10); err != nil {
		t.Errorf("2x speedup failed the gate: %v", err)
	}
	if !strings.Contains(buf.String(), "2.00x") {
		t.Errorf("missing speedup column in %q", buf.String())
	}

	// A 50% regression must fail a 10% gate and still write -o.
	out := filepath.Join(dir, "cmp.json")
	buf.Reset()
	err = runBenchCompare(&buf, oldP, slow, out, 0.10, 0.10)
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Errorf("regression passed the gate: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("comparison JSON not written: %v", err)
	}
	var rec CompareFile
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if math.Abs(rec.GeomeanRatio-1.5) > 1e-9 || rec.BaselineRef != "old" || rec.NewRef != "slow" {
		t.Errorf("recorded comparison = %+v", rec)
	}
}

// TestBenchCompareIntersection: mismatched benchmark sets and
// unusable ns/op entries must be excluded from the geomean and listed
// by name, not skew (or NaN-poison) the ratio.
func TestBenchCompareIntersection(t *testing.T) {
	dir := t.TempDir()
	oldP := writeBenchFile(t, dir, "old.json", "old", map[string]float64{
		"a": 100, "b": 200, "gone": 70, "zero": 0,
	})
	newP := writeBenchFile(t, dir, "new.json", "new", map[string]float64{
		"a": 100, "b": 200, "added": 30, "zero": 50, "neg": -5,
	})
	cmp, err := compareBench(oldP, newP, 0.10, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	// Only a and b are comparable; their ratio is exactly 1.
	if len(cmp.Benchmarks) != 2 || math.Abs(cmp.GeomeanRatio-1.0) > 1e-9 {
		t.Fatalf("compared %d benchmarks, geomean %v; want 2 at 1.0", len(cmp.Benchmarks), cmp.GeomeanRatio)
	}
	if math.IsNaN(cmp.GeomeanRatio) {
		t.Fatal("geomean poisoned by unusable entry")
	}
	wantDropped := []string{"added", "gone", "zero", "neg"}
	if len(cmp.Dropped) != len(wantDropped) {
		t.Fatalf("dropped %v, want %d entries", cmp.Dropped, len(wantDropped))
	}
	joined := strings.Join(cmp.Dropped, "\n")
	for _, name := range wantDropped {
		if !strings.Contains(joined, name) {
			t.Errorf("dropped list missing %q: %v", name, cmp.Dropped)
		}
	}
	// The rendered table reports them too, and the gate still applies.
	var buf bytes.Buffer
	if err := runBenchCompare(&buf, oldP, newP, "", 0.10, 0.10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dropped: gone (missing from") {
		t.Errorf("dropped names not rendered:\n%s", buf.String())
	}

	// Unusable values in every common benchmark must fail loudly, not
	// divide by zero or pass vacuously. (NaN/Inf cannot survive a JSON
	// artifact, but usableNs guards them anyway for robustness.)
	allBad := writeBenchFile(t, dir, "bad.json", "bad", map[string]float64{
		"a": 0, "b": -5,
	})
	if _, err := compareBench(oldP, allBad, 0.10, 0.10); err == nil || !strings.Contains(err.Error(), "no common") {
		t.Errorf("all-unusable artifact: err = %v", err)
	}
}

// writeBenchResults writes an artifact with explicit BenchResults, for
// tests that need B/op alongside ns/op.
func writeBenchResults(t *testing.T, dir, name, ref string, results []BenchResult) string {
	t.Helper()
	f := BenchFile{Schema: benchSchema, Ref: ref, Scale: 3e-5, Count: 1, Benchmarks: results}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBenchCompareBytesGate: the B/op geomean gates independently of
// ns/op, over only the benchmarks where both artifacts recorded
// positive byte counts.
func TestBenchCompareBytesGate(t *testing.T) {
	dir := t.TempDir()
	oldP := writeBenchResults(t, dir, "old.json", "old", []BenchResult{
		{Name: "a", Iters: 1, NsPerOp: 100, BytesPerOp: 1000},
		{Name: "b", Iters: 1, NsPerOp: 100, BytesPerOp: 0}, // legit zero: not in bytes geomean
	})
	// Faster but allocating 4x: passes the ns gate, fails the bytes gate.
	hungry := writeBenchResults(t, dir, "hungry.json", "hungry", []BenchResult{
		{Name: "a", Iters: 1, NsPerOp: 50, BytesPerOp: 4000},
		{Name: "b", Iters: 1, NsPerOp: 50, BytesPerOp: 0},
	})
	cmp, err := compareBench(oldP, hungry, 0.10, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cmp.GeomeanBytesRatio-4.0) > 1e-9 {
		t.Errorf("bytes geomean = %v, want 4.0 over the single positive pair", cmp.GeomeanBytesRatio)
	}
	var buf bytes.Buffer
	err = runBenchCompare(&buf, oldP, hungry, "", 0.10, 0.10)
	if err == nil || !strings.Contains(err.Error(), "allocation regression") {
		t.Errorf("4x B/op passed the bytes gate: %v", err)
	}
	if !strings.Contains(buf.String(), "geomean B/op ratio") {
		t.Errorf("bytes geomean not rendered:\n%s", buf.String())
	}

	// No positive pairs at all: the bytes gate passes vacuously (ns/op
	// still judges) and the recorded ratio stays zero.
	lean := writeBenchResults(t, dir, "lean.json", "lean", []BenchResult{
		{Name: "b", Iters: 1, NsPerOp: 100, BytesPerOp: 0},
	})
	buf.Reset()
	if err := runBenchCompare(&buf, oldP, lean, "", 0.10, 0.10); err != nil {
		t.Errorf("bytes-free comparison failed: %v", err)
	}

	// A raised bytes allowance admits what the default rejects.
	if err := runBenchCompare(io.Discard, oldP, hungry, "", 0.10, 5.0); err != nil {
		t.Errorf("4x B/op failed a 5.0 bytes gate: %v", err)
	}
}

func TestBenchCompareErrors(t *testing.T) {
	dir := t.TempDir()
	oldP := writeBenchFile(t, dir, "old.json", "old", map[string]float64{"a": 100})
	if _, err := compareBench(oldP, filepath.Join(dir, "missing.json"), 0.1, 0.1); err == nil {
		t.Error("missing file accepted")
	}
	other := writeBenchFile(t, dir, "other.json", "x", map[string]float64{"z": 1})
	if _, err := compareBench(oldP, other, 0.1, 0.1); err == nil || !strings.Contains(err.Error(), "no common") {
		t.Errorf("disjoint benchmark sets: err = %v", err)
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"schema":99}`), 0o644)
	if _, err := loadBenchFile(bad); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("wrong schema accepted: %v", err)
	}
}

// TestBenchJSONSmoke measures a tiny sliver of the suite and checks the
// artifact is well-formed and self-describing (scale recorded).
func TestBenchJSONSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("measures wall time")
	}
	cases, cleanup, err := benchCases(1e-5, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if len(cases) < 20 {
		t.Fatalf("only %d bench cases", len(cases))
	}
	// Measure just one cheap case end to end.
	res, err := measure(cases[0], 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters < 1 || res.NsPerOp <= 0 {
		t.Errorf("bad measurement %+v", res)
	}

	var buf bytes.Buffer
	// Full runBenchJSON is exercised in CI via scripts/bench.sh; here we
	// only validate the encoding shape with a stubbed file.
	f := BenchFile{Schema: benchSchema, Ref: "t", Scale: 1e-5, Benchmarks: []BenchResult{res}}
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(f); err != nil {
		t.Fatal(err)
	}
	var back BenchFile
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Scale != 1e-5 || len(back.Benchmarks) != 1 || back.Benchmarks[0].Name != cases[0].name {
		t.Errorf("round trip = %+v", back)
	}
}

// TestBenchArtifactSamplesAndCompat: an artifact records the machine's
// CPU count and GOMAXPROCS and every sample of each case, best one
// included, and -bench-compare still reads the committed baselines,
// which predate those fields, in either direction.
func TestBenchArtifactSamplesAndCompat(t *testing.T) {
	dir := t.TempDir()
	cases := []benchCase{{name: "engine/reference", fn: func() (int64, error) { return 1000, nil }}}
	var buf bytes.Buffer
	if err := recordBench(&buf, cases, BenchFile{Schema: benchSchema, Ref: "new", Count: 3}, time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	var f BenchFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if f.NumCPU < 1 || f.GOMAXPROCS < 1 {
		t.Errorf("machine not recorded: num_cpu %d gomaxprocs %d", f.NumCPU, f.GOMAXPROCS)
	}
	if len(f.Benchmarks) != 1 || len(f.Benchmarks[0].Samples) != 3 {
		t.Fatalf("benchmarks %+v, want one case with 3 samples", f.Benchmarks)
	}
	best := f.Benchmarks[0]
	for _, s := range best.Samples {
		if s.Iters < 1 || s.NsPerOp <= 0 || s.NsPerOp < best.NsPerOp {
			t.Errorf("sample %+v inconsistent with best %v ns/op", s, best.NsPerOp)
		}
	}
	newPath := filepath.Join(dir, "new.json")
	if err := os.WriteFile(newPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	baselines, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	read := 0
	for _, old := range baselines {
		data, err := os.ReadFile(old)
		if err != nil {
			t.Fatal(err)
		}
		var probe struct {
			Ref string `json:"ref"`
		}
		if json.Unmarshal(data, &probe) != nil || probe.Ref == "" {
			continue // a comparison or a bespoke record, not a bench artifact
		}
		read++
		for _, pair := range [][2]string{{old, newPath}, {newPath, old}} {
			cmp, err := compareBench(pair[0], pair[1], math.Inf(1), math.Inf(1))
			if err != nil {
				t.Fatalf("%s vs %s: %v", pair[0], pair[1], err)
			}
			if len(cmp.Benchmarks) != 1 || cmp.Benchmarks[0].Name != "engine/reference" {
				t.Errorf("%s vs %s: compared %+v", pair[0], pair[1], cmp.Benchmarks)
			}
		}
	}
	if read < 3 {
		t.Errorf("read %d committed bench artifacts, want at least 3", read)
	}
}

// TestStoreBenchCases runs the store cases a few times each: the record
// round-trips, and every claim meets a fresh key and deletes its record.
func TestStoreBenchCases(t *testing.T) {
	cases, cleanup, err := benchCases(1e-5, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	found := 0
	for _, c := range cases {
		if !strings.HasPrefix(c.name, "store/") {
			continue
		}
		found++
		for i := 0; i < 3; i++ {
			if _, err := c.fn(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
	}
	if found != 2 {
		t.Fatalf("found %d store cases, want 2", found)
	}
}

// TestPredecodeBenchCase: prog/predecode expands the ten Table 3
// traces, reports ns per instruction rather than simulated cycles, and
// allocates at least the predecoded entries it returns.
func TestPredecodeBenchCase(t *testing.T) {
	cases, cleanup, err := benchCases(1e-5, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	for _, c := range cases {
		if c.name != "prog/predecode" {
			continue
		}
		insts, err := c.fn()
		if err != nil || insts <= 0 {
			t.Fatalf("predecoded %d instructions: %v", insts, err)
		}
		res, err := measure(c, 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if res.NsPerInst <= 0 || res.McyclesPerS != 0 {
			t.Errorf("prog/predecode reports %v ns/inst and %v Mcycles/s, want ns/inst only", res.NsPerInst, res.McyclesPerS)
		}
		if entries := insts * int64(unsafe.Sizeof(prog.DecodedInst{})); res.BytesPerOp < entries {
			t.Errorf("prog/predecode allocates %d B/op, less than its %d bytes of entries", res.BytesPerOp, entries)
		}
		return
	}
	t.Fatal("no prog/predecode bench case")
}
