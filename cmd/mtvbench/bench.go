package main

// Benchmark-artifact mode: mtvbench doubles as a reproducible perf
// harness. -bench-json measures every case of the registry in
// internal/benchcase and emits a machine-readable BENCH_<ref>.json;
// -bench-compare diffs two sides, each one or more such files, and
// enforces geomean ns/op and B/op regression gates. scripts/bench.sh and
// the CI bench job drive both.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"mtvec"
	"mtvec/internal/benchcase"
)

// benchSchema versions the BENCH_*.json format.
const benchSchema = 1

// BenchFile is the on-disk benchmark artifact.
type BenchFile struct {
	Schema      int     `json:"schema"`
	Ref         string  `json:"ref"`
	GoVersion   string  `json:"go"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	Scale       float64 `json:"scale"`
	BenchtimeMS int64   `json:"benchtime_ms"`
	Count       int     `json:"count"`
	// Jobs is the gate width the sweep cases ran under (-bench-jobs).
	// Compare artifacts recorded at the same width: sweep points run
	// side by side, so jobs is part of the measurement, not just the
	// machine environment.
	Jobs int `json:"jobs,omitempty"`
	// NumCPU and GOMAXPROCS describe the machine the samples ran on. A
	// parallel speedup measured with one CPU is no speedup. Artifacts
	// recorded before these fields existed read them as 0.
	NumCPU     int `json:"num_cpu,omitempty"`
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`

	Benchmarks []BenchResult `json:"benchmarks"`
}

// BenchResult is one benchmark's best sample, plus every sample taken.
type BenchResult struct {
	Name        string  `json:"name"`
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// McyclesPerS reports simulated-cycle throughput for the engine
	// benchmarks (0 elsewhere).
	McyclesPerS float64 `json:"mcycles_per_s,omitempty"`
	// NsPerInst reports time per dynamic instruction for the cases that
	// expand instruction streams (0 elsewhere).
	NsPerInst float64 `json:"ns_per_inst,omitempty"`
	// Samples holds all -count measurements in the order taken, the
	// best one included, so a reader can see the spread. Empty in
	// artifacts recorded before the field existed.
	Samples []BenchSample `json:"samples,omitempty"`
}

// BenchSample is one measurement of a benchmark.
type BenchSample struct {
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// measure runs a prepared case for at least benchtime and returns its
// stats.
func measure(c benchcase.Case, fn benchcase.Func, benchtime time.Duration) (BenchResult, error) {
	if _, err := fn(); err != nil { // warm-up + error check
		return BenchResult{}, fmt.Errorf("%s: %w", c.Name, err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var iters, work int64
	start := time.Now()
	for iters == 0 || time.Since(start) < benchtime {
		n, err := fn()
		if err != nil {
			return BenchResult{}, fmt.Errorf("%s: %w", c.Name, err)
		}
		work += n
		iters++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	res := BenchResult{
		Name:        c.Name,
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		BytesPerOp:  int64(ms1.TotalAlloc-ms0.TotalAlloc) / iters,
		AllocsPerOp: int64(ms1.Mallocs-ms0.Mallocs) / iters,
	}
	switch {
	case work > 0 && c.Unit == benchcase.Insts:
		res.NsPerInst = float64(elapsed.Nanoseconds()) / float64(work)
	case work > 0 && c.Unit == benchcase.Cycles:
		res.McyclesPerS = float64(work) / elapsed.Seconds() / 1e6
	}
	return res, nil
}

// runBenchJSON measures the suite and writes the artifact to w.
func runBenchJSON(w io.Writer, ref string, benchtime time.Duration, count, jobs int, progress io.Writer) error {
	scale, err := mtvec.BenchScale()
	if err != nil {
		return err
	}
	if jobs < 1 {
		jobs = runtime.NumCPU()
	}
	cases, cleanup := benchcase.New(scale, jobs)
	defer cleanup()
	return recordBench(w, cases, BenchFile{
		Schema:      benchSchema,
		Ref:         ref,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Scale:       scale,
		BenchtimeMS: benchtime.Milliseconds(),
		Count:       count,
		Jobs:        jobs,
	}, benchtime, progress)
}

// recordBench prepares every case, so a fixture that fails to build
// stops the run before anything is measured, then measures each
// file.Count times (at least once) and writes the artifact: file's
// header completed with the machine's CPU count and GOMAXPROCS, then per
// case its best sample and every sample.
func recordBench(w io.Writer, cases []benchcase.Case, file BenchFile, benchtime time.Duration, progress io.Writer) error {
	file.Count = max(file.Count, 1)
	file.NumCPU = runtime.NumCPU()
	file.GOMAXPROCS = runtime.GOMAXPROCS(0)
	fns := make([]benchcase.Func, len(cases))
	for i, c := range cases {
		fn, err := c.Prepare()
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		fns[i] = fn
	}
	for i, c := range cases {
		best := BenchResult{}
		var samples []BenchSample
		for s := 0; s < file.Count; s++ {
			r, err := measure(c, fns[i], benchtime)
			if err != nil {
				return err
			}
			samples = append(samples, BenchSample{Iters: r.Iters, NsPerOp: r.NsPerOp, BytesPerOp: r.BytesPerOp, AllocsPerOp: r.AllocsPerOp})
			if best.Iters == 0 || r.NsPerOp < best.NsPerOp {
				best = r
			}
		}
		best.Samples = samples
		if progress != nil {
			fmt.Fprintf(progress, "%-18s %12.0f ns/op  %8d allocs/op\n", c.Name, best.NsPerOp, best.AllocsPerOp)
		}
		file.Benchmarks = append(file.Benchmarks, best)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(file)
}

// CompareFile is the machine-readable output of -bench-compare: the
// recorded speedup (or regression) of new over old.
type CompareFile struct {
	Schema       int     `json:"schema"`
	BaselineRef  string  `json:"baseline_ref"`
	NewRef       string  `json:"new_ref"`
	GeomeanRatio float64 `json:"geomean_ratio"` // new/old ns per op; <1 is faster
	MaxRegress   float64 `json:"max_regress"`

	// The artifacts each side pooled, in the order given, which is the
	// order scripts/bench.sh ran them in.
	BaselineInputs []string `json:"baseline_inputs,omitempty"`
	NewInputs      []string `json:"new_inputs,omitempty"`

	// The allocation gate, alongside the time gate: geomean new/old
	// B/op over the benchmarks where both artifacts recorded a positive
	// byte count (a legitimate zero cannot enter a geometric mean).
	// Zero when no benchmark qualified — the bytes gate then passes
	// vacuously rather than failing a comparison ns/op already covers.
	GeomeanBytesRatio float64 `json:"geomean_bytes_ratio,omitempty"`
	MaxRegressBytes   float64 `json:"max_regress_bytes"`

	// Dropped lists benchmarks excluded from the geomean, with the
	// reason: missing from the new side, or a non-positive/non-finite
	// ns/op that would poison the ratio. New lists the benchmarks only
	// the new side has, also outside the geomean. The gate compares the
	// intersection only, but never silently.
	Dropped []string `json:"dropped,omitempty"`
	New     []string `json:"new,omitempty"`

	Benchmarks []CompareResult `json:"benchmarks"`
}

// CompareResult is one benchmark's old-vs-new comparison.
type CompareResult struct {
	Name    string  `json:"name"`
	OldNs   float64 `json:"old_ns_per_op"`
	NewNs   float64 `json:"new_ns_per_op"`
	Ratio   float64 `json:"ratio"`   // new/old
	Speedup float64 `json:"speedup"` // old/new
	// Bytes per op on each side; BytesRatio is 0 (not in the bytes
	// geomean) unless both sides are positive.
	OldBytes   int64   `json:"old_bytes_per_op,omitempty"`
	NewBytes   int64   `json:"new_bytes_per_op,omitempty"`
	BytesRatio float64 `json:"bytes_ratio,omitempty"`
}

func loadBenchFile(path string) (*BenchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f BenchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != benchSchema {
		return nil, fmt.Errorf("%s: unsupported bench schema %d", path, f.Schema)
	}
	return &f, nil
}

// usableNs reports whether an ns/op sample can participate in a
// geometric mean: positive and finite. A zero, negative, NaN or Inf
// entry (a hand-edited or truncated artifact) would otherwise skew the
// ratio — log(NaN) poisons the whole geomean silently.
func usableNs(ns float64) bool {
	return ns > 0 && !math.IsInf(ns, 0) && !math.IsNaN(ns)
}

// loadSide reads a comma-separated list of artifacts and pools them
// into one: each benchmark keeps its fastest result across the list.
// Artifacts measured at another scale, benchtime or gate width are not
// samples of one measurement, so a list that mixes them is refused.
func loadSide(list string) (*BenchFile, error) {
	var pooled *BenchFile
	at := map[string]int{}
	for _, path := range strings.Split(list, ",") {
		f, err := loadBenchFile(path)
		if err != nil {
			return nil, err
		}
		if pooled == nil {
			pooled = &BenchFile{Ref: f.Ref, Scale: f.Scale, BenchtimeMS: f.BenchtimeMS, Jobs: f.Jobs}
		} else if f.Scale != pooled.Scale || f.BenchtimeMS != pooled.BenchtimeMS || f.Jobs != pooled.Jobs {
			return nil, fmt.Errorf("%s (scale %g, benchtime %dms, jobs %d) cannot pool with %s (scale %g, benchtime %dms, jobs %d)",
				path, f.Scale, f.BenchtimeMS, f.Jobs, list, pooled.Scale, pooled.BenchtimeMS, pooled.Jobs)
		}
		for _, b := range f.Benchmarks {
			i, seen := at[b.Name]
			switch {
			case !seen:
				at[b.Name] = len(pooled.Benchmarks)
				pooled.Benchmarks = append(pooled.Benchmarks, b)
			case b.NsPerOp < pooled.Benchmarks[i].NsPerOp:
				pooled.Benchmarks[i] = b
			}
		}
	}
	return pooled, nil
}

// compareBench diffs two sides, each a comma-separated list of bench
// files pooled by loadSide, over the intersection of their benchmarks
// and returns the comparison. Benchmarks present on only one side, or
// carrying unusable ns/op values, are excluded from the geomean and
// reported by name, in New if only the new side has them and in
// Dropped otherwise — a mismatched set narrows the comparison, visibly,
// instead of skewing or crashing it.
func compareBench(oldList, newList string, maxRegress, maxRegressBytes float64) (*CompareFile, error) {
	oldF, err := loadSide(oldList)
	if err != nil {
		return nil, err
	}
	newF, err := loadSide(newList)
	if err != nil {
		return nil, err
	}
	oldBy := make(map[string]BenchResult, len(oldF.Benchmarks))
	for _, b := range oldF.Benchmarks {
		oldBy[b.Name] = b
	}
	cmp := &CompareFile{
		Schema:          benchSchema,
		BaselineRef:     oldF.Ref,
		NewRef:          newF.Ref,
		BaselineInputs:  strings.Split(oldList, ","),
		NewInputs:       strings.Split(newList, ","),
		MaxRegress:      maxRegress,
		MaxRegressBytes: maxRegressBytes,
	}
	newNames := make(map[string]bool, len(newF.Benchmarks))
	var logSum, bytesLogSum float64
	var bytesN int
	for _, nb := range newF.Benchmarks {
		newNames[nb.Name] = true
		ob, ok := oldBy[nb.Name]
		switch {
		case !ok:
			cmp.New = append(cmp.New, nb.Name)
			continue
		case !usableNs(ob.NsPerOp) || !usableNs(nb.NsPerOp):
			cmp.Dropped = append(cmp.Dropped, fmt.Sprintf("%s (unusable ns/op: old %v, new %v)", nb.Name, ob.NsPerOp, nb.NsPerOp))
			continue
		}
		ratio := nb.NsPerOp / ob.NsPerOp
		res := CompareResult{
			Name: nb.Name, OldNs: ob.NsPerOp, NewNs: nb.NsPerOp,
			Ratio: ratio, Speedup: 1 / ratio,
			OldBytes: ob.BytesPerOp, NewBytes: nb.BytesPerOp,
		}
		if ob.BytesPerOp > 0 && nb.BytesPerOp > 0 {
			res.BytesRatio = float64(nb.BytesPerOp) / float64(ob.BytesPerOp)
			bytesLogSum += math.Log(res.BytesRatio)
			bytesN++
		}
		cmp.Benchmarks = append(cmp.Benchmarks, res)
		logSum += math.Log(ratio)
	}
	for _, ob := range oldF.Benchmarks {
		if !newNames[ob.Name] {
			cmp.Dropped = append(cmp.Dropped, ob.Name+" (missing from "+newList+")")
		}
	}
	sort.Strings(cmp.Dropped)
	sort.Strings(cmp.New)
	if len(cmp.Benchmarks) == 0 {
		return nil, fmt.Errorf("no common comparable benchmarks between %s and %s (%d dropped)", oldList, newList, len(cmp.Dropped))
	}
	sort.Slice(cmp.Benchmarks, func(i, j int) bool { return cmp.Benchmarks[i].Name < cmp.Benchmarks[j].Name })
	cmp.GeomeanRatio = math.Exp(logSum / float64(len(cmp.Benchmarks)))
	if bytesN > 0 {
		cmp.GeomeanBytesRatio = math.Exp(bytesLogSum / float64(bytesN))
	}
	return cmp, nil
}

// runBenchCompare prints the comparison table and applies the ns/op and
// B/op gates. oldList and newList are comma-separated artifact lists.
func runBenchCompare(w io.Writer, oldList, newList, outPath string, maxRegress, maxRegressBytes float64) error {
	cmp, err := compareBench(oldList, newList, maxRegress, maxRegressBytes)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-22s %14s %14s %9s %12s %12s\n", "benchmark", "old ns/op", "new ns/op", "speedup", "old B/op", "new B/op")
	for _, b := range cmp.Benchmarks {
		fmt.Fprintf(w, "%-22s %14.0f %14.0f %8.2fx %12d %12d\n", b.Name, b.OldNs, b.NewNs, b.Speedup, b.OldBytes, b.NewBytes)
	}
	for _, d := range cmp.Dropped {
		fmt.Fprintf(w, "dropped: %s\n", d)
	}
	for _, n := range cmp.New {
		fmt.Fprintf(w, "new: %s\n", n)
	}
	fmt.Fprintf(w, "\ngeomean over %d benchmark(s): %.3fx speedup (ratio %.3f, gate: ratio <= %.3f)\n",
		len(cmp.Benchmarks), 1/cmp.GeomeanRatio, cmp.GeomeanRatio, 1+maxRegress)
	if cmp.GeomeanBytesRatio > 0 {
		fmt.Fprintf(w, "geomean B/op ratio: %.3f (gate: ratio <= %.3f)\n", cmp.GeomeanBytesRatio, 1+maxRegressBytes)
	}
	if outPath != "" {
		data, err := json.MarshalIndent(cmp, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if cmp.GeomeanRatio > 1+maxRegress {
		return fmt.Errorf("benchmark regression: geomean ns/op ratio %.3f exceeds gate %.3f (baseline %s)",
			cmp.GeomeanRatio, 1+maxRegress, oldList)
	}
	if cmp.GeomeanBytesRatio > 1+maxRegressBytes {
		return fmt.Errorf("allocation regression: geomean B/op ratio %.3f exceeds gate %.3f (baseline %s)",
			cmp.GeomeanBytesRatio, 1+maxRegressBytes, oldList)
	}
	return nil
}
