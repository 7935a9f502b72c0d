package main

// Benchmark-artifact mode: mtvbench doubles as a reproducible perf
// harness. -bench-json measures every experiment regeneration plus the
// raw engine throughput and emits a machine-readable BENCH_<ref>.json;
// -bench-compare diffs two such files and enforces a geomean ns/op
// regression gate. scripts/bench.sh and the CI bench job drive both.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"mtvec"
	"mtvec/internal/prog"
	"mtvec/internal/store"
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

// benchCase is one measurable unit: fn runs a single iteration and
// returns the simulated cycles it covered (0 if not an engine case), or
// for a perInst case the dynamic instructions it expanded.
type benchCase struct {
	name    string
	fn      func() (int64, error)
	perInst bool
}

// benchCases builds the suite: one case per registered experiment (fresh
// environment per iteration, mirroring the repository's testing.B suite)
// plus the raw engine throughput cases. jobs is the session gate width
// the sweep cases run under: 1 measures work per core, >1 additionally
// measures points running side by side. The caller runs cleanup once
// done with the cases; it removes the store cases' temp directory.
func benchCases(scale float64, jobs int) (cases []benchCase, cleanup func(), err error) {
	for _, e := range mtvec.Experiments() {
		exp := e
		cases = append(cases, benchCase{
			name: exp.ID,
			fn: func() (int64, error) {
				env := mtvec.NewEnv(scale)
				res, err := exp.Run(env)
				if err != nil {
					return 0, err
				}
				if len(res.Tables) == 0 {
					return 0, fmt.Errorf("%s: empty result", exp.ID)
				}
				return 0, nil
			},
		})
	}

	var suite []*mtvec.Workload
	for _, spec := range mtvec.QueueOrder() {
		w, err := spec.Build(scale)
		if err != nil {
			return nil, nil, err
		}
		suite = append(suite, w)
	}
	// The queue cases simulate on every call: a memo-less session never
	// answers a repeat from its cache.
	ses := mtvec.NewSession(mtvec.WithoutMemo())
	engine := func(contexts int, stepped bool) func() (int64, error) {
		return func() (int64, error) {
			cfg := mtvec.DefaultConfig()
			cfg.Contexts = contexts
			cfg.DisableFastForward = stepped
			rep, err := ses.Run(context.Background(), mtvec.Queue(suite, mtvec.WithConfig(cfg)))
			if err != nil {
				return 0, err
			}
			return rep.Cycles, nil
		}
	}
	// engine/reference-stepped is engine/reference cycle by cycle, with
	// the all-blocked clock skip off: it prices fast-forward, and the
	// lone-context loop's per-cycle cost on its own.
	cases = append(cases,
		benchCase{name: "engine/reference", fn: engine(1, false)},
		benchCase{name: "engine/reference-stepped", fn: engine(1, true)},
		benchCase{name: "engine/4threads", fn: engine(4, false)},
	)

	// Solo points on a 4-context machine under every policy: the traffic
	// a cold sweep serves, where the decode unit never has a choice of
	// thread (docs/PERF.md, "A lone thread is not scheduled").
	cases = append(cases, benchCase{
		name: "engine/solo-policies",
		fn: func() (int64, error) {
			var cycles int64
			for _, name := range mtvec.PolicyNames() {
				cfg := mtvec.DefaultConfig()
				cfg.Contexts = 4
				cfg.Policy = mtvec.PolicyByName(name)
				for _, w := range suite {
					m, err := mtvec.NewMachine(cfg)
					if err != nil {
						return 0, err
					}
					if err := m.SetThreadStream(0, w.Spec.Short, w.Stream()); err != nil {
						return 0, err
					}
					rep, err := m.Run(mtvec.Stop{})
					if err != nil {
						return 0, err
					}
					cycles += rep.Cycles
				}
			}
			return cycles, nil
		},
	})

	// The predecode cache (docs/PERF.md, "Predecoded replay"): the ten
	// Table 3 traces expanded by prog.DecodeAllVL at the exact capacity
	// Trace.Decoded allocates. B/op is the cache's size, so the bytes
	// gate guards the predecoded entry's layout.
	decodeHints := make([]int64, len(suite))
	for i, w := range suite {
		decodeHints[i] = int64(len(w.Trace.Decoded()))
	}
	cases = append(cases, benchCase{
		name:    "prog/predecode",
		perInst: true,
		fn: func() (int64, error) {
			var insts int64
			for i, w := range suite {
				dec, err := prog.DecodeAllVL(w.Trace.Prog, w.Trace.Source(), decodeHints[i], w.Trace.MaxVL)
				if err != nil {
					return 0, err
				}
				insts += int64(len(dec))
			}
			return insts, nil
		},
	})

	// The vectorizable benchmark suite (docs/BENCHMARKS.md): all seven
	// kernels drained through a 4-context job queue, and the mtvrvv text
	// frontend importing one exported kernel per iteration.
	var bench []*mtvec.Workload
	for _, spec := range mtvec.BenchWorkloads() {
		w, err := spec.Build(scale)
		if err != nil {
			return nil, nil, err
		}
		bench = append(bench, w)
	}
	cases = append(cases, benchCase{
		name: "benchsuite/queue4",
		fn: func() (int64, error) {
			cfg := mtvec.DefaultConfig()
			cfg.Contexts = 4
			rep, err := ses.Run(context.Background(), mtvec.Queue(bench, mtvec.WithConfig(cfg)))
			if err != nil {
				return 0, err
			}
			return rep.Cycles, nil
		},
	})
	var rvv bytes.Buffer
	if err := mtvec.ExportRVVTrace(&rvv, bench[0].Trace); err != nil {
		return nil, nil, err
	}
	rvvText := rvv.Bytes()
	cases = append(cases, benchCase{
		name: "trace/import-rvv",
		fn: func() (int64, error) {
			if _, err := mtvec.ImportRVVTrace(bytes.NewReader(rvvText)); err != nil {
				return 0, err
			}
			return 0, nil
		},
	})

	// Per-run API overhead, mirroring the testing.B suite: the direct
	// machine path, a memo-less Session, and the memoized cache hit.
	solo, err := mtvec.WorkloadByShort("tf").Build(scale)
	if err != nil {
		return nil, nil, err
	}
	cases = append(cases, benchCase{
		name: "machine/direct",
		fn: func() (int64, error) {
			m, err := mtvec.NewMachine(mtvec.DefaultConfig())
			if err != nil {
				return 0, err
			}
			if err := m.SetThreadStream(0, solo.Spec.Short, solo.Stream()); err != nil {
				return 0, err
			}
			rep, err := m.Run(mtvec.Stop{})
			if err != nil {
				return 0, err
			}
			return rep.Cycles, nil
		},
	})
	plain := mtvec.NewSession(mtvec.WithoutMemo())
	memo := mtvec.NewSession()
	ctx := context.Background()
	sessionCase := func(name string, ses *mtvec.Session, simulates bool) benchCase {
		return benchCase{
			name: name,
			fn: func() (int64, error) {
				rep, err := ses.Run(ctx, mtvec.Solo(solo))
				if err != nil {
					return 0, err
				}
				if !simulates {
					return 0, nil // cache hit: no cycles simulated
				}
				return rep.Cycles, nil
			},
		}
	}
	cases = append(cases,
		sessionCase("session/run", plain, true),
		sessionCase("session/memoized", memo, false),
	)

	// Sweeps: the same memo-missed eight-point latency sweep over one
	// compiled kernel, under the -bench-jobs gate width. Each sweep wraps
	// the kernel in a fresh workload, whose points share one synthesized
	// and predecoded trace (docs/PERF.md, "Sweeps run point by point").
	sweepKernel, err := compileSweepKernel()
	if err != nil {
		return nil, nil, err
	}
	sweepSched := []mtvec.Invocation{
		{Unit: 1, N: 1 << 14},
		{Unit: 0, N: 1 << 14},
		{Unit: 1, N: 1 << 14},
	}
	runSweep := func(specs []mtvec.RunSpec) (int64, error) {
		ses := mtvec.NewSession(mtvec.WithJobs(jobs))
		reps, err := ses.RunAll(ctx, specs...)
		if err != nil {
			return 0, err
		}
		var cycles int64
		for _, rep := range reps {
			cycles += rep.Cycles
		}
		return cycles, nil
	}
	cases = append(cases, benchCase{
		name: "sweep/perpoint",
		fn: func() (int64, error) {
			w, err := mtvec.CompiledWorkload(sweepKernel, sweepSched)
			if err != nil {
				return 0, err
			}
			specs := make([]mtvec.RunSpec, 8)
			for k := range specs {
				specs[k] = mtvec.Solo(w, mtvec.WithMemLatency(30+10*k))
			}
			return runSweep(specs)
		},
	})

	// Long-vector sweep: the gemm and spmv bench-suite supplies are
	// simulation-dominated (high cycles per instruction) — the opposite
	// corner from the scalar-heavy daxpy-setup sweep above. Two supplies
	// of four latency points each.
	var gemmW, spmvW *mtvec.Workload
	for i, spec := range mtvec.BenchWorkloads() {
		switch spec.Short {
		case "gm":
			gemmW = bench[i]
		case "sp":
			spmvW = bench[i]
		}
	}
	if gemmW == nil || spmvW == nil {
		return nil, nil, fmt.Errorf("bench suite is missing the gemm or spmv workload")
	}
	cases = append(cases, benchCase{
		name: "sweep/longvec-perpoint",
		fn: func() (int64, error) {
			var specs []mtvec.RunSpec
			for _, w := range []*mtvec.Workload{gemmW, spmvW} {
				for k := 0; k < 4; k++ {
					specs = append(specs, mtvec.Solo(w, mtvec.WithMemLatency(30+30*k)))
				}
			}
			return runSweep(specs)
		},
	})

	// Store records (docs/PERF.md, "Store records"). store/record runs a
	// real record, the solo point above under its persist key, through
	// EncodeRecord and DecodeRecord. store/claim is a cold sweep point's
	// store traffic for a fresh key on a temp directory: Get's miss,
	// TryLock, Put and the release. It then deletes the record, so every
	// iteration meets a directory of the same size.
	recKey, ok := plain.PersistKey(mtvec.Solo(solo))
	if !ok {
		return nil, nil, fmt.Errorf("the solo point has no persist key")
	}
	recRep, err := plain.Run(ctx, mtvec.Solo(solo))
	if err != nil {
		return nil, nil, err
	}
	claimDir, err := os.MkdirTemp("", "mtvbench-store-")
	if err != nil {
		return nil, nil, err
	}
	claimStore, err := store.Open(claimDir)
	if err != nil {
		os.RemoveAll(claimDir)
		return nil, nil, err
	}
	claimSeq := 0
	cases = append(cases,
		benchCase{
			name: "store/record",
			fn: func() (int64, error) {
				data, err := store.EncodeRecord(recKey, recRep)
				if err != nil {
					return 0, err
				}
				_, err = store.DecodeRecord(data, recKey)
				return 0, err
			},
		},
		benchCase{
			name: "store/claim",
			fn: func() (int64, error) {
				claimSeq++
				key := recKey + "|claim=" + strconv.Itoa(claimSeq)
				if _, tier := claimStore.Get(key); tier.Hit() {
					return 0, fmt.Errorf("fresh key %d hit", claimSeq)
				}
				release := claimStore.TryLock(key)
				if release == nil {
					return 0, fmt.Errorf("fresh key %d is locked", claimSeq)
				}
				err := claimStore.Put(key, recRep)
				release()
				if err != nil {
					return 0, err
				}
				// The record's path is the store's documented layout,
				// <dir>/v1/<hh>/<sha256 of the key>.json.
				sum := sha256.Sum256([]byte(key))
				name := hex.EncodeToString(sum[:])
				return 0, os.Remove(filepath.Join(claimDir, "v1", name[:2], name+".json"))
			},
		},
	)
	return cases, func() { os.RemoveAll(claimDir) }, nil
}

// compileSweepKernel builds the daxpy-plus-setup kernel the sweep case
// runs, mirroring the repository's BenchmarkCompiledSweep.
func compileSweepKernel() (*mtvec.Compiled, error) {
	x := &mtvec.Array{Name: "x", Base: 0x10000, Stride: 8}
	y := &mtvec.Array{Name: "y", Base: 0x20000, Stride: 8}
	kern := &mtvec.Kernel{Name: "daxpy-setup"}
	kern.Units = append(kern.Units,
		&mtvec.VectorLoop{
			Name: "daxpy",
			Body: []mtvec.Stmt{{
				Dst: y,
				E: &mtvec.Bin{Op: mtvec.Add,
					L: &mtvec.Bin{Op: mtvec.Mul, L: &mtvec.ScalarArg{Name: "a"}, R: &mtvec.Ref{Arr: x}},
					R: &mtvec.Ref{Arr: y}},
			}},
		},
		&mtvec.ScalarLoop{Name: "setup", Loads: 2, Stores: 1, IntOps: 3, FPOps: 1},
	)
	return mtvec.CompileKernel(kern)
}

// measure runs one case for at least benchtime and returns its stats.
func measure(c benchCase, benchtime time.Duration) (BenchResult, error) {
	if _, err := c.fn(); err != nil { // warm-up + error check
		return BenchResult{}, fmt.Errorf("%s: %w", c.name, err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var iters, work int64
	start := time.Now()
	for iters == 0 || time.Since(start) < benchtime {
		n, err := c.fn()
		if err != nil {
			return BenchResult{}, fmt.Errorf("%s: %w", c.name, err)
		}
		work += n
		iters++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	res := BenchResult{
		Name:        c.name,
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		BytesPerOp:  int64(ms1.TotalAlloc-ms0.TotalAlloc) / iters,
		AllocsPerOp: int64(ms1.Mallocs-ms0.Mallocs) / iters,
	}
	switch {
	case work > 0 && c.perInst:
		res.NsPerInst = float64(elapsed.Nanoseconds()) / float64(work)
	case work > 0:
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
	cases, cleanup, err := benchCases(scale, jobs)
	if err != nil {
		return err
	}
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

// recordBench measures each case file.Count times (at least once) and
// writes the artifact: file's header completed with the machine's CPU
// count and GOMAXPROCS, then per case its best sample and every sample.
func recordBench(w io.Writer, cases []benchCase, file BenchFile, benchtime time.Duration, progress io.Writer) error {
	file.Count = max(file.Count, 1)
	file.NumCPU = runtime.NumCPU()
	file.GOMAXPROCS = runtime.GOMAXPROCS(0)
	for _, c := range cases {
		best := BenchResult{}
		var samples []BenchSample
		for s := 0; s < file.Count; s++ {
			r, err := measure(c, benchtime)
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
			fmt.Fprintf(progress, "%-18s %12.0f ns/op  %8d allocs/op\n", c.name, best.NsPerOp, best.AllocsPerOp)
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

	// The allocation gate, alongside the time gate: geomean new/old
	// B/op over the benchmarks where both artifacts recorded a positive
	// byte count (a legitimate zero cannot enter a geometric mean).
	// Zero when no benchmark qualified — the bytes gate then passes
	// vacuously rather than failing a comparison ns/op already covers.
	GeomeanBytesRatio float64 `json:"geomean_bytes_ratio,omitempty"`
	MaxRegressBytes   float64 `json:"max_regress_bytes"`

	// Dropped lists benchmarks excluded from the geomean, with the
	// reason: present in only one artifact, or a non-positive/non-finite
	// ns/op that would poison the ratio. The gate compares the
	// intersection only, but never silently.
	Dropped []string `json:"dropped,omitempty"`

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

// compareBench diffs two bench files over the intersection of their
// benchmarks and returns the comparison plus an error when the geomean
// ns/op regression exceeds maxRegress. Benchmarks present in only one
// artifact, or carrying unusable ns/op values, are excluded from the
// geomean and reported by name in Dropped — a mismatched set narrows
// the comparison, visibly, instead of skewing or crashing it.
func compareBench(oldPath, newPath string, maxRegress, maxRegressBytes float64) (*CompareFile, error) {
	oldF, err := loadBenchFile(oldPath)
	if err != nil {
		return nil, err
	}
	newF, err := loadBenchFile(newPath)
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
			cmp.Dropped = append(cmp.Dropped, nb.Name+" (missing from "+oldPath+")")
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
			cmp.Dropped = append(cmp.Dropped, ob.Name+" (missing from "+newPath+")")
		}
	}
	sort.Strings(cmp.Dropped)
	if len(cmp.Benchmarks) == 0 {
		return nil, fmt.Errorf("no common comparable benchmarks between %s and %s (%d dropped)", oldPath, newPath, len(cmp.Dropped))
	}
	sort.Slice(cmp.Benchmarks, func(i, j int) bool { return cmp.Benchmarks[i].Name < cmp.Benchmarks[j].Name })
	cmp.GeomeanRatio = math.Exp(logSum / float64(len(cmp.Benchmarks)))
	if bytesN > 0 {
		cmp.GeomeanBytesRatio = math.Exp(bytesLogSum / float64(bytesN))
	}
	return cmp, nil
}

// runBenchCompare prints the comparison table and applies the ns/op and
// B/op gates.
func runBenchCompare(w io.Writer, oldPath, newPath, outPath string, maxRegress, maxRegressBytes float64) error {
	cmp, err := compareBench(oldPath, newPath, maxRegress, maxRegressBytes)
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
			cmp.GeomeanRatio, 1+maxRegress, oldPath)
	}
	if cmp.GeomeanBytesRatio > 1+maxRegressBytes {
		return fmt.Errorf("allocation regression: geomean B/op ratio %.3f exceeds gate %.3f (baseline %s)",
			cmp.GeomeanBytesRatio, 1+maxRegressBytes, oldPath)
	}
	return nil
}
