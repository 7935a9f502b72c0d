// Benchmark harness: one testing.B benchmark per paper table and figure
// (plus the extension studies), each regenerating the artifact end to end
// on a fresh environment. Run with:
//
//	go test -bench=. -benchmem
//
// The default bench scale (3e-5 of Table 3's millions) keeps a full pass
// fast; set MTVEC_BENCH_SCALE to trade time for fidelity, e.g.:
//
//	MTVEC_BENCH_SCALE=1e-3 go test -bench=Fig10 -benchtime=1x
//
// cmd/mtvbench is the front-end that prints the reproduced rows/series at
// full reproduction scale.
package mtvec_test

import (
	"context"
	"fmt"
	"os"
	"testing"

	"mtvec"
)

// The bench scale is resolved and validated exactly once, in TestMain, so
// a bad MTVEC_BENCH_SCALE fails the whole run up front instead of
// surfacing per benchmark at bench runtime.
var benchScaleValue float64

func TestMain(m *testing.M) {
	v, err := mtvec.BenchScale()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	benchScaleValue = v
	os.Exit(m.Run())
}

func benchScale(b *testing.B) float64 {
	b.Helper()
	return benchScaleValue
}

// benchExperiment regenerates one experiment per iteration on a fresh
// (un-memoized) environment.
func benchExperiment(b *testing.B, id string) {
	scale := benchScale(b)
	exp := mtvec.ExperimentByID(id)
	if exp == nil {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := mtvec.NewEnv(scale)
		res, err := exp.Run(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tables) == 0 {
			b.Fatal("empty result")
		}
	}
}

// Tables.

func BenchmarkTable1Latencies(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2Groupings(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3Counts(b *testing.B)    { benchExperiment(b, "table3") }

// Figures.

func BenchmarkFig4StateBreakdown(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFig5MemIdle(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig6Speedup(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkFig7Occupation(b *testing.B)     { benchExperiment(b, "fig7") }
func BenchmarkFig8VOPC(b *testing.B)           { benchExperiment(b, "fig8") }
func BenchmarkFig9Profile(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkFig10LatencySweep(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11Crossbar(b *testing.B)      { benchExperiment(b, "fig11") }
func BenchmarkFig12DualScalar(b *testing.B)    { benchExperiment(b, "fig12") }

// Extension / ablation studies.

func BenchmarkExtPolicies(b *testing.B) { benchExperiment(b, "ext-policies") }
func BenchmarkExtPorts(b *testing.B)    { benchExperiment(b, "ext-ports") }
func BenchmarkExtBanks(b *testing.B)    { benchExperiment(b, "ext-banks") }
func BenchmarkExtIssue(b *testing.B)    { benchExperiment(b, "ext-issue") }
func BenchmarkExtCompiler(b *testing.B) { benchExperiment(b, "ext-compiler") }

// Engine throughput: simulated cycles per wall-clock second on the
// reference machine and a saturated 4-context machine.

func benchEngine(b *testing.B, contexts int) {
	scale := benchScale(b)
	var suite []*mtvec.Workload
	for _, spec := range mtvec.QueueOrder() {
		w, err := spec.Build(scale)
		if err != nil {
			b.Fatal(err)
		}
		suite = append(suite, w)
	}
	ses := mtvec.NewSession(mtvec.WithoutMemo())
	b.ReportAllocs()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		cfg := mtvec.DefaultConfig()
		cfg.Contexts = contexts
		rep, err := ses.Run(context.Background(), mtvec.Queue(suite, mtvec.WithConfig(cfg)))
		if err != nil {
			b.Fatal(err)
		}
		cycles += rep.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
}

func BenchmarkEngineReference(b *testing.B)   { benchEngine(b, 1) }
func BenchmarkEngineFourThreads(b *testing.B) { benchEngine(b, 4) }

// Session API overhead: the same solo run through the direct machine
// path, through a memo-less Session (spec validation + gate + context
// plumbing per run), and through a memoizing Session (cache-hit path).
// The first two must be within noise of each other — the redesign's
// per-run overhead budget.

func benchSoloWorkload(b *testing.B) *mtvec.Workload {
	b.Helper()
	w, err := mtvec.WorkloadByShort("tf").Build(benchScale(b))
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func BenchmarkDirectMachineRun(b *testing.B) {
	w := benchSoloWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := mtvec.NewMachine(mtvec.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := m.SetThreadStream(0, w.Spec.Short, w.Stream()); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(mtvec.Stop{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionRun(b *testing.B) {
	w := benchSoloWorkload(b)
	ses := mtvec.NewSession(mtvec.WithoutMemo())
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ses.Run(ctx, mtvec.Solo(w)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionRunMemoized(b *testing.B) {
	w := benchSoloWorkload(b)
	ses := mtvec.NewSession()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ses.Run(ctx, mtvec.Solo(w)); err != nil {
			b.Fatal(err)
		}
	}
}

// Compiled sweep: a memo-missed eight-point latency sweep over one
// compiled kernel on a single gate slot, so ns/op is work per core. The
// points share one synthesized and predecoded trace for the call
// (docs/PERF.md, "Sweeps run point by point").

func benchSweepCompiled(b *testing.B) *mtvec.Compiled {
	b.Helper()
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
	c, err := mtvec.CompileKernel(kern)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkCompiledSweep(b *testing.B) {
	c := benchSweepCompiled(b)
	sched := []mtvec.Invocation{
		{Unit: 1, N: 1 << 14},
		{Unit: 0, N: 1 << 14},
		{Unit: 1, N: 1 << 14},
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ses := mtvec.NewSession(mtvec.WithJobs(1))
		w, err := mtvec.CompiledWorkload(c, sched)
		if err != nil {
			b.Fatal(err)
		}
		specs := make([]mtvec.RunSpec, 8)
		for k := range specs {
			specs[k] = mtvec.Solo(w, mtvec.WithMemLatency(30+10*k))
		}
		if _, err := ses.RunAll(ctx, specs...); err != nil {
			b.Fatal(err)
		}
	}
}
