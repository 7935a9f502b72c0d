// Package mtvec is a library reproduction of "Multithreaded Vector
// Architectures" (Espasa & Valero, HPCA-3, 1997): a trace-driven,
// cycle-accurate model of a Convex C3400-class vector processor and its
// multithreaded extension, together with calibrated reconstructions of
// the paper's ten Perfect Club / SPECfp92 benchmarks and a harness that
// regenerates every table and figure of the evaluation.
//
// # Quick start
//
// Build a workload, open a Session, and run it:
//
//	w, _ := mtvec.WorkloadByShort("tf").Build(mtvec.DefaultScale)
//	ses := mtvec.NewSession()
//	rep, _ := ses.Run(ctx, mtvec.Solo(w))
//	fmt.Println(rep.Cycles, rep.MemOccupation())
//
// Multithread it — a grouped run with a restarting companion, on a
// 2-context machine at 80-cycle memory latency:
//
//	spec := mtvec.Group(w, []*mtvec.Workload{companion}, mtvec.WithMemLatency(80))
//	rep2, _ := ses.Run(ctx, spec)
//
// Sessions are concurrency-safe and memoized: identical specs simulate
// exactly once, RunAll fans sweeps out over a bounded worker gate, ctx
// cancellation/deadlines abort cleanly (never a partial Report), and
// observers (WithObserver, WithSpans) stream progress, thread-switch and
// execution-profile events from inside a run.
//
// Define your own kernels with the kernel IR (Array, VectorLoop, ...),
// compile them with CompileKernel, wrap one under an invocation
// schedule with CompiledWorkload, and run it like any workload — Solo,
// Group or Queue; or regenerate the paper's evaluation with Experiments
// and NewEnv.
//
// RunExperiments executes the whole evaluation concurrently: shared
// simulation points are simulated exactly once (Env is a Session-backed
// singleflight cache) and results are byte-identical at any worker count:
//
//	env := mtvec.NewEnv(mtvec.DefaultScale)
//	results, stats, _ := mtvec.RunExperiments(env, mtvec.Experiments(), 0)
//
// The Env holds no context, and a run never changes its jobs bound
// (env.SetJobs, before first use). One experiment runs under the
// context its caller passes, which governs only that call's
// simulations:
//
//	fig10 := []mtvec.Experiment{*mtvec.ExperimentByID("fig10")}
//	res, _, _ := mtvec.RunExperimentsContext(ctx, env, fig10, 0)
//
// Every run goes through a Session; docs/API.md maps the removed
// RunSolo, RunGroup, RunQueue and RunCompiled functions onto specs.
package mtvec

import (
	"context"
	"fmt"
	"io"

	"mtvec/internal/arch"
	"mtvec/internal/core"
	"mtvec/internal/experiments"
	"mtvec/internal/isa"
	"mtvec/internal/kernel"
	"mtvec/internal/memsys"
	"mtvec/internal/prog"
	"mtvec/internal/report"
	"mtvec/internal/runner"
	"mtvec/internal/sched"
	"mtvec/internal/stats"
	"mtvec/internal/trace"
	"mtvec/internal/vcomp"
	"mtvec/internal/workload"
)

// Machine model.
type (
	// Config selects a machine variant (contexts, latencies, memory,
	// policy, dual-scalar mode).
	Config = core.Config
	// Machine is one simulation instance. It runs once; Release then
	// recycles it for a later NewMachine.
	Machine = core.Machine
	// Stop tells Run when to finish.
	Stop = core.Stop
	// JobQueue feeds a fixed job list to any number of contexts.
	JobQueue = core.JobQueue
	// Report carries a run's metrics.
	Report = stats.Report
	// ThreadReport is per-context progress accounting.
	ThreadReport = stats.ThreadReport
	// Span is one Figure 9 execution-profile segment.
	Span = stats.Span
	// LatencyTable is the Table 1 latency set.
	LatencyTable = isa.LatencyTable
	// MemConfig configures the memory subsystem.
	MemConfig = memsys.Config
	// Policy is a thread-switch policy.
	Policy = sched.Policy
	// ArchSpec is a declarative machine shape: register file, FU mix,
	// latencies, memory. Config embeds one; see docs/ARCH.md.
	ArchSpec = arch.Spec
	// RegFile is a vector register file organization (count, length,
	// banking, ports, partitioning).
	RegFile = arch.RegFile
)

// Machine-shape presets (see docs/ARCH.md).

// ArchConvexC3400 returns the reference shape — the paper's machine, and
// the default of every Config and RunSpec.
func ArchConvexC3400() ArchSpec { return arch.ConvexC3400() }

// ArchVP2000 returns the Fujitsu VP2000-style shape of the Section 9
// comparison (large reconfigurable register file, two general pipes).
func ArchVP2000() ArchSpec { return arch.VP2000() }

// ArchCrayLikePorts returns the Section 10 Cray-like variant: short
// single-ported registers over 2-load/1-store memory ports.
func ArchCrayLikePorts() ArchSpec { return arch.CrayLikePorts() }

// ArchPresets returns the named machine shapes, reference first.
func ArchPresets() []ArchSpec { return arch.Presets() }

// ArchByName returns the preset with the given name ("convex-c3400",
// "vp2000", "cray-ports"), or false.
func ArchByName(name string) (ArchSpec, bool) { return arch.ByName(name) }

// DefaultRegFile returns the reference register-file organization: 8
// registers of 128 elements, paired into 4 banks with 2R/1W ports.
func DefaultRegFile() RegFile { return arch.DefaultRegFile() }

// Workloads.
type (
	// Workload is a built benchmark: compiled program, trace, statistics.
	Workload = workload.Workload
	// WorkloadSpec is a benchmark recipe with its Table 3 targets.
	WorkloadSpec = workload.Spec
	// ProgramStats is the dynamic operation accounting (Table 3 columns).
	ProgramStats = prog.Stats
	// Trace is a captured execution (the Dixie-analogue container).
	Trace = trace.Trace
	// Stream is a dynamic instruction stream consumed by machines.
	Stream = prog.Stream
)

// Kernel IR and compiler, for user-defined programs.
type (
	Array      = kernel.Array
	Expr       = kernel.Expr
	Ref        = kernel.Ref
	Gather     = kernel.Gather
	ScalarArg  = kernel.ScalarArg
	Bin        = kernel.Bin
	Un         = kernel.Un
	Stmt       = kernel.Stmt
	VectorLoop = kernel.VectorLoop
	ScalarLoop = kernel.ScalarLoop
	Kernel     = kernel.Kernel
	// Compiled is a kernel lowered to an ISA program plus trace
	// emission metadata.
	Compiled = vcomp.Compiled
	// Invocation requests one loop execution with a trip count.
	Invocation = vcomp.Invocation
)

// Kernel operators.
const (
	Add  = kernel.Add
	Sub  = kernel.Sub
	Mul  = kernel.Mul
	Div  = kernel.Div
	Sqrt = kernel.Sqrt
)

// Experiment harness.
type (
	// Experiment reproduces one paper table/figure or an ablation.
	Experiment = experiments.Experiment
	// ExperimentResult is a reproduced artifact.
	ExperimentResult = experiments.Result
	// Env memoizes workloads and runs across experiments; it is safe
	// for concurrent use and simulates each distinct point exactly once.
	Env = experiments.Env
	// SuiteStats summarizes a RunExperiments execution (wall clock,
	// serial-equivalent busy time, simulation count).
	SuiteStats = experiments.SuiteStats
	// Table is a renderable result grid.
	Table = report.Table
)

// DefaultScale is the standard reproduction scale: Table 3 counts are in
// millions; workloads are built at 1/1000 of them.
const DefaultScale = workload.DefaultScale

// DefaultConfig returns the reference architecture (1 context, 50-cycle
// memory latency, Table 1 latencies).
func DefaultConfig() Config { return core.DefaultConfig() }

// NewMachine builds a machine, reusing one a caller released
// (Machine.Release) when there is one.
func NewMachine(cfg Config) (*Machine, error) { return core.New(cfg) }

// Workloads returns the ten benchmark specs in Table 3 order.
func Workloads() []*WorkloadSpec { return workload.Specs() }

// WorkloadByShort looks a spec up by its two-letter tag (sw, hy, ...).
func WorkloadByShort(short string) *WorkloadSpec { return workload.ByShort(short) }

// WorkloadByName looks a spec up by program name (swm256, ...).
func WorkloadByName(name string) *WorkloadSpec { return workload.ByName(name) }

// QueueOrder returns the Section 7 fixed job order.
func QueueOrder() []*WorkloadSpec { return workload.QueueOrder() }

// BenchWorkloads returns the real vectorizable benchmark suite (axpy,
// dot, gemm, spmv, 1-D/2-D stencils, blackscholes) in catalog order.
// The kernels register through the same catalog as the Table 3
// programs — WorkloadByShort/WorkloadByName resolve them, and sessions
// sweep, memoize, persist and serve them identically. See
// docs/BENCHMARKS.md.
func BenchWorkloads() []*WorkloadSpec { return workload.BenchSpecs() }

// WorkloadFromTrace wraps an externally produced trace (DecodeTrace or
// ImportRVVTrace) as a runnable Workload: replay-validated, profiled,
// memoized per-process, but never store-persisted (an imported trace
// has no content-addressed build recipe). name may be empty to use the
// trace's program name.
func WorkloadFromTrace(name string, t *Trace) (*Workload, error) {
	return workload.FromTrace(name, t)
}

// ExportRVVTrace writes the trace as mtvrvv/1 text — the RVV-flavoured
// exchange format of docs/BENCHMARKS.md — one dynamic instruction per
// line.
func ExportRVVTrace(w io.Writer, t *Trace) error { return trace.ExportRVV(w, t) }

// ImportRVVTrace parses an mtvrvv text trace (hand-written or generated
// by external tooling), lowering LMUL register groups and masked ops
// onto the engine's forms. Malformed inputs are rejected with one
// line-numbered diagnostic per defect, joined.
func ImportRVVTrace(r io.Reader) (*Trace, error) { return trace.ImportRVV(r) }

// PolicyByName returns a thread-switch policy ("unfair", "roundrobin",
// "everycycle", "lru"), or nil.
func PolicyByName(name string) Policy { return sched.ByName(name) }

// PolicyNames lists the available policies.
func PolicyNames() []string { return sched.Names() }

// CompileKernel lowers a kernel to a compiled program.
func CompileKernel(k *Kernel) (*Compiled, error) { return vcomp.Compile(k) }

// CompiledWorkload wraps a compiled kernel under an invocation schedule
// as a runnable Workload: profiled from the schedule, synthesized on its
// first replay, named after the kernel, memoized per-process but never
// store-persisted. A nil kernel or an invalid invocation is an error.
func CompiledWorkload(c *Compiled, schedule []Invocation) (*Workload, error) {
	return workload.FromCompiled(c, schedule)
}

// NewEnv creates an experiment environment at the given scale.
func NewEnv(scale float64) *Env { return experiments.NewEnv(scale) }

// Experiments returns every reproduction experiment in paper order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID returns one experiment ("table3", "fig10", ...), or nil.
func ExperimentByID(id string) *Experiment { return experiments.ByID(id) }

// ExperimentIDs lists the experiment identifiers.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiments executes the experiments on env. Simulations admit
// under the Env's own bound (Env.SetJobs, runtime.NumCPU() unless set),
// which a run never changes; jobs only sizes the orchestration pool
// (jobs <= 0 sizes it from the Env's bound). Shared simulation points
// are run exactly once; results are collected in experiment order and
// are byte-identical for any bound.
func RunExperiments(env *Env, exps []Experiment, jobs int) ([]*ExperimentResult, *SuiteStats, error) {
	return experiments.RunSuite(env, exps, jobs)
}

// RunExperimentsContext is RunExperiments under a context: cancellation
// or deadline expiry aborts in-flight simulations and returns ctx.Err()
// in the joined error; the Env's caches stay reusable afterwards. As
// with RunExperiments, the Env's bound governs, not jobs.
func RunExperimentsContext(ctx context.Context, env *Env, exps []Experiment, jobs int) ([]*ExperimentResult, *SuiteStats, error) {
	return experiments.RunSuiteContext(ctx, env, exps, jobs)
}

// BuildWorkloads builds the named workloads (short tags or program
// names) concurrently on at most jobs workers, preserving input order.
// All names are validated before any build starts.
func BuildWorkloads(tags []string, scale float64, jobs int) ([]*Workload, error) {
	return BuildWorkloadsRegFile(tags, scale, jobs, RegFile{})
}

// BuildWorkloadsRegFile is BuildWorkloads with the compiler targeted at
// the given register-file organization (strip-mining length, register
// count, bank spread). The zero RegFile targets the reference
// organization. Run the results on a machine configured with the same
// organization (WithRegFile or WithArch).
func BuildWorkloadsRegFile(tags []string, scale float64, jobs int, rf RegFile) ([]*Workload, error) {
	specs := make([]*WorkloadSpec, len(tags))
	for i, tag := range tags {
		spec := workload.ByShort(tag)
		if spec == nil {
			spec = workload.ByName(tag)
		}
		if spec == nil {
			return nil, fmt.Errorf("mtvec: unknown program %q", tag)
		}
		specs[i] = spec
	}
	opts := vcomp.Options{RegFile: rf}
	ws := make([]*Workload, len(tags))
	pool := runner.New(jobs)
	err := pool.Map(len(tags), func(i int) error {
		w, err := specs[i].BuildOpts(scale, opts)
		ws[i] = w
		return err
	})
	return ws, err
}

// IdealCycles returns the paper's IDEAL lower bound for a set of
// workloads: the busy time of the most saturated resource with all
// dependences removed.
func IdealCycles(ws ...*Workload) int64 {
	all := make([]prog.Stats, len(ws))
	for i, w := range ws {
		all[i] = w.Stats
	}
	return core.IdealCycles(all...)
}

// RenderResult writes an experiment result as aligned text.
func RenderResult(w io.Writer, res *ExperimentResult) error {
	if _, err := fmt.Fprintf(w, "== %s ==\n", res.Title); err != nil {
		return err
	}
	for _, t := range res.Tables {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	for _, c := range res.Charts {
		if _, err := fmt.Fprintf(w, "\n%s", c); err != nil {
			return err
		}
	}
	for _, n := range res.Notes {
		if _, err := fmt.Fprintf(w, "\nnote: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// RenderResultMarkdown writes an experiment result as markdown.
func RenderResultMarkdown(w io.Writer, res *ExperimentResult) error {
	if _, err := fmt.Fprintf(w, "### %s\n\n", res.Title); err != nil {
		return err
	}
	for _, t := range res.Tables {
		if err := t.Markdown(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for _, c := range res.Charts {
		if _, err := fmt.Fprintf(w, "```\n%s```\n\n", c); err != nil {
			return err
		}
	}
	for _, n := range res.Notes {
		if _, err := fmt.Fprintf(w, "> %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// DynInst is one dynamic instruction of a stream.
type DynInst = isa.DynInst

// TraceStats returns a trace's dynamic statistics and instruction
// count, with the error its replay would end on.
func TraceStats(t *Trace) (ProgramStats, int64, error) {
	st, err := t.Profile()
	return st, st.Insts(), err
}

// EncodeTrace / DecodeTrace expose the Dixie-analogue trace container.
func EncodeTrace(w io.Writer, t *Trace) error { return t.Encode(w) }

// DecodeTrace reads a trace written by EncodeTrace.
func DecodeTrace(r io.Reader) (*Trace, error) { return trace.Decode(r) }
