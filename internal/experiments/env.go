// Package experiments reproduces every table and figure of the paper's
// evaluation (Tables 1-3, Figures 4-12) plus the ablation studies listed
// in DESIGN.md. Each experiment runs against a shared Env that memoizes
// workload builds and simulation runs, because several figures share the
// same underlying data (Figures 6-8 share the grouped runs; Figures 10
// and 12 share the job-queue sweeps).
//
// # Concurrency and determinism
//
// Env is a specialization of the session engine (internal/session): its
// simulation memoization, singleflight sharing and global -jobs bound
// all come from an embedded session.Session, with Env adding only the
// paper-specific vocabulary (workload builds by short tag, reference
// runs, queue sweeps over suites built per compiler option, the Table 2
// grouping enumeration). A simulation point requested by several
// experiments at once is simulated exactly once and the result shared.
// The Env holds no context: each call that may simulate takes the
// context governing it, so concurrent suites on one Env cancel only
// their own runs. Each experiment states what it reads as data
// (Experiment.Inputs: workload builds, reference runs, queue runs and
// the grouped set), and Run renders from the same memoized methods.
// RunSuite resolves every experiment's inputs on a worker pool, then
// runs the renders, and collects results in registry order. The
// suite's concurrency bound is the Env's own (SetJobs, set by the
// Env's creator before first use); a suite never changes it. Because
// each simulation is a pure function of its (workload, config) key,
// the rendered output is byte-identical for any worker count,
// including 1.
package experiments

import (
	"context"
	"fmt"
	"time"

	"mtvec/internal/arch"
	"mtvec/internal/prog"
	"mtvec/internal/runner"
	"mtvec/internal/session"
	"mtvec/internal/stats"
	"mtvec/internal/store"
	"mtvec/internal/vcomp"
	"mtvec/internal/workload"
)

// Env caches workloads and simulation results for one reproduction scale.
// All methods are safe for concurrent use; each distinct simulation runs
// exactly once per Env regardless of how many goroutines request it.
// Cancelling the context a method takes aborts that call's runs with
// ctx.Err() without poisoning the memo caches.
type Env struct {
	Scale float64

	// ses owns the run memoization and the global -jobs gate; every
	// simulation and workload build admits through it.
	ses *session.Session

	workloads runner.Cache[string, *workload.Workload]
	suites    runner.Cache[suiteKey, []*workload.Workload]
	grouped   runner.Cache[struct{}, []GroupedRun]
}

// NewEnv creates an environment at the given workload scale. Internal
// sweeps (GroupedRuns) parallelize over runtime.NumCPU() workers; use
// SetJobs to change that.
func NewEnv(scale float64) *Env {
	return &Env{Scale: scale, ses: session.New()}
}

// Session exposes the run engine the Env specializes, for callers that
// want to mix bespoke RunSpecs with the paper's memoized sweeps.
func (e *Env) Session() *session.Session { return e.ses }

// SetStore attaches a persistent result backend to the Env's session:
// simulation points some earlier process already ran are served from
// it, and fresh ones are written through — a warm store regenerates
// the whole evaluation with zero simulations.
// Workload builds are not persisted (they are cheap relative to runs
// and carry unexported state); only run Reports are.
func (e *Env) SetStore(st store.Backend) { e.ses.SetStore(st) }

// StoreHits returns how many runs the Env served from the persistent
// store.
func (e *Env) StoreHits() int64 { return e.ses.StoreHits() }

// SetJobs bounds how many simulations (and workload builds) may execute
// concurrently; n <= 0 selects runtime.NumCPU(). Results do not depend
// on the setting.
func (e *Env) SetJobs(n int) { e.ses.SetJobs(n) }

// Jobs returns the Env's simulation concurrency bound.
func (e *Env) Jobs() int { return e.ses.Jobs() }

// Simulations returns how many machine runs this Env has executed (cache
// misses, not requests) — the quantity the memoization exists to bound.
func (e *Env) Simulations() int64 { return e.ses.Simulations() }

// BusyTime returns the cumulative wall time spent inside simulations and
// workload builds — the serial-equivalent cost of the Env's work.
func (e *Env) BusyTime() time.Duration { return e.ses.Busy() }

// W builds (once) and returns the workload with the given short tag. A
// build is short and memoized, so it is not cancellable.
func (e *Env) W(short string) (*workload.Workload, error) {
	return e.workloads.Do(short, func() (w *workload.Workload, err error) {
		spec := workload.ByShort(short)
		if spec == nil {
			return nil, fmt.Errorf("experiments: unknown workload %q", short)
		}
		e.ses.Do(func() { w, err = spec.Build(e.Scale) })
		return w, err
	})
}

// RefReport runs (once) the program alone on the reference architecture.
func (e *Env) RefReport(ctx context.Context, short string, latency int) (*stats.Report, error) {
	w, err := e.W(short)
	if err != nil {
		return nil, err
	}
	rep, err := e.ses.Run(ctx, session.Solo(w, session.WithMemLatency(latency)))
	if err != nil {
		return nil, fmt.Errorf("experiments: reference run of %s: %w", short, err)
	}
	return rep, nil
}

// RefCycles is the reference execution time C_i of Section 4.1.
func (e *Env) RefCycles(ctx context.Context, short string, latency int) (int64, error) {
	r, err := e.RefReport(ctx, short, latency)
	if err != nil {
		return 0, err
	}
	return r.Cycles, nil
}

// RefPartialCycles is F_i of Section 4.1: reference cycles to reach the
// given dynamic-instruction index.
func (e *Env) RefPartialCycles(ctx context.Context, short string, latency int, insts int64) (int64, error) {
	if insts <= 0 {
		return 0, nil
	}
	w, err := e.W(short)
	if err != nil {
		return 0, err
	}
	rep, err := e.ses.Run(ctx, session.Solo(w,
		session.WithMemLatency(latency), session.WithMaxThread0Insts(insts)))
	if err != nil {
		return 0, fmt.Errorf("experiments: partial reference run of %s: %w", short, err)
	}
	return rep.Cycles, nil
}

// QueueSpec selects one Section 7 job-queue run: all ten programs in the
// paper's fixed order, threads pulling the next job as they finish.
type QueueSpec struct {
	Contexts   int
	Latency    int
	Xbar       int // read/write crossbar latency (Section 8; default 2)
	DualScalar bool
	Policy     string // "" = unfair
	IssueWidth int    // 0 -> 1

	LoadPorts  int // Cray-like extension ports (0 for the paper machine)
	StorePorts int
	Banks      int // banked-memory extension (0 = conflict-free)
	BankBusy   int

	// RegFile selects a vector register file organization for both the
	// machine and the workload build (the suite is recompiled per
	// distinct compiler-visible organization). Zero is the reference
	// organization and shares the default suite.
	RegFile arch.RegFile

	// Partition runs the Section 8 register-splitting alternative: the
	// machine holds one physical file of Contexts x RegFile.VRegs
	// registers split evenly, instead of replicating RegFile per
	// context. RegFile describes what each context sees (and what the
	// suite is compiled for).
	Partition bool

	RecordSpans bool
}

// options translates the QueueSpec into the session's machine options.
func (s QueueSpec) options() []session.Option {
	opts := []session.Option{
		session.WithContexts(s.Contexts),
		session.WithMemLatency(s.Latency),
	}
	if s.Xbar > 0 {
		opts = append(opts, session.WithXbar(s.Xbar))
	}
	if s.DualScalar {
		opts = append(opts, session.WithDualScalar(true))
	}
	if s.Policy != "" {
		opts = append(opts, session.WithPolicy(s.Policy))
	}
	if s.IssueWidth > 0 {
		opts = append(opts, session.WithIssueWidth(s.IssueWidth))
	}
	if s.LoadPorts > 0 || s.StorePorts > 0 {
		opts = append(opts, session.WithMemPorts(s.LoadPorts, s.StorePorts))
	}
	if s.Banks > 0 {
		opts = append(opts, session.WithMemBanks(s.Banks, s.BankBusy))
	}
	if !s.RegFile.IsZero() || s.Partition {
		rf := s.RegFile.Normalize()
		if s.Partition {
			// The machine's physical file pools every context's share;
			// each context still sees rf.VRegs registers.
			rf.VRegs *= s.Contexts
			rf.PartitionPerContext = true
		}
		opts = append(opts, session.WithRegFile(rf))
	}
	if s.RecordSpans {
		opts = append(opts, session.WithSpans())
	}
	return opts
}

// suiteKey names one suite build: the catalog order (the Section 7
// queue order, or the real benchmark suite in workload.BenchOrder) and
// the compiler options it is built with.
type suiteKey struct {
	bench bool
	opts  vcomp.Options
}

// suite builds (once) the workloads key names, in parallel. The
// register file is normalized to its compiler-visible BuildKey, with the
// reference organization as zero, so every spelling of one compilation
// shares an entry. The default options build through W, sharing its
// memoized workloads. The pool only orchestrates: each build admits
// through the session's gate.
func (e *Env) suite(ctx context.Context, key suiteKey) ([]*workload.Workload, error) {
	key.opts.RegFile = key.opts.RegFile.BuildKey()
	if key.opts.RegFile == arch.DefaultRegFile().BuildKey() {
		key.opts.RegFile = arch.RegFile{}
	}
	return e.suites.DoContext(ctx, key, func() ([]*workload.Workload, error) {
		specs := workload.QueueOrder()
		if key.bench {
			specs = workload.BenchOrder()
		}
		out := make([]*workload.Workload, len(specs))
		err := runner.New(4*e.Jobs()).Map(len(specs), func(i int) (err error) {
			if err := ctx.Err(); err != nil {
				return err
			}
			if key.opts == (vcomp.Options{}) {
				out[i], err = e.W(specs[i].Short)
			} else {
				e.ses.Do(func() { out[i], err = specs[i].BuildOpts(e.Scale, key.opts) })
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	})
}

// queueRun executes (once) the job queue of the suite key names,
// compiled for s.RegFile, under s: every workload in catalog order,
// threads pulling the next job as they finish.
func (e *Env) queueRun(ctx context.Context, key suiteKey, s QueueSpec) (*stats.Report, error) {
	key.opts.RegFile = s.RegFile
	ws, err := e.suite(ctx, key)
	if err != nil {
		return nil, err
	}
	rep, err := e.ses.Run(ctx, session.Queue(ws, s.options()...))
	if err != nil {
		return nil, fmt.Errorf("experiments: queue run (bench %t, no hoist %t, %d ctx, lat %d): %w",
			key.bench, key.opts.NoHoist, s.Contexts, s.Latency, err)
	}
	return rep, nil
}

// QueueRun executes (once) the ten-program job queue under the spec,
// with the suite compiled for s.RegFile.
func (e *Env) QueueRun(ctx context.Context, s QueueSpec) (*stats.Report, error) {
	return e.queueRun(ctx, suiteKey{}, s)
}

// BenchQueueRun executes (once) the benchmark-suite job queue under the
// spec — the Section 7 methodology applied to the real vectorizable
// kernels, which resolve through the same registry as the Table 3
// programs and run through the identical session machinery.
func (e *Env) BenchQueueRun(ctx context.Context, s QueueSpec) (*stats.Report, error) {
	return e.queueRun(ctx, suiteKey{bench: true}, s)
}

// NaiveQueueRun executes (once) the ten-program job queue built by the
// naive compiler, with load hoisting disabled — the ext-compiler
// counterfactual.
func (e *Env) NaiveQueueRun(ctx context.Context, s QueueSpec) (*stats.Report, error) {
	return e.queueRun(ctx, naiveSuite, s)
}

// naiveSuite names the ten programs built with load hoisting disabled.
var naiveSuite = suiteKey{opts: vcomp.Options{NoHoist: true}}

// SuiteDemand merges the ten programs' demand statistics (for the IDEAL
// bound).
func (e *Env) SuiteDemand() (prog.Stats, error) {
	var merged prog.Stats
	for _, spec := range workload.QueueOrder() {
		w, err := e.W(spec.Short)
		if err != nil {
			return merged, err
		}
		merged.Merge(&w.Stats)
	}
	return merged, nil
}

// GroupedRun is one Section 4.1 grouped simulation: the primary program
// on thread 0 with restarting companions, plus the derived metrics.
type GroupedRun struct {
	Primary    string
	Companions []string
	Contexts   int

	Rep     *stats.Report
	Speedup float64

	RefOcc  float64 // tuple's memory-port occupation run sequentially on the reference machine
	RefVOPC float64
}

// GroupedRuns produces (once) the full Table 2 experiment set: for every
// program, 5 two-thread, 10 three-thread and 10 four-thread groupings at
// 50-cycle memory latency. The groupings are simulated concurrently on
// the Env's worker budget; the returned slice is always in the same
// deterministic enumeration order.
func (e *Env) GroupedRuns(ctx context.Context) ([]GroupedRun, error) {
	return e.grouped.DoContext(ctx, struct{}{}, func() ([]GroupedRun, error) {
		const latency = 50
		g := workload.DefaultGroupings()
		var runs []GroupedRun

		for _, primary := range workload.Specs() {
			// 2 threads: primary + each column-2 program.
			for _, c2 := range g.Col2 {
				runs = append(runs, GroupedRun{Primary: primary.Short, Companions: []string{c2.Short}})
			}
			// 3 threads: primary + col2 + col3.
			for _, c2 := range g.Col2 {
				for _, c3 := range g.Col3 {
					runs = append(runs, GroupedRun{Primary: primary.Short, Companions: []string{c2.Short, c3.Short}})
				}
			}
			// 4 threads: primary + col2 + col3 + col4.
			for _, c2 := range g.Col2 {
				for _, c3 := range g.Col3 {
					for _, c4 := range g.Col4 {
						runs = append(runs, GroupedRun{Primary: primary.Short, Companions: []string{c2.Short, c3.Short, c4.Short}})
					}
				}
			}
		}

		// The pool only orchestrates: leaf simulations admit through the
		// session's gate, so width beyond Jobs() just keeps gate slots
		// fed while some tasks park on shared singleflight entries. The
		// reference runs feed every grouping's speedup denominator;
		// warming them first keeps the fan-out from bunching up on their
		// entries.
		pool := runner.New(4 * e.Jobs())
		shorts := workload.Specs()
		if err := pool.Map(len(shorts), func(i int) error {
			_, err := e.RefReport(ctx, shorts[i].Short, latency)
			return err
		}); err != nil {
			return nil, err
		}
		if err := pool.Map(len(runs), func(i int) error {
			return e.runGrouped(ctx, &runs[i], latency)
		}); err != nil {
			return nil, err
		}
		return runs, nil
	})
}

func (e *Env) runGrouped(ctx context.Context, r *GroupedRun, latency int) error {
	r.Contexts = 1 + len(r.Companions)
	pw, err := e.W(r.Primary)
	if err != nil {
		return err
	}
	cws := make([]*workload.Workload, len(r.Companions))
	for i, comp := range r.Companions {
		if cws[i], err = e.W(comp); err != nil {
			return err
		}
	}
	rep, err := e.ses.Run(ctx, session.Group(pw, cws, session.WithMemLatency(latency)))
	if err != nil {
		return fmt.Errorf("grouped run %s+%v: %w", r.Primary, r.Companions, err)
	}
	r.Rep = rep

	// Section 4.1 speedup: reference work for exactly what the
	// multithreaded machine completed.
	refWork, err := e.RefCycles(ctx, r.Primary, latency)
	if err != nil {
		return err
	}
	for i, comp := range r.Companions {
		th := rep.Threads[i+1]
		full, err := e.RefCycles(ctx, comp, latency)
		if err != nil {
			return err
		}
		// Completions counts finished runs; the current unfinished run
		// contributes its partial reference time.
		refWork += th.Completions * full
		partial, err := e.RefPartialCycles(ctx, comp, latency, th.PartialInsts)
		if err != nil {
			return err
		}
		refWork += partial
	}
	r.Speedup = stats.Speedup(refWork, rep.Cycles)

	// Sequential-reference tuple metrics for Figures 7 and 8.
	var busy, cycles, arith int64
	members := append([]string{r.Primary}, r.Companions...)
	for _, mname := range members {
		rr, err := e.RefReport(ctx, mname, latency)
		if err != nil {
			return err
		}
		busy += rr.MemBusyCycles
		cycles += rr.Cycles
		arith += rr.VectorArithOps
	}
	if cycles > 0 {
		r.RefOcc = float64(busy) / float64(cycles)
		r.RefVOPC = float64(arith) / float64(cycles)
	}
	return nil
}
