// Package benchcase is the repository's one list of benchmark cases.
// mtvbench -bench-json measures it into BENCH_*.json artifacts, and the
// root package's BenchmarkCases runs it under go test -bench. Both read
// the same names, units and per-iteration work, so a case measured by
// either harness compares with the committed baselines.
package benchcase

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"

	"mtvec"
	"mtvec/internal/prog"
	"mtvec/internal/store"
)

// Unit names what the work an iteration returns counts.
type Unit int

const (
	None   Unit = iota // no work is returned
	Cycles             // simulated cycles, reported as Mcycles/s
	Insts              // dynamic instructions expanded, reported as ns/inst
)

// Func runs one iteration and returns the work it covered in its case's
// unit (0 for a None case).
type Func func() (int64, error)

// Case is one measurable unit. Prepare builds the case's fixtures, and
// those it shares with other cases unless an earlier Prepare built
// them, and returns its iteration: selecting one case does not build
// the others'. Prepare each case once, from one goroutine at a time.
type Case struct {
	Name    string
	Unit    Unit
	Prepare func() (Func, error)
}

// storeReadKeys is how many records store/read's store holds.
const storeReadKeys = 1024

// ready prepares a case that has no fixtures.
func ready(fn Func) func() (Func, error) { return func() (Func, error) { return fn, nil } }

// over prepares a case from a shared fixture.
func over[T any](fixture func() (T, error), mk func(T) (Func, error)) func() (Func, error) {
	return func() (Func, error) {
		v, err := fixture()
		if err != nil {
			return nil, err
		}
		return mk(v)
	}
}

// New returns the suite: one case per registered experiment (resolving
// its inputs and running it on a fresh environment per iteration) plus
// the engine, predecode, import, session, sweep, store and warm-suite
// cases. scale is the workload scale (mtvec.BenchScale). jobs is the
// session gate width the experiment, sweep and suite cases run under: 1
// measures work per core, >1 also measures points running side by
// side. The caller runs cleanup once done with the cases; it removes
// the temp directories the cases made.
func New(scale float64, jobs int) (cases []Case, cleanup func()) {
	var dirs []string
	tempDir := func(pattern string) (string, error) {
		d, err := os.MkdirTemp("", pattern)
		if err == nil {
			dirs = append(dirs, d)
		}
		return d, err
	}
	cleanup = func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
		dirs = nil
	}
	ctx := context.Background()

	for _, e := range mtvec.Experiments() {
		exps := []mtvec.Experiment{e}
		cases = append(cases, Case{Name: e.ID, Prepare: ready(func() (int64, error) {
			res, _, err := mtvec.RunExperiments(mtvec.NewEnv(scale), exps, jobs)
			if err != nil {
				return 0, err
			}
			if len(res) != 1 || len(res[0].Tables) == 0 {
				return 0, fmt.Errorf("%s: empty result", exps[0].ID)
			}
			return 0, nil
		})})
	}

	// The queue cases simulate on every call: a memo-less session never
	// answers a repeat from its cache.
	suite := sync.OnceValues(func() ([]*mtvec.Workload, error) { return build(mtvec.QueueOrder(), scale) })
	queue := func(ws []*mtvec.Workload, contexts int, stepped bool) (Func, error) {
		ses := mtvec.NewSession(mtvec.WithoutMemo())
		return func() (int64, error) {
			cfg := mtvec.DefaultConfig()
			cfg.Contexts = contexts
			cfg.DisableFastForward = stepped
			rep, err := ses.Run(ctx, mtvec.Queue(ws, mtvec.WithConfig(cfg)))
			if err != nil {
				return 0, err
			}
			return rep.Cycles, nil
		}, nil
	}
	engine := func(contexts int, stepped bool) func() (Func, error) {
		return over(suite, func(ws []*mtvec.Workload) (Func, error) { return queue(ws, contexts, stepped) })
	}
	// engine/reference-stepped is engine/reference cycle by cycle, with
	// the all-blocked clock skip off: it prices fast-forward, and the
	// lone-context loop's per-cycle cost on its own.
	cases = append(cases,
		Case{Name: "engine/reference", Unit: Cycles, Prepare: engine(1, false)},
		Case{Name: "engine/reference-stepped", Unit: Cycles, Prepare: engine(1, true)},
		Case{Name: "engine/4threads", Unit: Cycles, Prepare: engine(4, false)},
	)

	// Solo points on a 4-context machine under every policy: the traffic
	// a cold sweep serves, where the decode unit never has a choice of
	// thread (docs/PERF.md, "A lone thread is not scheduled").
	cases = append(cases, Case{Name: "engine/solo-policies", Unit: Cycles, Prepare: over(suite, func(ws []*mtvec.Workload) (Func, error) {
		return func() (int64, error) {
			var cycles int64
			for _, name := range mtvec.PolicyNames() {
				cfg := mtvec.DefaultConfig()
				cfg.Contexts = 4
				cfg.Policy = mtvec.PolicyByName(name)
				for _, w := range ws {
					n, err := runDirect(cfg, w)
					if err != nil {
						return 0, err
					}
					cycles += n
				}
			}
			return cycles, nil
		}, nil
	})})

	// The predecode cache (docs/PERF.md, "Predecoded replay"): the ten
	// Table 3 traces expanded by prog.DecodeAllVL at the exact capacity
	// Trace.Decoded allocates. B/op is the cache's size, so the bytes
	// gate guards the predecoded entry's layout.
	cases = append(cases, Case{Name: "prog/predecode", Unit: Insts, Prepare: over(suite, func(ws []*mtvec.Workload) (Func, error) {
		hints := make([]int64, len(ws))
		for i, w := range ws {
			hints[i] = int64(len(w.Trace.Decoded()))
		}
		return func() (int64, error) {
			var insts int64
			for i, w := range ws {
				dec, err := prog.DecodeAllVL(w.Trace.Prog, w.Trace.Source(), hints[i], w.Trace.MaxVL)
				if err != nil {
					return 0, err
				}
				insts += int64(len(dec))
			}
			return insts, nil
		}, nil
	})})

	// The vectorizable benchmark suite (docs/BENCHMARKS.md): all seven
	// kernels drained through a 4-context job queue, and the mtvrvv text
	// frontend importing one exported kernel per iteration.
	bench := sync.OnceValues(func() ([]*mtvec.Workload, error) { return build(mtvec.BenchWorkloads(), scale) })
	cases = append(cases,
		Case{Name: "benchsuite/queue4", Unit: Cycles, Prepare: over(bench, func(ws []*mtvec.Workload) (Func, error) {
			return queue(ws, 4, false)
		})},
		Case{Name: "trace/import-rvv", Prepare: over(bench, func(ws []*mtvec.Workload) (Func, error) {
			var rvv bytes.Buffer
			if err := mtvec.ExportRVVTrace(&rvv, ws[0].Trace); err != nil {
				return nil, err
			}
			text := rvv.Bytes()
			return func() (int64, error) {
				_, err := mtvec.ImportRVVTrace(bytes.NewReader(text))
				return 0, err
			}, nil
		})},
	)

	// Supply builds (docs/PERF.md, "A warm point allocates only what it
	// keeps"): all seventeen catalog specs compiled, scheduled and
	// profiled at 1e-4 and at DefaultScale, whatever the bench scale,
	// the work a fresh environment repeats on every warm pass. A
	// Table 3 schedule is a bounded list of runs at any scale; the two
	// scales keep what still grows with scale in view.
	cases = append(cases, Case{Name: "workload/build", Prepare: ready(func() (int64, error) {
		for _, scale := range []float64{1e-4, mtvec.DefaultScale} {
			for _, specs := range [][]*mtvec.WorkloadSpec{mtvec.Workloads(), mtvec.BenchWorkloads()} {
				if _, err := build(specs, scale); err != nil {
					return 0, err
				}
			}
		}
		return 0, nil
	})})

	// Per-run API overhead on one solo point: the direct machine path, a
	// memo-less Session, and the memoized cache hit, which simulates no
	// cycles.
	solo := sync.OnceValues(func() (*mtvec.Workload, error) { return mtvec.WorkloadByShort("tf").Build(scale) })
	session := func(memo bool) func() (Func, error) {
		return over(solo, func(w *mtvec.Workload) (Func, error) {
			ses := mtvec.NewSession()
			if !memo {
				ses = mtvec.NewSession(mtvec.WithoutMemo())
			}
			return func() (int64, error) {
				rep, err := ses.Run(ctx, mtvec.Solo(w))
				if err != nil || memo {
					return 0, err
				}
				return rep.Cycles, nil
			}, nil
		})
	}
	cases = append(cases,
		Case{Name: "machine/direct", Unit: Cycles, Prepare: over(solo, func(w *mtvec.Workload) (Func, error) {
			return func() (int64, error) { return runDirect(mtvec.DefaultConfig(), w) }, nil
		})},
		Case{Name: "session/run", Unit: Cycles, Prepare: session(false)},
		Case{Name: "session/memoized", Prepare: session(true)},
	)

	// Sweeps: memo-missed latency sweeps on a fresh session at the jobs
	// gate width. sweep/perpoint wraps one compiled kernel in a fresh
	// workload per sweep, whose eight points share one synthesized and
	// predecoded trace (docs/PERF.md, "Sweeps run point by point").
	runSweep := func(specs []mtvec.RunSpec) (int64, error) {
		reps, err := mtvec.NewSession(mtvec.WithJobs(jobs)).RunAll(ctx, specs...)
		if err != nil {
			return 0, err
		}
		var cycles int64
		for _, rep := range reps {
			cycles += rep.Cycles
		}
		return cycles, nil
	}
	cases = append(cases, Case{Name: "sweep/perpoint", Unit: Cycles, Prepare: over(compileSweepKernel, func(kern *mtvec.Compiled) (Func, error) {
		sched := []mtvec.Invocation{{Unit: 1, N: 1 << 14}, {Unit: 0, N: 1 << 14}, {Unit: 1, N: 1 << 14}}
		return func() (int64, error) {
			w, err := mtvec.CompiledWorkload(kern, sched)
			if err != nil {
				return 0, err
			}
			specs := make([]mtvec.RunSpec, 8)
			for k := range specs {
				specs[k] = mtvec.Solo(w, mtvec.WithMemLatency(30+10*k))
			}
			return runSweep(specs)
		}, nil
	})})

	// Long-vector sweep: the gemm and spmv bench-suite supplies are
	// simulation-dominated (high cycles per instruction) — the opposite
	// corner from the scalar-heavy daxpy-setup sweep above. Two supplies
	// of four latency points each.
	cases = append(cases, Case{Name: "sweep/longvec-perpoint", Unit: Cycles, Prepare: over(bench, func(ws []*mtvec.Workload) (Func, error) {
		var specs []mtvec.RunSpec
		for _, short := range []string{"gm", "sp"} {
			for _, w := range ws {
				for k := 0; w.Spec.Short == short && k < 4; k++ {
					specs = append(specs, mtvec.Solo(w, mtvec.WithMemLatency(30+30*k)))
				}
			}
		}
		if len(specs) != 8 {
			return nil, fmt.Errorf("bench suite is missing the gemm or spmv workload")
		}
		return func() (int64, error) { return runSweep(specs) }, nil
	})})

	// Store records (docs/PERF.md, "Store records"). store/record runs a
	// real record, the solo point above under its persist key, through
	// EncodeRecord and DecodeRecord. store/claim is a cold sweep point's
	// store traffic for a fresh key on a temp directory: Get's miss,
	// TryLock, Put and the release. store/read is a warm point's: a Get
	// that hits, on a store of storeReadKeys records.
	type record struct {
		key string
		rep *mtvec.Report
	}
	rec := sync.OnceValues(func() (record, error) {
		w, err := solo()
		if err != nil {
			return record{}, err
		}
		ses := mtvec.NewSession(mtvec.WithoutMemo())
		key, ok := ses.PersistKey(mtvec.Solo(w))
		if !ok {
			return record{}, fmt.Errorf("the solo point has no persist key")
		}
		rep, err := ses.Run(ctx, mtvec.Solo(w))
		return record{key, rep}, err
	})
	cases = append(cases,
		Case{Name: "store/record", Prepare: over(rec, func(r record) (Func, error) {
			return func() (int64, error) {
				data, err := store.EncodeRecord(r.key, r.rep)
				if err != nil {
					return 0, err
				}
				_, err = store.DecodeRecord(data, r.key)
				return 0, err
			}, nil
		})},
		Case{Name: "store/claim", Prepare: over(rec, func(r record) (Func, error) {
			dir, err := tempDir("mtvbench-store-")
			if err != nil {
				return nil, err
			}
			st, err := store.Open(dir)
			if err != nil {
				return nil, err
			}
			seq := 0
			return func() (int64, error) {
				seq++
				key := r.key + "|claim=" + strconv.Itoa(seq)
				if _, tier := st.Get(key); tier.Hit() {
					return 0, fmt.Errorf("fresh key %d hit", seq)
				}
				release := st.TryLock(key)
				if release == nil {
					return 0, fmt.Errorf("fresh key %d is locked", seq)
				}
				err := st.Put(key, r.rep)
				release()
				return 0, err
			}, nil
		})},
		Case{Name: "store/read", Prepare: over(rec, func(r record) (Func, error) {
			dir, err := tempDir("mtvbench-store-")
			if err != nil {
				return nil, err
			}
			st, err := store.Open(dir)
			if err != nil {
				return nil, err
			}
			keys := make([]string, storeReadKeys)
			for i := range keys {
				keys[i] = r.key + "|read=" + strconv.Itoa(i)
				if err := st.Put(keys[i], r.rep); err != nil {
					return nil, err
				}
			}
			seq := 0
			return func() (int64, error) {
				seq++
				key := keys[seq%len(keys)]
				if _, tier := st.Get(key); !tier.Hit() {
					return 0, fmt.Errorf("stored key %s missed", key)
				}
				return 0, nil
			}, nil
		})},
	)

	// A warm suite pass: every experiment on a fresh Env over a store
	// that one cold pass filled outside the timer, the in-process path of
	// repobench's suite-warm workload. A pass that simulates a point
	// fails, as CI's warm-store step does.
	cases = append(cases, Case{Name: "suite/warm-pass", Prepare: func() (Func, error) {
		dir, err := tempDir("mtvbench-warm-")
		if err != nil {
			return nil, err
		}
		st, err := mtvec.OpenStore(dir)
		if err != nil {
			return nil, err
		}
		pass := func() (int64, error) {
			env := mtvec.NewEnv(scale)
			env.SetJobs(jobs)
			env.SetStore(st)
			_, _, err := mtvec.RunExperiments(env, mtvec.Experiments(), jobs)
			return env.Simulations(), err
		}
		if _, err := pass(); err != nil {
			return nil, err
		}
		return func() (int64, error) {
			sims, err := pass()
			if err == nil && sims != 0 {
				err = fmt.Errorf("warm pass simulated %d points", sims)
			}
			return 0, err
		}, nil
	}})
	return cases, cleanup
}

func build(specs []*mtvec.WorkloadSpec, scale float64) ([]*mtvec.Workload, error) {
	var ws []*mtvec.Workload
	for _, spec := range specs {
		w, err := spec.Build(scale)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// runDirect runs w alone on a new machine, without a session.
func runDirect(cfg mtvec.Config, w *mtvec.Workload) (int64, error) {
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
	return rep.Cycles, nil
}

// compileSweepKernel builds the daxpy-plus-setup kernel sweep/perpoint
// runs.
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
