package experiments

import (
	"context"
	"fmt"
	"time"

	"mtvec/internal/runner"
	"mtvec/internal/workload"
)

// SuiteStats summarizes one RunSuite execution for wall-clock/speedup
// reporting.
type SuiteStats struct {
	Jobs        int           // the Env's simulation concurrency bound
	Simulations int64         // machine runs this suite executed (cache misses only)
	Busy        time.Duration // serial-equivalent time inside simulations and builds
	Wall        time.Duration // elapsed wall-clock time
}

// Parallelism is Busy/Wall: the average number of tasks in flight. On
// unoversubscribed CPU-bound runs it approximates the speedup over a
// serial execution of the same task set.
func (s *SuiteStats) Parallelism() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Busy) / float64(s.Wall)
}

// RunSuite executes the experiments on env. Simulations admit under
// the Env's own bound (Env.SetJobs), which the suite leaves as it
// found it; jobs only sizes the suite's orchestration pool, 4*jobs
// wide (jobs <= 0 sizes it from the Env's bound).
//
// It fans out in two phases: every experiment's inputs are resolved
// first (an input listed by several experiments is computed once via
// the Env's singleflight caches), then the experiments' Run functions
// execute concurrently against the warm caches. Results are collected
// by registry index, and errors are joined in that order too, so
// output is deterministic: any jobs value — including 1 — produces
// byte-identical results.
func RunSuite(env *Env, exps []Experiment, jobs int) ([]*Result, *SuiteStats, error) {
	return RunSuiteContext(context.Background(), env, exps, jobs)
}

// RunSuiteContext is RunSuite under a context: cancellation or deadline
// expiry aborts in-flight simulations, the joined error includes
// ctx.Err() for every affected experiment (also one that finished
// without reading ctx, such as a table built from workloads alone), and
// no partial results are returned. The context governs only this
// suite's runs and the Env's memo caches are not poisoned, so after a
// cancelled suite, direct Env calls (or a later RunSuite) resume where
// the cancelled one stopped, and a concurrent suite on the same Env
// runs on.
func RunSuiteContext(ctx context.Context, env *Env, exps []Experiment, jobs int) ([]*Result, *SuiteStats, error) {
	start := time.Now()
	sims0, busy0 := env.Simulations(), env.BusyTime()
	if jobs <= 0 {
		jobs = env.Jobs()
	}
	// The pool only orchestrates; actual simulations admit through the
	// Env's gate, which enforces its bound globally (including inside
	// nested sweeps like GroupedRuns). Extra width lets tasks parked on
	// shared singleflight entries coexist with running ones.
	pool := runner.New(4 * jobs)

	// Each experiment's list is resolved where it is, not copied into
	// one slice: on a warm pass that copy would be most of what the
	// suite allocates beyond the runs themselves.
	var lists [][]Input
	n := 0
	for _, exp := range exps {
		if exp.Inputs != nil {
			lists = append(lists, exp.Inputs())
			n += len(lists[len(lists)-1])
		}
	}
	// Resolution errors are deliberately dropped here: the Env memoizes
	// them, so the owning experiment's Run re-reports the identical error
	// with its experiment ID attached.
	_ = pool.Map(n, func(i int) error {
		l := 0
		for ; i >= len(lists[l]); l++ {
			i -= len(lists[l])
		}
		return env.resolve(ctx, lists[l][i])
	})

	results := make([]*Result, len(exps))
	err := pool.Map(len(exps), func(i int) error {
		res, err := exps[i].Run(ctx, env)
		if err == nil {
			err = ctx.Err()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", exps[i].ID, err)
		}
		results[i] = res
		return nil
	})
	st := &SuiteStats{
		Jobs:        env.Jobs(),
		Simulations: env.Simulations() - sims0,
		Busy:        env.BusyTime() - busy0,
		Wall:        time.Since(start),
	}
	if err != nil {
		return nil, st, err
	}
	return results, st, nil
}

// Input names one computation an experiment reads, which the Env
// memoizes: a workload build, a reference run, a queue run over one
// suite build, or the Table 2 grouped set. It is a comparable value,
// built without an Env.
type Input struct {
	kind    inputKind
	short   string    // workload build and reference run
	latency int       // reference run
	suite   suiteKey  // queue run; the spec's RegFile completes it
	spec    QueueSpec // queue run
}

type inputKind uint8

const (
	buildInput inputKind = iota
	refInput
	queueInput
	groupedInput
)

// resolve computes (once) the value in names through the Env method
// that memoizes it.
func (e *Env) resolve(ctx context.Context, in Input) (err error) {
	switch in.kind {
	case buildInput:
		_, err = e.W(in.short)
	case refInput:
		_, err = e.RefReport(ctx, in.short, in.latency)
	case queueInput:
		_, err = e.queueRun(ctx, in.suite, in.spec)
	case groupedInput:
		_, err = e.GroupedRuns(ctx)
	}
	return err
}

// builds names the workload builds of specs.
func builds(specs []*workload.Spec) []Input {
	ins := make([]Input, len(specs))
	for i, spec := range specs {
		ins[i] = Input{kind: buildInput, short: spec.Short}
	}
	return ins
}

// refRuns names the reference runs of specs at each latency.
func refRuns(specs []*workload.Spec, lats ...int) []Input {
	ins := make([]Input, 0, len(specs)*len(lats))
	for _, spec := range specs {
		for _, lat := range lats {
			ins = append(ins, Input{kind: refInput, short: spec.Short, latency: lat})
		}
	}
	return ins
}

// queueRuns names the job-queue runs of specs over the suite key names.
func queueRuns(key suiteKey, specs ...QueueSpec) []Input {
	ins := make([]Input, len(specs))
	for i, s := range specs {
		ins[i] = Input{kind: queueInput, suite: key, spec: s}
	}
	return ins
}

// groupedRuns names the Table 2 grouped set (Figures 6-8).
func groupedRuns() []Input { return []Input{{kind: groupedInput}} }
