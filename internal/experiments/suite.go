package experiments

import (
	"context"
	"fmt"
	"time"

	"mtvec/internal/runner"
)

// SuiteStats summarizes one RunSuite execution for wall-clock/speedup
// reporting.
type SuiteStats struct {
	Jobs        int           // simulation concurrency bound
	Points      int           // prefetched simulation points
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

// RunSuite executes the experiments on env with at most jobs concurrent
// simulations (jobs <= 0 selects runtime.NumCPU()).
//
// It fans out in two phases: every experiment's declared sweep points
// run first (shared points are simulated once via the Env's singleflight
// caches), then the experiments' Run functions execute concurrently
// against the warm caches. Results are collected by registry index, and
// errors are joined in that order too, so output is deterministic: any
// jobs value — including 1 — produces byte-identical results.
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
	env.SetJobs(jobs)
	sims0, busy0 := env.Simulations(), env.BusyTime()
	// The pool only orchestrates; actual simulations admit through the
	// Env's gate, which enforces the jobs bound globally (including
	// inside nested sweeps like GroupedRuns). Extra width lets tasks
	// parked on shared singleflight entries coexist with running ones.
	pool := runner.New(4 * env.Jobs())

	var points []func() error
	for _, exp := range exps {
		if exp.Points != nil {
			points = append(points, exp.Points(ctx, env)...)
		}
	}
	// Prefetch errors are deliberately dropped here: the Env memoizes
	// them, so the owning experiment's Run re-reports the identical error
	// with its experiment ID attached.
	_ = pool.Map(len(points), func(i int) error { return points[i]() })

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
		Points:      len(points),
		Simulations: env.Simulations() - sims0,
		Busy:        env.BusyTime() - busy0,
		Wall:        time.Since(start),
	}
	if err != nil {
		return nil, st, err
	}
	return results, st, nil
}

// Point-builder helpers shared by the experiment definitions.

// refPoints enumerates solo reference runs of the ten programs at each
// latency.
func refPoints(ctx context.Context, e *Env, lats []int) []func() error {
	var ps []func() error
	for _, short := range shortNames() {
		for _, lat := range lats {
			short, lat := short, lat
			ps = append(ps, func() error { _, err := e.RefReport(ctx, short, lat); return err })
		}
	}
	return ps
}

// queuePoints enumerates job-queue runs for each spec.
func queuePoints(ctx context.Context, e *Env, specs []QueueSpec) []func() error {
	ps := make([]func() error, len(specs))
	for i, s := range specs {
		s := s
		ps[i] = func() error { _, err := e.QueueRun(ctx, s); return err }
	}
	return ps
}

// workloadPoints enumerates the ten workload builds.
func workloadPoints(_ context.Context, e *Env) []func() error {
	var ps []func() error
	for _, short := range shortNames() {
		short := short
		ps = append(ps, func() error { _, err := e.W(short); return err })
	}
	return ps
}
