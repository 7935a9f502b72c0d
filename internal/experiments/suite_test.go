package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mtvec/internal/arch"
	"mtvec/internal/stats"
	"mtvec/internal/vcomp"
)

// testScale keeps suite-level tests fast; it matches testEnv's scale.
const testScale = 1e-4

func TestRunSuiteParallelMatchesSerial(t *testing.T) {
	serial, sst, err := RunSuite(envWithJobs(1), All(), 1)
	if err != nil {
		t.Fatalf("serial suite: %v", err)
	}
	parallel, pst, err := RunSuite(envWithJobs(8), All(), 8)
	if err != nil {
		t.Fatalf("parallel suite: %v", err)
	}
	if len(serial) != len(All()) {
		t.Fatalf("results = %d, want %d", len(serial), len(All()))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("experiment %s: parallel result differs from serial", All()[i].ID)
		}
	}
	// The engine must not trade memoization for parallelism: the same
	// distinct simulation set runs under any schedule.
	if sst.Simulations != pst.Simulations {
		t.Errorf("simulations: serial %d, parallel %d", sst.Simulations, pst.Simulations)
	}
	if sst.Jobs != 1 || pst.Jobs != 8 {
		t.Errorf("stats jobs = %d/%d, want 1/8", sst.Jobs, pst.Jobs)
	}
	if pst.Wall <= 0 || pst.Busy <= 0 {
		t.Errorf("suite stats not populated: %+v", pst)
	}
	if pst.Parallelism() <= 0 {
		t.Errorf("parallelism = %v", pst.Parallelism())
	}
}

// envWithJobs is a fresh test Env whose simulations admit under a
// bound of jobs.
func envWithJobs(jobs int) *Env {
	e := NewEnv(testScale)
	e.SetJobs(jobs)
	return e
}

func TestSharedPointsSimulatedOnce(t *testing.T) {
	// Figures 4 and 5 read the exact same sweep: ten programs at four
	// latencies. Running both concurrently must cost exactly 40
	// simulations — the cache's single-simulation guarantee.
	e := NewEnv(testScale)
	exps := []Experiment{*ByID("fig4"), *ByID("fig5")}
	_, st, err := RunSuite(e, exps, 8)
	if err != nil {
		t.Fatal(err)
	}
	if st.Simulations != 40 {
		t.Fatalf("simulations = %d, want 40 (10 programs x 4 latencies, shared between fig4 and fig5)", st.Simulations)
	}
	// Re-running the experiments on the same Env is free.
	_, st2, err := RunSuite(e, exps, 8)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Simulations != 0 {
		t.Fatalf("rerun executed %d new simulations, want 0", st2.Simulations)
	}
}

func TestEnvConcurrentSingleflight(t *testing.T) {
	e := NewEnv(testScale)
	const goroutines = 16
	reports := make([]*stats.Report, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = e.RefReport(context.Background(), "tf", 50)
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if reports[i] != reports[0] {
			t.Fatal("concurrent requesters got different report instances")
		}
	}
	if n := e.Simulations(); n != 1 {
		t.Fatalf("%d simulations for one key under contention", n)
	}
}

func TestRunSuiteReportsExperimentErrors(t *testing.T) {
	bad := Experiment{
		ID:     "bad",
		Title:  "always fails",
		Inputs: func() []Input { return []Input{{kind: buildInput, short: "zz"}} },
		Run: func(_ context.Context, e *Env) (*Result, error) {
			_, err := e.W("zz")
			return nil, err
		},
	}
	for _, jobs := range []int{1, 4} {
		_, _, err := RunSuite(NewEnv(testScale), []Experiment{*ByID("table1"), bad}, jobs)
		if err == nil {
			t.Fatalf("jobs=%d: point/run failure not reported", jobs)
		}
		want := `bad: experiments: unknown workload "zz"`
		if err.Error() != want {
			t.Fatalf("jobs=%d: err = %q, want %q (deterministic, experiment-attributed)", jobs, err, want)
		}
	}
}

// TestCancelledSuiteLeavesEnvUsable: a cancelled suite reports the
// cancellation even for an experiment that never reads its context
// (table3 only builds workloads), and leaves the shared Env usable —
// later direct calls simulate normally.
func TestCancelledSuiteLeavesEnvUsable(t *testing.T) {
	env := NewEnv(testScale)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := RunSuiteContext(ctx, env, []Experiment{*ByID("table3")}, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled suite: err = %v, want context.Canceled", err)
	}
	if _, err := env.RefReport(context.Background(), "tf", 50); err != nil {
		t.Fatalf("env poisoned after cancelled suite: %v", err)
	}
	if n := env.Simulations(); n != 1 {
		t.Fatalf("simulations = %d, want 1", n)
	}
}

// blocker is a one-experiment suite whose Run signals started, waits
// for release, then runs body under the suite's context — so a test
// can force how two suites on one Env interleave.
type blocker struct{ started, release chan struct{} }

// suiteDone is how a blocker's suite ended.
type suiteDone struct {
	st  *SuiteStats
	err error
}

// start runs the blocker's suite on env under ctx with the given jobs
// in a goroutine and returns once its Run has started; the channel
// carries the suite's stats and error.
func (b *blocker) start(ctx context.Context, env *Env, jobs int, body func(context.Context, *Env) error) <-chan suiteDone {
	b.started, b.release = make(chan struct{}), make(chan struct{})
	exp := Experiment{ID: "blocker", Run: func(ctx context.Context, e *Env) (*Result, error) {
		close(b.started)
		<-b.release
		if err := body(ctx, e); err != nil {
			return nil, err
		}
		return &Result{ID: "blocker"}, nil
	}}
	done := make(chan suiteDone, 1)
	go func() {
		_, st, err := RunSuiteContext(ctx, env, []Experiment{exp}, jobs)
		done <- suiteDone{st, err}
	}()
	<-b.started
	return done
}

func refRun(short string) func(context.Context, *Env) error {
	return func(ctx context.Context, e *Env) error {
		_, err := e.RefReport(ctx, short, 50)
		return err
	}
}

// TestOverlappingSuitesKeepEnvUsable: suite A starts, suite B starts,
// A ends, B ends, then A's context is cancelled. The Env must not have
// kept A's context: a direct run afterwards succeeds.
func TestOverlappingSuitesKeepEnvUsable(t *testing.T) {
	env := NewEnv(testScale)
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	noop := func(context.Context, *Env) error { return nil }
	var a, b blocker
	doneA := a.start(ctxA, env, 2, noop)
	doneB := b.start(context.Background(), env, 2, noop)
	close(a.release)
	if d := <-doneA; d.err != nil {
		t.Fatalf("suite A: %v", d.err)
	}
	close(b.release)
	if d := <-doneB; d.err != nil {
		t.Fatalf("suite B: %v", d.err)
	}
	cancelA()
	if _, err := env.RefReport(context.Background(), "tf", 50); err != nil {
		t.Fatalf("direct run after suite A's context was cancelled: %v", err)
	}
}

// TestCancellingOneSuiteSparesAnother: with suites A and B both
// running on one Env, cancelling A fails A's runs and only A's.
func TestCancellingOneSuiteSparesAnother(t *testing.T) {
	env := NewEnv(testScale)
	ctxA, cancelA := context.WithCancel(context.Background())
	var a, b blocker
	doneA := a.start(ctxA, env, 2, refRun("tf"))
	doneB := b.start(context.Background(), env, 2, refRun("sw"))
	cancelA()
	close(a.release)
	if d := <-doneA; !errors.Is(d.err, context.Canceled) {
		t.Fatalf("cancelled suite A: err = %v, want context.Canceled", d.err)
	}
	close(b.release)
	if d := <-doneB; d.err != nil {
		t.Fatalf("suite B failed after A was cancelled: %v", d.err)
	}
	if n := env.Simulations(); n != 1 {
		t.Fatalf("simulations = %d, want 1 (suite B's run only)", n)
	}
}

// TestOverlappingSuitesKeepEnvBound: suites A (jobs 2) and B (jobs 8)
// run on one Env whose bound is 3. A suite's jobs sizes only its own
// pool, so both admit under the Env's bound while they overlap, and
// both report it.
func TestOverlappingSuitesKeepEnvBound(t *testing.T) {
	env := envWithJobs(3)
	bound := func(_ context.Context, e *Env) error {
		if n := e.Jobs(); n != 3 {
			return fmt.Errorf("admitting under a bound of %d, want the Env's 3", n)
		}
		return nil
	}
	var a, b blocker
	doneA := a.start(context.Background(), env, 2, bound)
	doneB := b.start(context.Background(), env, 8, bound)
	close(a.release)
	close(b.release)
	for name, done := range map[string]<-chan suiteDone{"A": doneA, "B": doneB} {
		d := <-done
		if d.err != nil {
			t.Errorf("suite %s: %v", name, d.err)
		} else if d.st.Jobs != 3 {
			t.Errorf("suite %s: SuiteStats.Jobs = %d, want the Env's 3", name, d.st.Jobs)
		}
	}
}

// TestInputsCoverRun: every experiment's Inputs list exactly the
// simulations its Run reads. On a fresh Env, Run after the resolved
// Inputs simulates nothing (no read is unlisted), and the Inputs alone
// simulate as many points as Run alone on a second fresh Env (nothing
// listed is unread).
func TestInputsCoverRun(t *testing.T) {
	ctx := context.Background()
	for _, exp := range All() {
		t.Run(exp.ID, func(t *testing.T) {
			t.Parallel()
			listed := NewEnv(testScale)
			if exp.Inputs != nil {
				for _, in := range exp.Inputs() {
					if err := listed.resolve(ctx, in); err != nil {
						t.Fatal(err)
					}
				}
			}
			resolved := listed.Simulations()
			if _, err := exp.Run(ctx, listed); err != nil {
				t.Fatal(err)
			}
			if n := listed.Simulations() - resolved; n != 0 {
				t.Errorf("Run simulated %d points its Inputs do not list", n)
			}
			alone := NewEnv(testScale)
			if _, err := exp.Run(ctx, alone); err != nil {
				t.Fatal(err)
			}
			if n := alone.Simulations(); n != resolved {
				t.Errorf("Inputs simulate %d points, Run alone %d", resolved, n)
			}
		})
	}
}

// TestSuiteCacheSharesReferenceBuild: a zero RegFile and the explicit
// reference organization name one compilation, so both queue runs
// reuse the same workloads and simulate once; the default build is
// W's.
func TestSuiteCacheSharesReferenceBuild(t *testing.T) {
	e := NewEnv(testScale)
	ctx := context.Background()
	for _, bench := range []bool{false, true} {
		run := e.QueueRun
		if bench {
			run = e.BenchQueueRun
		}
		sims := e.Simulations()
		zero := QueueSpec{Contexts: 2, Latency: 50}
		ref := zero
		ref.RegFile = arch.DefaultRegFile()
		for _, s := range []QueueSpec{zero, ref} {
			if _, err := run(ctx, s); err != nil {
				t.Fatal(err)
			}
		}
		if n := e.Simulations() - sims; n != 1 {
			t.Errorf("bench=%t: %d simulations, want 1", bench, n)
		}
		ws0, err := e.suite(ctx, suiteKey{bench: bench})
		if err != nil {
			t.Fatal(err)
		}
		ws1, err := e.suite(ctx, suiteKey{bench: bench, opts: vcomp.Options{RegFile: arch.DefaultRegFile()}})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ws0 {
			if ws0[i] != ws1[i] {
				t.Fatalf("bench=%t: workload %d rebuilt for the reference organization", bench, i)
			}
			if w, err := e.W(ws0[i].Spec.Short); err != nil || w != ws0[i] {
				t.Fatalf("bench=%t: default suite workload %d is not W's build (%v)", bench, i, err)
			}
		}
	}
	if n := e.suites.Len(); n != 2 {
		t.Errorf("suite cache holds %d entries, want 2", n)
	}
}
