package session

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mtvec/internal/core"
	"mtvec/internal/kernel"
	"mtvec/internal/stats"
	"mtvec/internal/store"
	"mtvec/internal/trace"
	"mtvec/internal/vcomp"
	"mtvec/internal/workload"
)

// latencySweep builds a memo-missable sweep sharing one workload with n
// distinct memory latencies.
func latencySweep(t *testing.T, n int) []RunSpec {
	t.Helper()
	w := testWorkload(t)
	specs := make([]RunSpec, n)
	for i := range specs {
		specs[i] = Solo(w, WithMemLatency(10+i))
	}
	return specs
}

// soloReports runs each spec on its own through Run on a memo-less
// session: the reference every RunAll result must equal.
func soloReports(t *testing.T, specs []RunSpec) []*stats.Report {
	t.Helper()
	ref := New(WithoutMemo(), WithJobs(1))
	want := make([]*stats.Report, len(specs))
	for i, spec := range specs {
		rep, err := ref.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("solo point %d: %v", i, err)
		}
		want[i] = rep
	}
	return want
}

// TestRunAllBatchedMatchesSolo is the session-level differential gate:
// a RunAll sweep returns exactly the Reports that solo Runs return, in
// input order, at one gate slot and with points running side by side.
// Run under -race in CI, the jobs=2 case is also the session-layer
// data-race proof.
func TestRunAllBatchedMatchesSolo(t *testing.T) {
	specs := latencySweep(t, 11)
	want := soloReports(t, specs)
	for _, jobs := range []int{1, 2} {
		s := New(WithJobs(jobs))
		got, err := s.RunAll(context.Background(), specs...)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i := range specs {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("jobs=%d: point %d: RunAll report differs from solo Run", jobs, i)
			}
		}
		if s.Simulations() != int64(len(specs)) {
			t.Errorf("jobs=%d: simulated %d points, want %d", jobs, s.Simulations(), len(specs))
		}
	}
}

// TestRunAllParallelLanesMatchSolo: on wider gates, where many points
// simulate side by side, every RunAll report still equals the solo Run
// of its own spec and every point simulates exactly once.
func TestRunAllParallelLanesMatchSolo(t *testing.T) {
	specs := latencySweep(t, 13)
	want := soloReports(t, specs)
	for _, jobs := range []int{2, 4, 8} {
		s := New(WithJobs(jobs))
		got, err := s.RunAll(context.Background(), specs...)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i := range specs {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("jobs=%d: point %d: parallel report differs from solo", jobs, i)
			}
		}
		if s.Simulations() != int64(len(specs)) {
			t.Errorf("jobs=%d: simulated %d, want %d", jobs, s.Simulations(), len(specs))
		}
	}
}

// TestRunAllTrackedSources pins the per-point metadata: a cold sweep
// simulates every distinct point once, duplicates share through the
// memo, and a re-run answers entirely from the memo tier.
func TestRunAllTrackedSources(t *testing.T) {
	specs := latencySweep(t, 5)
	specs = append(specs, specs[2]) // duplicate point shares through the memo

	s := New()
	results := s.RunAllTracked(context.Background(), specs...)
	if len(results) != len(specs) {
		t.Fatalf("got %d results for %d specs", len(results), len(specs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("point %d: %v", i, r.Err)
		}
		if r.Report == nil {
			t.Fatalf("point %d: nil report", i)
		}
	}
	if !reflect.DeepEqual(results[2].Report, results[5].Report) {
		t.Error("duplicate points disagree")
	}
	if s.Simulations() != 5 {
		t.Errorf("simulated %d, want 5 (duplicate must not re-run)", s.Simulations())
	}
	again := s.RunAllTracked(context.Background(), specs...)
	for i, r := range again {
		if r.Source != SourceMemo {
			t.Errorf("re-run point %d answered from %v, want memo", i, r.Source)
		}
	}
	if s.Simulations() != 5 {
		t.Errorf("re-run simulated more points (%d)", s.Simulations())
	}
}

// TestRunAllMixedValidity: invalid points error in place without
// disturbing their neighbours, and the joined error keeps input order.
func TestRunAllMixedValidity(t *testing.T) {
	w := testWorkload(t)
	specs := []RunSpec{
		Solo(w, WithMemLatency(20)),
		Solo(w, WithMemLatency(-1)), // invalid
		Solo(w, WithMemLatency(21)),
	}
	s := New()
	reps, err := s.RunAll(context.Background(), specs...)
	if err == nil {
		t.Fatal("invalid point did not surface")
	}
	if reps[0] == nil || reps[2] == nil {
		t.Error("valid neighbours of an invalid point did not run")
	}
	if reps[1] != nil {
		t.Error("invalid point produced a report")
	}
}

// cancelObserver cancels a context after the first progress event.
type cancelObserver struct {
	cancel context.CancelFunc
	fired  atomic.Bool
}

func (c *cancelObserver) Progress(now core.Cycle, dispatched int64) {
	if !c.fired.Swap(true) {
		c.cancel()
	}
}
func (c *cancelObserver) ThreadSwitch(now core.Cycle, from, to int) {}
func (c *cancelObserver) Span(s stats.Span)                         {}

// TestRunAllCancelKeepsInputOrder is the regression test for the
// completion-order bug: when the worker gate is saturated and the
// context is cancelled mid-sweep, RunAll must still return a
// len(specs)-sized, input-indexed result slice where every non-nil
// reps[i] is exactly specs[i]'s solo Report, with the cancellation
// joined into the error. Cancellation is triggered deterministically
// from inside the first spec's own simulation via an observer.
func TestRunAllCancelKeepsInputOrder(t *testing.T) {
	w := testWorkload(t)
	mk := func(i int) RunSpec { return Solo(w, WithMemLatency(30+i)) }

	// Reference reports from an independent session.
	ref := New()
	nPoints := 6
	want := make([]*stats.Report, nPoints)
	for i := range want {
		rep, err := ref.Run(context.Background(), mk(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &cancelObserver{cancel: cancel}
	specs := make([]RunSpec, 0, nPoints+1)
	// The canceller runs first and saturates the 1-slot gate; the rest
	// of the sweep queues behind it.
	specs = append(specs, mk(0).With(WithObserver(obs), WithProgressStride(64)))
	for i := 1; i < nPoints; i++ {
		specs = append(specs, mk(i))
	}

	s := New(WithJobs(1))
	reps, err := s.RunAll(ctx, specs...)
	if len(reps) != len(specs) {
		t.Fatalf("got %d results for %d specs", len(reps), len(specs))
	}
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation not joined into the error: %v", err)
	}
	for i, rep := range reps {
		if rep == nil {
			continue // cancelled point: no partial results allowed
		}
		if !reflect.DeepEqual(rep, want[i]) {
			t.Errorf("slot %d holds a different point's report (completion-order leak)", i)
		}
	}
	// The session stays usable and correct after the cancelled sweep.
	reps, err = s.RunAll(context.Background(), specs[1:]...)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if !reflect.DeepEqual(rep, want[i+1]) {
			t.Errorf("post-cancel slot %d wrong", i)
		}
	}
}

// TestBatchStoreWriteThrough: a sweep writes every fresh point through
// to the persistent store, and a later session's sweep over the same
// points answers entirely from disk — zero simulations.
func TestBatchStoreWriteThrough(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs := latencySweep(t, 9)

	s1 := New(WithStore(st))
	want, err := s1.RunAll(context.Background(), specs...)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Simulations() != int64(len(specs)) {
		t.Fatalf("cold sweep simulated %d, want %d", s1.Simulations(), len(specs))
	}

	s2 := New(WithStore(st))
	results := s2.RunAllTracked(context.Background(), specs...)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("point %d: %v", i, r.Err)
		}
		if r.Source != SourceStore {
			t.Errorf("point %d answered from %v, want store", i, r.Source)
		}
		if !reflect.DeepEqual(r.Report, want[i]) {
			t.Errorf("point %d: stored report differs", i)
		}
	}
	if s2.Simulations() != 0 {
		t.Errorf("warm sweep simulated %d points, want 0", s2.Simulations())
	}
}

// callLog is a store.Dir that records which Backend and TryLocker
// methods a session calls, in order.
type callLog struct {
	*store.Dir
	mu    sync.Mutex
	calls []string
}

func (c *callLog) note(name string) {
	c.mu.Lock()
	c.calls = append(c.calls, name)
	c.mu.Unlock()
}

func (c *callLog) Get(key string) (*stats.Report, store.Tier) {
	c.note("Get")
	return c.Dir.Get(key)
}

func (c *callLog) Put(key string, rep *stats.Report) error {
	c.note("Put")
	return c.Dir.Put(key, rep)
}

func (c *callLog) Do(ctx context.Context, key string, compute func() (*stats.Report, error)) (*stats.Report, store.Tier, error) {
	c.note("Do")
	return c.Dir.Do(ctx, key, compute)
}

func (c *callLog) TryLock(key string) func() {
	c.note("TryLock")
	return c.Dir.TryLock(key)
}

// TestSweepClaimsStoreLocks: a sweep point meets a lockable store
// through its lookup, lock and write (claimDo), and keeps Do's
// cross-process single-flight: a key another process has locked waits
// for that process's record instead of simulating, while the sweep's
// other points simulate and release their locks.
func TestSweepClaimsStoreLocks(t *testing.T) {
	dir, err := store.OpenOptions(t.TempDir(), store.Options{LockPoll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	st := &callLog{Dir: dir}
	specs := latencySweep(t, 3)
	want := soloReports(t, specs)
	keys := make([]string, len(specs))
	for i, spec := range specs {
		p, err := spec.prepare()
		if err != nil {
			t.Fatal(err)
		}
		var ok bool
		if keys[i], ok = spec.persistKey(&p); !ok {
			t.Fatalf("point %d has no persist key", i)
		}
	}

	// One point alone: lookup, claim, write, and no Do.
	s := New(WithStore(st), WithJobs(1))
	if r := s.RunAllTracked(context.Background(), specs[0])[0]; r.Err != nil || r.Source != SourceSim {
		t.Fatalf("cold point: source %v, err %v", r.Source, r.Err)
	}
	if got := []string{"Get", "TryLock", "Put"}; !reflect.DeepEqual(st.calls, got) {
		t.Errorf("cold sweep point called %v, want %v", st.calls, got)
	}

	// Another process holds point 2's lock while computing it.
	held := dir.TryLock(keys[2])
	if held == nil {
		t.Fatal("could not take the other process's lock")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan []Result)
	go func() { done <- s.RunAllTracked(ctx, specs...) }()
	for {
		if _, tier := dir.Get(keys[1]); tier.Hit() {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("point 1 was never written")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("the sweep finished while point 2 was locked elsewhere")
	default:
	}
	if err := dir.Put(keys[2], want[2]); err != nil {
		t.Fatal(err)
	}
	held()
	results := <-done
	for i, src := range []Source{SourceMemo, SourceSim, SourceStore} {
		r := results[i]
		if r.Err != nil || r.Source != src || !reflect.DeepEqual(r.Report, want[i]) {
			t.Errorf("point %d: source %v (want %v), err %v, report equal %v", i, r.Source, src, r.Err, reflect.DeepEqual(r.Report, want[i]))
		}
	}
	if s.Simulations() != 2 {
		t.Errorf("simulated %d points, want 2 (point 2 came from the lock holder)", s.Simulations())
	}
	for i, key := range keys {
		release := dir.TryLock(key)
		if release == nil {
			t.Errorf("point %d's lock is still held after the sweep", i)
			continue
		}
		release()
	}
}

// TestRunAllBatchGrouping: a sweep that interleaves two supplies (solo
// and two-job queue points over one workload) returns exactly what
// each point's own Run returns, in input order.
func TestRunAllBatchGrouping(t *testing.T) {
	w := testWorkload(t)
	var specs []RunSpec
	for i := 0; i < 3; i++ {
		specs = append(specs,
			Solo(w, WithMemLatency(40+i)),
			Queue([]*workload.Workload{w, w}, WithContexts(2), WithMemLatency(40+i)),
		)
	}
	want := soloReports(t, specs)
	got, err := New().RunAll(context.Background(), specs...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("point %d (%s): sweep report differs from its own Run", i, specs[i].Mode())
		}
	}
}

// TestBatchObserverBypass: an observer-carrying point in a sweep
// bypasses the memo and simulates, its observer sees events, and its
// report equals the plain point's.
func TestBatchObserverBypass(t *testing.T) {
	w := testWorkload(t)
	var seen atomic.Int64
	obs := core.ProgressFunc(func(now core.Cycle, dispatched int64) { seen.Add(1) })
	specs := []RunSpec{
		Solo(w, WithMemLatency(60)),
		Solo(w, WithMemLatency(60), WithObserver(obs), WithProgressStride(64)),
		Solo(w, WithMemLatency(61)),
	}
	s := New()
	results := s.RunAllTracked(context.Background(), specs...)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("point %d: %v", i, r.Err)
		}
	}
	if seen.Load() == 0 {
		t.Error("observer saw no events")
	}
	if results[1].Source != SourceSim {
		t.Errorf("observer point answered from %v, want sim", results[1].Source)
	}
	if !reflect.DeepEqual(results[0].Report, results[1].Report) {
		t.Error("observer point's report differs from plain point")
	}
}

// sweepKernel compiles a small vector-plus-scalar kernel for the
// compiled-sweep tests.
func sweepKernel(t testing.TB) *vcomp.Compiled {
	t.Helper()
	x := &kernel.Array{Name: "x", Base: 0x10000, Stride: 8}
	y := &kernel.Array{Name: "y", Base: 0x20000, Stride: 8}
	c, err := vcomp.Compile(&kernel.Kernel{Name: "daxpy-setup", Units: []kernel.Unit{
		&kernel.VectorLoop{Name: "daxpy", Body: []kernel.Stmt{{
			Dst: y,
			E: &kernel.Bin{Op: kernel.Add,
				L: &kernel.Bin{Op: kernel.Mul, L: &kernel.ScalarArg{Name: "a"}, R: &kernel.Ref{Arr: x}},
				R: &kernel.Ref{Arr: y}},
		}}},
		&kernel.ScalarLoop{Name: "setup", Loads: 2, Stores: 1, IntOps: 3, FPOps: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRunAllSharesCompiledTrace: the points of one RunAll call over a
// compiled kernel's workload synthesize its trace once, at any gate
// width, and still report exactly what eight solo Runs report.
func TestRunAllSharesCompiledTrace(t *testing.T) {
	c := sweepKernel(t)
	sched := []vcomp.Invocation{{Unit: 1, N: 256}, {Unit: 0, N: 1 << 11}, {Unit: 1, N: 256}}
	// sweep wraps the kernel in a fresh workload whose deferred trace
	// counts its syntheses.
	sweep := func(syntheses *atomic.Int64) []RunSpec {
		w, err := workload.FromCompiled(c, sched)
		if err != nil {
			t.Fatal(err)
		}
		w.Trace = trace.Deferred(w.Trace.Prog, w.Trace.MaxVL, func() (*trace.Trace, error) {
			syntheses.Add(1)
			return c.Trace(sched)
		})
		specs := make([]RunSpec, 8)
		for i := range specs {
			specs[i] = Solo(w, WithMemLatency(30+10*i))
		}
		return specs
	}
	var unused atomic.Int64
	want := soloReports(t, sweep(&unused))
	for _, jobs := range []int{1, 2} {
		var syntheses atomic.Int64
		got, err := New(WithJobs(jobs)).RunAll(context.Background(), sweep(&syntheses)...)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if n := syntheses.Load(); n != 1 {
			t.Errorf("jobs=%d: 8-point compiled sweep synthesized the trace %d times, want 1", jobs, n)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("jobs=%d: point %d: RunAll report differs from solo Run", jobs, i)
			}
		}
	}
}
