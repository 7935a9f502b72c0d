package mtvec_test

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mtvec"
	"mtvec/internal/core"
)

// reportsEqual compares two Reports for byte-identity of every metric.
func reportsEqual(t *testing.T, name string, a, b *mtvec.Report) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s: reports differ:\n direct  %+v\n session %+v", name, a, b)
	}
}

// directRun is the reference every Session spelling is held to: a
// machine built from cfg, fed by attach, run to stop.
func directRun(t *testing.T, cfg mtvec.Config, stop mtvec.Stop, attach func(m *mtvec.Machine) error) *mtvec.Report {
	t.Helper()
	m, err := mtvec.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := attach(m); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(stop)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSessionMatchesDirectMachine: for each methodology, Session.Run
// reproduces a hand-built machine run byte for byte, both via
// WithConfig and via the granular options.
func TestSessionMatchesDirectMachine(t *testing.T) {
	tf, sd := build(t, "tf"), build(t, "sd")
	ctx := context.Background()
	ses := mtvec.NewSession()
	check := func(name string, want *mtvec.Report, specs ...mtvec.RunSpec) {
		t.Helper()
		for _, spec := range specs {
			rep, err := ses.Run(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			reportsEqual(t, name, want, rep)
		}
	}

	// Solo.
	cfg := mtvec.DefaultConfig()
	want := directRun(t, cfg, mtvec.Stop{}, func(m *mtvec.Machine) error {
		return m.SetThreadStream(0, tf.Spec.Short, tf.Stream())
	})
	check("solo", want,
		mtvec.Solo(tf, mtvec.WithConfig(cfg)),
		mtvec.Solo(tf))

	// Group: thread 0 runs once while its companion restarts.
	gcfg := mtvec.DefaultConfig()
	gcfg.Contexts = 2
	want = directRun(t, gcfg, mtvec.Stop{Thread0Complete: true}, func(m *mtvec.Machine) error {
		if err := m.SetThreadStream(0, tf.Spec.Short, tf.Stream()); err != nil {
			return err
		}
		return m.SetThread(1, core.Repeat(sd.Spec.Short, sd.Stream))
	})
	check("group", want,
		mtvec.Group(tf, []*mtvec.Workload{sd}, mtvec.WithConfig(gcfg)),
		mtvec.Group(tf, []*mtvec.Workload{sd}),
		mtvec.Group(tf, []*mtvec.Workload{sd}, mtvec.WithContexts(2)))

	// Queue, with spans captured by an attached recorder.
	ws := []*mtvec.Workload{tf, sd}
	rec := &mtvec.SpanRecorder{}
	qcfg := mtvec.DefaultConfig()
	qcfg.Contexts = 2
	qcfg.Observers = []mtvec.Observer{rec}
	want = directRun(t, qcfg, mtvec.Stop{}, func(m *mtvec.Machine) error {
		q := core.NewJobQueue()
		for _, w := range ws {
			q.Add(w.Spec.Short, w.Stream)
		}
		src := q.Source()
		for i := 0; i < 2; i++ {
			if err := m.SetThread(i, src); err != nil {
				return err
			}
		}
		return nil
	})
	want.Spans = rec.Spans
	qcfg.Observers = nil
	check("queue", want,
		mtvec.Queue(ws, mtvec.WithConfig(qcfg), mtvec.WithSpans()),
		mtvec.Queue(ws, mtvec.WithContexts(2), mtvec.WithSpans()))

	// A compiled kernel is a workload: alone, and as two queued
	// instances on two contexts.
	c := compileDaxpy(t)
	sched := []mtvec.Invocation{{Unit: 0, N: 4096}}
	tr, err := c.Trace(sched)
	if err != nil {
		t.Fatal(err)
	}
	daxpy, err := mtvec.CompiledWorkload(c, sched)
	if err != nil {
		t.Fatal(err)
	}
	want = directRun(t, cfg, mtvec.Stop{}, func(m *mtvec.Machine) error {
		return m.SetThreadStream(0, c.Prog.Name, tr.Stream())
	})
	check("compiled", want,
		mtvec.Solo(daxpy, mtvec.WithConfig(cfg)),
		mtvec.Solo(daxpy))
	want = directRun(t, gcfg, mtvec.Stop{}, func(m *mtvec.Machine) error {
		for i := 0; i < 2; i++ {
			if err := m.SetThreadStream(i, c.Prog.Name, tr.Stream()); err != nil {
				return err
			}
		}
		return nil
	})
	check("compiled queue", want,
		mtvec.Queue([]*mtvec.Workload{daxpy, daxpy}, mtvec.WithConfig(gcfg)),
		mtvec.Queue([]*mtvec.Workload{daxpy, daxpy}, mtvec.WithContexts(2)))
}

func compileDaxpy(t *testing.T) *mtvec.Compiled {
	t.Helper()
	x := &mtvec.Array{Name: "x", Base: 0x10000, Stride: 8}
	y := &mtvec.Array{Name: "y", Base: 0x20000, Stride: 8}
	kern := &mtvec.Kernel{Name: "daxpy"}
	kern.Units = append(kern.Units, &mtvec.VectorLoop{
		Name: "daxpy",
		Body: []mtvec.Stmt{{
			Dst: y,
			E: &mtvec.Bin{Op: mtvec.Add,
				L: &mtvec.Bin{Op: mtvec.Mul, L: &mtvec.ScalarArg{Name: "a"}, R: &mtvec.Ref{Arr: x}},
				R: &mtvec.Ref{Arr: y}},
		}},
	})
	c, err := mtvec.CompileKernel(kern)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSessionCancellation: a cancelled run returns ctx.Err() and never a
// partial Report, and cancellation does not perturb determinism — the
// same spec re-run on a live context is byte-identical to an
// uncancelled run.
func TestSessionCancellation(t *testing.T) {
	w := build(t, "tf")
	ses := mtvec.NewSession()

	want, err := ses.Run(context.Background(), mtvec.Solo(w))
	if err != nil {
		t.Fatal(err)
	}

	// Already-cancelled context: error before any simulation.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := ses.Run(cancelled, mtvec.Solo(w, mtvec.WithMemLatency(77)))
	if rep != nil || err != context.Canceled {
		t.Fatalf("cancelled run: rep=%v err=%v, want nil/context.Canceled", rep, err)
	}

	// Cancellation arriving mid-run: ctx.Err(), no partial report. A
	// progress observer cancels at the first stride boundary, so the
	// cancellation deterministically lands while the machine is running.
	fresh := mtvec.NewSession()
	midCtx, midCancel := context.WithCancel(context.Background())
	defer midCancel()
	obs := mtvec.ProgressFunc(func(now, insts int64) { midCancel() })
	rep, err = fresh.Run(midCtx, mtvec.Solo(w,
		mtvec.WithObserver(obs), mtvec.WithProgressStride(1024)))
	if rep != nil || err != context.Canceled {
		t.Fatalf("mid-run cancel: rep=%v err=%v, want nil/context.Canceled", rep, err)
	}

	// The cancellation must not poison the cache: the same spec on a
	// live context simulates and matches the uncancelled result.
	rep, err = fresh.Run(context.Background(), mtvec.Solo(w))
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "post-cancel retry", want, rep)
}

// TestRunSpecValidation: every invalid option or combination yields a
// diagnostic error naming the problem, before anything simulates.
func TestRunSpecValidation(t *testing.T) {
	w := build(t, "tf")
	cases := []struct {
		name string
		spec mtvec.RunSpec
		want string
	}{
		{"nil workload", mtvec.Solo(nil), "workload"},
		{"zero contexts", mtvec.Solo(w, mtvec.WithContexts(0)), "contexts 0 out of range"},
		{"too many contexts", mtvec.Solo(w, mtvec.WithContexts(99)), "out of range"},
		{"bad latency", mtvec.Solo(w, mtvec.WithMemLatency(0)), "latency"},
		{"negative scalar latency", mtvec.Solo(w, mtvec.WithScalarLatency(-1)), "scalar latency"},
		{"bad xbar", mtvec.Solo(w, mtvec.WithXbar(0)), "crossbar"},
		{"unknown policy", mtvec.Solo(w, mtvec.WithPolicy("fifo")), "unknown policy"},
		{"nil policy instance", mtvec.Solo(w, mtvec.WithPolicyInstance(nil)), "nil policy"},
		{"dual-scalar contexts", mtvec.Solo(w, mtvec.WithContexts(3), mtvec.WithDualScalar(true)), "dual-scalar"},
		{"issue width zero", mtvec.Solo(w, mtvec.WithIssueWidth(0)), "issue width"},
		{"issue width beyond contexts", mtvec.Solo(w, mtvec.WithIssueWidth(4)), "issue width"},
		{"bad ports", mtvec.Solo(w, mtvec.WithMemPorts(0, 1)), "ports"},
		{"bad banks", mtvec.Solo(w, mtvec.WithMemBanks(0, 1)), "bank"},
		{"non-pow2 banks", mtvec.Solo(w, mtvec.WithMemBanks(3, 1)), "power of two"},
		{"nil observer", mtvec.Solo(w, mtvec.WithObserver(nil)), "observer"},
		{"negative stride", mtvec.Solo(w, mtvec.WithProgressStride(-1)), "stride"},
		{"negative max cycles", mtvec.Solo(w, mtvec.WithMaxCycles(-1)), "cycle"},
		{"negative max insts", mtvec.Solo(w, mtvec.WithMaxThread0Insts(-1)), "instruction"},
		{"group context mismatch", mtvec.Group(w, nil, mtvec.WithContexts(3)), "contexts"},
		{"group nil companion", mtvec.Group(w, []*mtvec.Workload{nil}), "companion"},
		{"empty queue", mtvec.Queue(nil), "at least one"},
		{"no mode", mtvec.RunSpec{}, "no mode"},
	}
	ses := mtvec.NewSession()
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want containing %q", c.name, err, c.want)
			continue
		}
		if rep, rerr := ses.Run(context.Background(), c.spec); rep != nil || rerr == nil {
			t.Errorf("%s: Run returned rep=%v err=%v for invalid spec", c.name, rep, rerr)
		}
	}

	// Multiple problems surface together in one joined diagnostic.
	err := mtvec.Solo(w, mtvec.WithMemLatency(0), mtvec.WithPolicy("fifo")).Validate()
	if err == nil || !strings.Contains(err.Error(), "latency") || !strings.Contains(err.Error(), "policy") {
		t.Errorf("joined diagnostics missing: %v", err)
	}
}

// TestSessionMemoization: the same spec requested by many concurrent
// callers simulates exactly once, and all callers share the instance.
func TestSessionMemoization(t *testing.T) {
	w := build(t, "sd")
	ses := mtvec.NewSession()
	const goroutines = 16
	reports := make([]*mtvec.Report, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = ses.Run(context.Background(), mtvec.Solo(w, mtvec.WithMemLatency(60)))
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if reports[i] != reports[0] {
			t.Fatal("concurrent requesters got different report instances")
		}
	}
	if n := ses.Simulations(); n != 1 {
		t.Fatalf("%d simulations for one spec under contention", n)
	}

	// A distinct spec is a distinct simulation; an identical one is not.
	if _, err := ses.Run(context.Background(), mtvec.Solo(w, mtvec.WithMemLatency(61))); err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Run(context.Background(), mtvec.Solo(w, mtvec.WithMemLatency(60))); err != nil {
		t.Fatal(err)
	}
	if n := ses.Simulations(); n != 2 {
		t.Fatalf("simulations = %d, want 2", n)
	}

	// Observer-carrying specs bypass the cache: observation is a side
	// effect that must happen on every Run.
	var calls int
	obs := mtvec.ProgressFunc(func(now, insts int64) { calls++ })
	spec := mtvec.Solo(w, mtvec.WithMemLatency(60), mtvec.WithObserver(obs), mtvec.WithProgressStride(1024))
	for i := 0; i < 2; i++ {
		if _, err := ses.Run(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	}
	if n := ses.Simulations(); n != 4 {
		t.Fatalf("observer specs should always simulate: simulations = %d, want 4", n)
	}
	if calls == 0 {
		t.Fatal("observer never called")
	}
}

// TestSessionRunAll: batch results arrive in input order and memoize
// across the batch; a WithoutMemo session simulates every request.
func TestSessionRunAll(t *testing.T) {
	tf, sd := build(t, "tf"), build(t, "sd")
	ses := mtvec.NewSession(mtvec.WithJobs(4))
	specs := []mtvec.RunSpec{
		mtvec.Solo(tf),
		mtvec.Solo(sd),
		mtvec.Solo(tf), // duplicate: shared, not re-simulated
		mtvec.Queue([]*mtvec.Workload{tf, sd}, mtvec.WithContexts(2)),
	}
	reps, err := ses.RunAll(context.Background(), specs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(specs) {
		t.Fatalf("got %d reports", len(reps))
	}
	if reps[0] != reps[2] {
		t.Fatal("duplicate specs in a batch should share one simulation")
	}
	if n := ses.Simulations(); n != 3 {
		t.Fatalf("simulations = %d, want 3", n)
	}

	serial := mtvec.NewSession(mtvec.WithJobs(1))
	sreps, err := serial.RunAll(context.Background(), specs...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reps {
		reportsEqual(t, "jobs=1 vs jobs=4", reps[i], sreps[i])
	}

	plain := mtvec.NewSession(mtvec.WithoutMemo())
	if _, err := plain.RunAll(context.Background(), specs[:3]...); err != nil {
		t.Fatal(err)
	}
	if n := plain.Simulations(); n != 3 {
		t.Fatalf("memo-less session simulations = %d, want 3", n)
	}
}

// TestSessionObserverEvents: spans streamed via observer match the
// report's span capture, and thread switches are observed on a
// multithreaded run.
func TestSessionObserverEvents(t *testing.T) {
	tf, sd := build(t, "tf"), build(t, "sd")
	ws := []*mtvec.Workload{tf, sd}

	rec := &mtvec.SpanRecorder{}
	switches := &mtvec.SwitchCounter{}
	rep, err := mtvec.NewSession().Run(context.Background(),
		mtvec.Queue(ws, mtvec.WithContexts(2), mtvec.WithSpans(), mtvec.WithObserver(rec, switches)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Spans) == 0 || !reflect.DeepEqual(rep.Spans, rec.Spans) {
		t.Fatalf("observer spans %v != report spans %v", rec.Spans, rep.Spans)
	}
	if switches.Switches == 0 {
		t.Fatal("no thread switches observed on a 2-context queue run")
	}
}
