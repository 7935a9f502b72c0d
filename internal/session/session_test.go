package session

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mtvec/internal/arch"
	"mtvec/internal/core"
	"mtvec/internal/vcomp"
	"mtvec/internal/workload"
)

const testScale = 5e-5

var buildOnce = sync.OnceValues(func() (*workload.Workload, error) {
	return workload.ByShort("tf").Build(testScale)
})

func testWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	w, err := buildOnce()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// keySession provides stable artifact identities across keyOf calls
// within the test binary, mirroring how one Session keys its cache.
var keySession = New()

func keyOf(t *testing.T, spec RunSpec) string {
	t.Helper()
	p, err := spec.prepare()
	if err != nil {
		t.Fatal(err)
	}
	if !p.memoizable {
		t.Fatal("spec unexpectedly unmemoizable")
	}
	return spec.memoKey(&p, &keySession.ids)
}

func TestMemoKeyCanonical(t *testing.T) {
	w := testWorkload(t)
	// Two wrappings of one compiled kernel under one schedule are two
	// workloads, so they must not share a memo entry.
	c := sweepKernel(t)
	var wraps [2]*workload.Workload
	for i := range wraps {
		var err error
		if wraps[i], err = workload.FromCompiled(c, []vcomp.Invocation{{Unit: 0, N: 300}}); err != nil {
			t.Fatal(err)
		}
	}

	// Identical specs produce identical keys, independently of how the
	// options are spelled.
	a := keyOf(t, Solo(w, WithMemLatency(50)))
	b := keyOf(t, Solo(w).With(WithMemLatency(50)))
	if a != b {
		t.Fatalf("equivalent specs keyed differently:\n a=%s\n b=%s", a, b)
	}

	// Every knob that can change a Report must change the key.
	distinct := map[string]string{
		"base":     keyOf(t, Solo(w)),
		"latency":  keyOf(t, Solo(w, WithMemLatency(51))),
		"contexts": keyOf(t, Solo(w, WithContexts(2))),
		"xbar":     keyOf(t, Solo(w, WithXbar(3))),
		"policy":   keyOf(t, Solo(w, WithPolicy("lru"))),
		"issue":    keyOf(t, Solo(w, WithContexts(2), WithIssueWidth(2))),
		"ports":    keyOf(t, Solo(w, WithMemPorts(2, 1))),
		"banks":    keyOf(t, Solo(w, WithMemBanks(16, 4))),
		"spans":    keyOf(t, Solo(w, WithSpans())),
		"stop":     keyOf(t, Solo(w, WithMaxCycles(100))),
		"insts":    keyOf(t, Solo(w, WithMaxThread0Insts(10))),
		"queue":    keyOf(t, Queue([]*workload.Workload{w})),
		"wrap 1":   keyOf(t, Solo(wraps[0])),
		"wrap 2":   keyOf(t, Solo(wraps[1])),
		"vlen":     keyOf(t, Solo(w, WithVLen(64))),
		"bankport": keyOf(t, Solo(w, WithBankPorts(1, 1))),
		"regfile":  keyOf(t, Solo(w, WithRegFile(arch.RegFile{VRegs: 8, VLen: 128, VRegsPerBank: 1, BankReadPorts: 2, BankWritePorts: 1}))),
		"arch":     keyOf(t, Solo(w, WithArch(arch.VP2000()), WithVLen(128))),
		"partition": keyOf(t, Solo(w, WithRegFile(arch.RegFile{
			VRegs: 8, VLen: 128, VRegsPerBank: 2, BankReadPorts: 2, BankWritePorts: 1, PartitionPerContext: true,
		}))),
	}
	seen := map[string]string{}
	for name, key := range distinct {
		if prev, dup := seen[key]; dup {
			t.Errorf("%s and %s share a memo key: %s", name, prev, key)
		}
		seen[key] = name
	}

	// The workload list carries its length: each list-bearing key
	// decodes back to its spec's workloads, so no spec with another list
	// can share it.
	for name, spec := range map[string]RunSpec{
		"queue": Queue([]*workload.Workload{w, w, w}, WithContexts(2)),
		"group": Group(w, []*workload.Workload{w}, WithPolicy("lru")),
	} {
		p, err := spec.prepare()
		if err != nil {
			t.Fatal(err)
		}
		if msg := decodeSupplyOK(spec.memoKey(&p, &keySession.ids), spec, &keySession.ids); msg != "" {
			t.Errorf("%s: %s", name, msg)
		}
	}

	// The defaulted shape and its explicit spellings are the same
	// machine, so they must share one memo entry.
	for name, spec := range map[string]RunSpec{
		"explicit preset":  Solo(w, WithArch(arch.ConvexC3400())),
		"explicit regfile": Solo(w, WithRegFile(arch.DefaultRegFile())),
	} {
		if keyOf(t, spec) != distinct["base"] {
			t.Errorf("%s of the reference shape keyed differently from the default", name)
		}
	}
}

func TestWithDoesNotMutateOriginal(t *testing.T) {
	w := testWorkload(t)
	base := Solo(w)
	derived := base.With(WithMemLatency(99))
	if keyOf(t, base) == keyOf(t, derived) {
		t.Fatal("With did not change the derived spec")
	}
	if keyOf(t, base) != keyOf(t, Solo(w)) {
		t.Fatal("With mutated the original spec")
	}
}

func TestObserverSpecHasNoKey(t *testing.T) {
	w := testWorkload(t)
	probe := core.ProgressFunc(func(int64, int64) {})
	p, err := Solo(w, WithObserver(probe)).prepare()
	if err != nil {
		t.Fatal(err)
	}
	if p.memoizable {
		t.Fatal("observer spec is memoizable")
	}
}

// TestWithSpansMatchesRecorder: WithSpans fills Report.Spans with what
// an attached SpanRecorder sees, keeps the spec memoizable, and yields
// to a later WithConfig like any other option.
func TestWithSpansMatchesRecorder(t *testing.T) {
	ctx := context.Background()
	sd, err := workload.ByShort("sd").Build(testScale)
	if err != nil {
		t.Fatal(err)
	}
	ws := []*workload.Workload{testWorkload(t), sd}
	s := New()

	rec := &core.SpanRecorder{}
	observed, src, err := s.RunTracked(ctx, Queue(ws, WithContexts(2), WithObserver(rec)))
	if err != nil || src != SourceSim {
		t.Fatalf("observed run: source %v, err %v", src, err)
	}
	if observed.Spans != nil {
		t.Fatalf("an attached observer filled Report.Spans: %v", observed.Spans)
	}
	rep, src, err := s.RunTracked(ctx, Queue(ws, WithContexts(2), WithSpans()))
	if err != nil || src != SourceSim {
		t.Fatalf("spans run: source %v, err %v", src, err)
	}
	if len(rep.Spans) != 2 || !reflect.DeepEqual(rep.Spans, rec.Spans) {
		t.Fatalf("report spans %v != recorder spans %v", rep.Spans, rec.Spans)
	}
	rest := *rep
	rest.Spans = nil
	if !reflect.DeepEqual(&rest, observed) {
		t.Fatal("span capture changed the rest of the report")
	}

	// The spans are part of the memoized Report; observers are not.
	again, src, err := s.RunTracked(ctx, Queue(ws, WithContexts(2), WithSpans()))
	if err != nil || src != SourceMemo || again != rep {
		t.Fatalf("repeat spans run: source %v, err %v, same report %v", src, err, again == rep)
	}
	if _, src, err := s.RunTracked(ctx, Queue(ws, WithContexts(2), WithObserver(rec))); err != nil || src != SourceSim {
		t.Fatalf("repeat observed run: source %v, err %v", src, err)
	}

	// Later options win: WithConfig after WithSpans drops the capture.
	cfg := core.DefaultConfig()
	cfg.Contexts = 2
	dropped, err := s.Run(ctx, Queue(ws, WithSpans(), WithConfig(cfg)))
	if err != nil {
		t.Fatal(err)
	}
	if dropped.Spans != nil {
		t.Fatalf("WithConfig after WithSpans still captured %d spans", len(dropped.Spans))
	}
	kept, err := s.Run(ctx, Queue(ws, WithConfig(cfg), WithSpans()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kept, rep) {
		t.Fatal("WithSpans after WithConfig differs from the granular spelling")
	}
}

func TestRunNilContext(t *testing.T) {
	w := testWorkload(t)
	rep, err := New().Run(nil, Solo(w)) //nolint:staticcheck // nil ctx is part of the contract
	if err != nil || rep == nil {
		t.Fatalf("nil ctx run: rep=%v err=%v", rep, err)
	}
}

func TestCancelDoesNotPoisonCache(t *testing.T) {
	w := testWorkload(t)
	s := New()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(cancelled, Solo(w)); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	rep, err := s.Run(context.Background(), Solo(w))
	if err != nil || rep == nil {
		t.Fatalf("retry after cancellation failed: rep=%v err=%v", rep, err)
	}
	if n := s.Simulations(); n != 1 {
		t.Fatalf("simulations = %d, want 1 (cancelled attempt never simulated)", n)
	}
}

// TestSpecSharedAcrossConcurrentSessions pins the arch.Spec reuse
// contract: one Spec value (and one RunSpec built from it) may back any
// number of concurrent Sessions, every run sees the same machine, and
// no run mutates the shared value. Run with -race in CI.
func TestSpecSharedAcrossConcurrentSessions(t *testing.T) {
	w := testWorkload(t)
	shape := arch.ConvexC3400()
	shape.VLen = 128
	shape.Mem.Latency = 30
	want := shape // the value no run may disturb

	const sessions = 4
	reps := make([]*struct {
		cycles int64
		err    error
	}, sessions)
	var wg sync.WaitGroup
	for i := range reps {
		reps[i] = &struct {
			cycles int64
			err    error
		}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := New().Run(context.Background(), Solo(w, WithArch(shape)))
			if err != nil {
				reps[i].err = err
				return
			}
			reps[i].cycles = rep.Cycles
		}(i)
	}
	wg.Wait()
	for i, r := range reps {
		if r.err != nil {
			t.Fatalf("session %d: %v", i, r.err)
		}
		if r.cycles != reps[0].cycles {
			t.Fatalf("session %d diverged: %d vs %d cycles", i, r.cycles, reps[0].cycles)
		}
	}
	if !reflect.DeepEqual(shape, want) {
		t.Fatal("a run mutated the shared arch.Spec")
	}
}

func TestValidationListsAllProblems(t *testing.T) {
	w := testWorkload(t)
	err := Solo(w, WithMemLatency(0), WithXbar(0), WithPolicy("nope")).Validate()
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
	for _, want := range []string{"latency", "crossbar", "policy"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
}

// TestPrepareAllocatesNothing pins prepare's cost on the paths every
// warm point takes: the options apply to a build on prepare's stack,
// and a valid config normalizes and validates in place.
func TestPrepareAllocatesNothing(t *testing.T) {
	w := testWorkload(t)
	specs := map[string]RunSpec{
		"solo": Solo(w, WithMemLatency(50)),
		"queue": Queue([]*workload.Workload{w, w, w, w},
			WithContexts(4), WithMemLatency(70), WithXbar(3), WithPolicy("roundrobin")),
	}
	for name, spec := range specs {
		if _, err := spec.prepare(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = spec.prepare() }); n != 0 {
			t.Errorf("%s: prepare allocates %.0f times, want 0", name, n)
		}
	}
}

// TestMemoHitAllocs pins a memo hit to the key it builds: a completed
// entry answers before any compute closure exists, so the plan never
// leaves the stack.
func TestMemoHitAllocs(t *testing.T) {
	w := testWorkload(t)
	s := New()
	spec := Solo(w, WithMemLatency(50))
	ctx := context.Background()
	if _, err := s.Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, src, err := s.RunTracked(ctx, spec); err != nil || src != SourceMemo {
			t.Fatalf("memo hit: src=%v err=%v", src, err)
		}
	})
	if n > 1 {
		t.Errorf("a memo hit allocates %.0f times, want at most 1 (its key)", n)
	}
}

// TestColdPointAllocs pins what a memo-missed solo point allocates once
// the machine pool is warm: the run rebuilds a released machine, so
// what is left is the Report and its Threads, the instruction stream,
// and the thread's job source. Allocating the machine anew adds about
// seven more and 3.8 KB.
func TestColdPointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops machines at random")
	}
	w := testWorkload(t)
	s := New(WithoutMemo(), WithJobs(1))
	spec := Solo(w, WithMemLatency(50))
	ctx := context.Background()
	if _, err := s.Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, src, err := s.RunTracked(ctx, spec); err != nil || src != SourceSim {
			t.Fatalf("cold point: src=%v err=%v", src, err)
		}
	})
	// 5 on Go 1.24.
	const pinned = 5
	if n > pinned {
		t.Errorf("a cold point allocates %.0f times, want at most %d", n, pinned)
	}
}
