package core

import (
	"context"
	"math/rand"
	"testing"

	"mtvec/internal/isa"
	"mtvec/internal/prog"
	"mtvec/internal/sched"
	"mtvec/internal/stats"
)

// loadUseProgram builds a memory-bound program with a non-chainable
// load-use dependence per iteration — the pattern that leaves the memory
// port idle on the reference machine and that multithreading fills.
func loadUseProgram() *prog.Program {
	return mkProgram("loaduse",
		isa.Inst{Op: isa.OpVLoad, Dst: isa.V(0), Src1: isa.A(0)},
		isa.Inst{Op: isa.OpVAdd, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(4)},
		isa.Inst{Op: isa.OpVStore, Src1: isa.V(2), Src2: isa.A(1)},
	)
}

func loadUseStream(reps int) *prog.Stream {
	return streamOf(loadUseProgram(), reps, nil, nil, manyAddrs(2*reps))
}

// runThreads runs the same load-use program once per context.
func runThreads(t *testing.T, cfg Config, reps int) *stats.Report {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Contexts; i++ {
		if err := m.SetThreadStream(i, "loaduse", loadUseStream(reps)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := m.Run(Stop{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestMultithreadingHidesLatency(t *testing.T) {
	reps := 20
	single := runThreads(t, testConfig(1), reps)
	dual := runThreads(t, testConfig(2), reps)

	// Two programs' worth of work must cost less than twice one
	// program (latency hiding) but at least as much as one.
	if dual.Cycles >= 2*single.Cycles {
		t.Fatalf("2-thread run (%d) not faster than sequential (%d)", dual.Cycles, 2*single.Cycles)
	}
	if dual.Cycles <= single.Cycles {
		t.Fatalf("2-thread run (%d) impossibly fast vs single (%d)", dual.Cycles, single.Cycles)
	}
	// Memory-port occupation must rise.
	if dual.MemOccupation() <= single.MemOccupation() {
		t.Fatalf("occupation did not improve: %f vs %f", dual.MemOccupation(), single.MemOccupation())
	}
}

func TestFourContextsKeepImproving(t *testing.T) {
	reps := 12
	occ := make([]float64, 0, 3)
	for _, n := range []int{1, 2, 4} {
		rep := runThreads(t, testConfig(n), reps)
		occ = append(occ, rep.MemOccupation())
	}
	if !(occ[0] < occ[1] && occ[1] < occ[2]) {
		t.Fatalf("occupation not monotonic in contexts: %v", occ)
	}
}

func TestUnfairFavorsThreadZero(t *testing.T) {
	// Thread 0 with a companion should finish close to its solo time.
	reps := 20
	solo := runThreads(t, testConfig(1), reps)

	m, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetThreadStream(0, "primary", loadUseStream(reps)); err != nil {
		t.Fatal(err)
	}
	if err := m.SetThread(1, Repeat("companion", func() *prog.Stream { return loadUseStream(reps) })); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(Stop{Thread0Complete: true})
	if err != nil {
		t.Fatal(err)
	}
	slowdown := float64(rep.Cycles) / float64(solo.Cycles)
	if slowdown > 1.35 {
		t.Fatalf("thread 0 slowed down %.2fx under unfair policy", slowdown)
	}
	// The companion must have made real progress meanwhile.
	if rep.Threads[1].Dispatched == 0 {
		t.Fatal("companion thread starved completely")
	}
}

func TestRepeatRestartsCompanion(t *testing.T) {
	// A long thread-0 program with a short companion: the companion
	// restarts several times (Section 4.1 methodology).
	m, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetThreadStream(0, "long", loadUseStream(30)); err != nil {
		t.Fatal(err)
	}
	if err := m.SetThread(1, Repeat("short", func() *prog.Stream { return loadUseStream(2) })); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(Stop{Thread0Complete: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Threads[1].Completions < 2 {
		t.Fatalf("companion completed %d runs, want several", rep.Threads[1].Completions)
	}
	if rep.Threads[0].Completions != 1 {
		t.Fatalf("thread 0 completions = %d, want 1", rep.Threads[0].Completions)
	}
}

func TestJobQueueDrainsInOrder(t *testing.T) {
	q := NewJobQueue()
	for _, name := range []string{"j0", "j1", "j2", "j3", "j4"} {
		name := name
		q.Add(name, func() *prog.Stream { return loadUseStream(4) })
	}
	rec := &SpanRecorder{}
	cfg := testConfig(2)
	cfg.Observers = []Observer{rec}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := q.Source()
	m.SetThread(0, src)
	m.SetThread(1, src)
	if _, err := m.Run(Stop{}); err != nil {
		t.Fatal(err)
	}
	spans := rec.Spans
	if len(spans) != 5 {
		t.Fatalf("spans = %d, want 5 (one per job)", len(spans))
	}
	seen := map[string]bool{}
	for _, sp := range spans {
		if sp.End <= sp.Start {
			t.Errorf("span %v is empty", sp)
		}
		seen[sp.Program] = true
	}
	if len(seen) != 5 {
		t.Fatalf("distinct programs in spans = %d", len(seen))
	}
	// First two jobs start on threads 0 and 1.
	if spans[0].Start != 0 && spans[1].Start != 0 {
		t.Error("initial jobs should start at cycle 0")
	}
}

func TestStopMaxThread0Insts(t *testing.T) {
	m, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	m.SetThreadStream(0, "p", loadUseStream(50))
	rep, err := m.Run(Stop{MaxThread0Insts: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Threads[0].Dispatched != 10 {
		t.Fatalf("dispatched = %d, want exactly 10", rep.Threads[0].Dispatched)
	}
	full := runThreads(t, testConfig(1), 50)
	if rep.Cycles >= full.Cycles {
		t.Fatal("partial run should cost less than the full run")
	}
}

func TestStopMaxCycles(t *testing.T) {
	m, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	m.SetThreadStream(0, "p", loadUseStream(1000))
	rep, err := m.Run(Stop{MaxCycles: 500})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles < 500 || rep.Cycles > 1200 {
		t.Fatalf("cycles = %d with MaxCycles 500", rep.Cycles)
	}
}

// TestMachineSingleUse: a machine runs once. A second Run or
// RunContext returns an error and no Report.
func TestMachineSingleUse(t *testing.T) {
	m, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	m.SetThreadStream(0, "p", loadUseStream(1))
	if _, err := m.Run(Stop{}); err != nil {
		t.Fatal(err)
	}
	if rep, err := m.Run(Stop{}); rep != nil || err == nil {
		t.Errorf("second Run = (%v, %v), want no report and an error", rep, err)
	}
	if rep, err := m.RunContext(context.Background(), Stop{}); rep != nil || err == nil {
		t.Errorf("RunContext after Run = (%v, %v), want no report and an error", rep, err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *stats.Report {
		m, _ := New(testConfig(3))
		for i := 0; i < 3; i++ {
			m.SetThreadStream(i, "p", loadUseStream(15))
		}
		rep, err := m.Run(Stop{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.MemBusyCycles != b.MemBusyCycles ||
		a.Insts != b.Insts || a.LostDecode != b.LostDecode || a.Breakdown != b.Breakdown {
		t.Fatalf("nondeterministic runs:\n%+v\n%+v", a, b)
	}
}

func TestDualScalarBeatsSharedDecodeOnScalarCode(t *testing.T) {
	// Two scalar-heavy threads: the Fujitsu-style machine decodes both
	// per cycle; the shared-decode multithreaded machine alternates.
	scalarProg := mkProgram("scal",
		isa.Inst{Op: isa.OpSAddI, Dst: isa.S(1), Src1: isa.S(2), Src2: isa.S(3)},
		isa.Inst{Op: isa.OpSAddI, Dst: isa.S(4), Src1: isa.S(2), Src2: isa.S(3)},
		isa.Inst{Op: isa.OpSAddI, Dst: isa.S(5), Src1: isa.S(2), Src2: isa.S(3)},
		isa.Inst{Op: isa.OpSAddI, Dst: isa.S(6), Src1: isa.S(2), Src2: isa.S(3)},
	)
	run := func(dual bool) Cycle {
		cfg := testConfig(2)
		cfg.DualScalar = dual
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			m.SetThreadStream(i, "scal", streamOf(scalarProg, 200, nil, nil, nil))
		}
		rep, err := m.Run(Stop{})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Cycles
	}
	shared, dual := run(false), run(true)
	if float64(dual) > 0.6*float64(shared) {
		t.Fatalf("dual scalar %d vs shared %d: expected near-2x speedup on scalar code", dual, shared)
	}
}

func TestIssueWidthTwoHelps(t *testing.T) {
	// The future-work simultaneous-issue knob must help two independent
	// scalar threads roughly like dual-scalar does.
	scalarProg := mkProgram("scal",
		isa.Inst{Op: isa.OpSAddI, Dst: isa.S(1), Src1: isa.S(2), Src2: isa.S(3)},
		isa.Inst{Op: isa.OpSAddI, Dst: isa.S(4), Src1: isa.S(2), Src2: isa.S(3)},
	)
	run := func(width int) Cycle {
		cfg := testConfig(2)
		cfg.IssueWidth = width
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			m.SetThreadStream(i, "scal", streamOf(scalarProg, 300, nil, nil, nil))
		}
		rep, err := m.Run(Stop{})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Cycles
	}
	w1, w2 := run(1), run(2)
	if float64(w2) > 0.6*float64(w1) {
		t.Fatalf("issue width 2 (%d) should nearly halve width 1 (%d)", w2, w1)
	}
}

func TestPolicies(t *testing.T) {
	// All policies must complete the same workload with identical total
	// work; cycle counts may differ.
	for _, name := range sched.Names() {
		cfg := testConfig(3)
		cfg.Policy = sched.ByName(name)
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			m.SetThreadStream(i, "p", loadUseStream(10))
		}
		rep, err := m.Run(Stop{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Insts != 3*30 {
			t.Errorf("%s: insts = %d, want 90", name, rep.Insts)
		}
	}
}

func TestStreamErrorSurfaces(t *testing.T) {
	// An address-trace underrun must turn into a Run error.
	p := mkProgram("bad", isa.Inst{Op: isa.OpVLoad, Dst: isa.V(0), Src1: isa.A(0)})
	s := prog.NewStreamVL(p, &prog.SliceSource{BBs: []int{0, 0}, Addrs: []uint64{1}}, 0)
	m, _ := New(testConfig(1))
	m.SetThreadStream(0, "bad", s)
	if _, err := m.Run(Stop{}); err == nil {
		t.Fatal("stream error not surfaced")
	}
}

func TestReportInvariantsQuick(t *testing.T) {
	// Randomized invariant checking over generated programs: breakdown
	// covers the whole run, occupation and VOPC stay in range, cycles
	// dominate the IDEAL bound.
	ops := []isa.Inst{
		{Op: isa.OpVLoad, Dst: isa.V(0), Src1: isa.A(0)},
		{Op: isa.OpVLoad, Dst: isa.V(4), Src1: isa.A(1)},
		{Op: isa.OpVAdd, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(4)},
		{Op: isa.OpVMul, Dst: isa.V(6), Src1: isa.V(2), Src2: isa.V(4)},
		{Op: isa.OpVStore, Src1: isa.V(2), Src2: isa.A(2)},
		{Op: isa.OpSAddI, Dst: isa.S(1), Src1: isa.S(2), Src2: isa.S(3)},
		{Op: isa.OpSLoad, Dst: isa.S(4), Src1: isa.A(3)},
		{Op: isa.OpBr, Src1: isa.A(4)},
	}
	for trial := 0; trial < 25; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		n := r.Intn(30) + 3
		insts := make([]isa.Inst, n)
		memRefs := 0
		for i := range insts {
			insts[i] = ops[r.Intn(len(ops))]
			if insts[i].Op.IsMem() {
				memRefs++
			}
		}
		p := mkProgram("rand", insts...)
		contexts := r.Intn(4) + 1
		cfg := testConfig(contexts)
		cfg.Mem.Latency = []int{1, 20, 50, 100}[r.Intn(4)]

		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var demand prog.Stats
		for c := 0; c < contexts; c++ {
			src := &prog.SliceSource{BBs: make([]int, 3), Addrs: make([]uint64, 3*memRefs)}
			for i := range src.Addrs {
				src.Addrs[i] = uint64(0x1000 * (i + 1))
			}
			// Account demand with an identical replica stream.
			rsrc := &prog.SliceSource{BBs: make([]int, 3), Addrs: src.Addrs}
			_, st, err := prog.NewStreamVL(p, rsrc, 0).Drain()
			if err != nil {
				t.Fatal(err)
			}
			demand.Merge(&st)
			m.SetThreadStream(c, "rand", prog.NewStreamVL(p, src, 0))
		}
		rep, err := m.Run(Stop{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		if rep.Breakdown.Total() != rep.Cycles {
			t.Fatalf("trial %d: breakdown %d != cycles %d", trial, rep.Breakdown.Total(), rep.Cycles)
		}
		if occ := rep.MemOccupation(); occ < 0 || occ > 1 {
			t.Fatalf("trial %d: occupation %f out of range", trial, occ)
		}
		if v := rep.VOPC(); v < 0 || v > 2 {
			t.Fatalf("trial %d: VOPC %f out of range", trial, v)
		}
		if ideal := demand.IdealCycles(); rep.Cycles < ideal {
			t.Fatalf("trial %d: cycles %d beat the IDEAL bound %d", trial, rep.Cycles, ideal)
		}
		if rep.Insts != demand.Insts() {
			t.Fatalf("trial %d: dispatched %d != expected %d", trial, rep.Insts, demand.Insts())
		}
	}
}

func TestIdealCyclesHelper(t *testing.T) {
	var a, b prog.Stats
	a.ScalarInsts = 100
	a.VectorMemElems = 500
	b.VectorMemElems = 700
	if got := IdealCycles(a, b); got != 1200 {
		t.Fatalf("IdealCycles = %d, want 1200", got)
	}
}

func TestFastForwardEquivalence(t *testing.T) {
	// The all-blocked clock skip must be observationally equivalent to
	// stepping every cycle: identical cycles, breakdown, memory
	// counters, per-thread progress — across context counts, latencies
	// and modes.
	run := func(disable bool, contexts, latency int, dual bool) *stats.Report {
		cfg := testConfig(contexts)
		cfg.Mem.Latency = latency
		cfg.DisableFastForward = disable
		cfg.DualScalar = dual
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < contexts; i++ {
			m.SetThreadStream(i, "p", loadUseStream(12+3*i))
		}
		rep, err := m.Run(Stop{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	cases := []struct {
		contexts, latency int
		dual              bool
	}{
		{1, 50, false}, {1, 100, false}, {2, 1, false}, {2, 50, false},
		{3, 70, false}, {4, 100, false}, {2, 50, true}, {2, 100, true},
	}
	for _, c := range cases {
		fast := run(false, c.contexts, c.latency, c.dual)
		slow := run(true, c.contexts, c.latency, c.dual)
		if fast.Cycles != slow.Cycles || fast.Breakdown != slow.Breakdown ||
			fast.MemBusyCycles != slow.MemBusyCycles || fast.Insts != slow.Insts ||
			fast.LostDecode != slow.LostDecode {
			t.Errorf("case %+v: fast-forward changed observables:\nfast: cyc=%d lost=%d\nslow: cyc=%d lost=%d",
				c, fast.Cycles, fast.LostDecode, slow.Cycles, slow.LostDecode)
		}
		for i := range fast.Threads {
			if fast.Threads[i] != slow.Threads[i] {
				t.Errorf("case %+v thread %d: %+v vs %+v", c, i, fast.Threads[i], slow.Threads[i])
			}
		}
	}
}
