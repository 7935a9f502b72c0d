package core

import (
	"fmt"
	"reflect"
	"testing"

	"mtvec/internal/isa"
	"mtvec/internal/prog"
	"mtvec/internal/sched"
	"mtvec/internal/stats"
)

// mixedProgram builds a program exercising every dispatch kind: vector
// memory, chained vector arithmetic on both FUs, a reduction, scalar
// dependence chains, scalar memory and control. Variants reorder and
// reshape the block so different contexts genuinely contend for the
// shared units and block at different times.
func mixedProgram(variant int) *prog.Program {
	base := []isa.Inst{
		{Op: isa.OpSetVL, Src1: isa.A(7)},
		{Op: isa.OpVLoad, Dst: isa.V(0), Src1: isa.A(0)},
		{Op: isa.OpVMul, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(0)}, // FU2-only
		{Op: isa.OpVAdd, Dst: isa.V(4), Src1: isa.V(0), Src2: isa.V(2)},
		{Op: isa.OpVStore, Src1: isa.V(4), Src2: isa.A(1)},
		{Op: isa.OpVRedAdd, Dst: isa.S(1), Src1: isa.V(2)},
		{Op: isa.OpSLoad, Dst: isa.S(2), Src1: isa.A(2)},
		{Op: isa.OpSAdd, Dst: isa.S(3), Src1: isa.S(1), Src2: isa.S(2)},
		{Op: isa.OpAAdd, Dst: isa.A(0), Src1: isa.A(0), Src2: isa.Imm()},
		{Op: isa.OpBr, Src1: isa.S(3)},
	}
	switch variant % 3 {
	case 1: // scalar-heavy: stretch the serial section
		extra := []isa.Inst{
			{Op: isa.OpSMul, Dst: isa.S(4), Src1: isa.S(3), Src2: isa.S(2)},
			{Op: isa.OpSDiv, Dst: isa.S(5), Src1: isa.S(4), Src2: isa.S(2)},
			{Op: isa.OpSStore, Src1: isa.S(5), Src2: isa.A(2)},
		}
		base = append(base[:9:9], append(extra, base[9:]...)...)
	case 2: // memory-heavy: a second load stream and a gather
		extra := []isa.Inst{
			{Op: isa.OpVLoad, Dst: isa.V(6), Src1: isa.A(3)},
			{Op: isa.OpVGather, Dst: isa.V(1), Src1: isa.A(4), Src2: isa.V(6)},
			{Op: isa.OpVSub, Dst: isa.V(3), Src1: isa.V(1), Src2: isa.V(6)},
		}
		base = append(base[:5:5], append(extra, base[5:]...)...)
	}
	return mkProgram("mix", base...)
}

// mixedStream replays variant's program reps times with varying vector
// lengths and distinct address streams per context.
func mixedStream(variant, reps int) *prog.Stream {
	p := mixedProgram(variant)
	memOps := 0
	for _, in := range p.Blocks[0].Insts {
		if in.Op.IsMem() {
			memOps++
		}
	}
	vls := make([]int64, reps)
	for i := range vls {
		vls[i] = []int64{128, 64, 17, 96, 5}[i%5]
	}
	addrs := make([]uint64, reps*memOps)
	for i := range addrs {
		addrs[i] = uint64(0x10000 + variant*0x100000 + i*512)
	}
	return streamOf(p, reps, vls, nil, addrs)
}

// runMixed runs the mixed workload and returns the report plus the first
// attached eventLog (nil when none).
func runMixed(t *testing.T, policy string, contexts int, disableFF bool, observers ...Observer) (*stats.Report, *eventLog) {
	t.Helper()
	cfg := testConfig(contexts)
	cfg.Policy = sched.ByName(policy)
	cfg.DisableFastForward = disableFF
	cfg.ProgressStride = 512
	cfg.Observers = observers
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Mixed supply: dedicated streams on the first contexts, a shared
	// job queue on the last so exhaustion and job-pull paths run too.
	q := NewJobQueue()
	q.Add("qa", func() *prog.Stream { return mixedStream(2, 6) })
	q.Add("qb", func() *prog.Stream { return mixedStream(0, 4) })
	for i := 0; i < contexts; i++ {
		if i == contexts-1 && contexts > 1 {
			if err := m.SetThread(i, q.Source()); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := m.SetThreadStream(i, "mix", mixedStream(i, 8+2*i)); err != nil {
			t.Fatal(err)
		}
	}
	name := fmt.Sprintf("mixed/%s/ctx%d/ff=%t/obs%d", policy, contexts, !disableFF, len(observers))
	rep, err := runGuarded(t, name, Stop{}, m.Run)
	if err != nil {
		t.Fatal(err)
	}
	return rep, firstLog(observers)
}

func firstLog(obs []Observer) *eventLog {
	for _, o := range obs {
		if l, ok := o.(*eventLog); ok {
			return l
		}
	}
	return nil
}

// TestObserverInvariance is the fast-forward-era observation contract:
// attaching observers never perturbs the simulated outcome, and the
// event sequence itself does not depend on which other observers are
// attached — across every policy, 1-4 contexts, and both engine modes
// (event-driven fast-forward and cycle-by-cycle stepping).
func TestObserverInvariance(t *testing.T) {
	for _, policy := range sched.Names() {
		for contexts := 1; contexts <= 4; contexts++ {
			for _, disableFF := range []bool{false, true} {
				bare, _ := runMixed(t, policy, contexts, disableFF)
				logB := &eventLog{}
				observed, gotB := runMixed(t, policy, contexts, disableFF, logB)
				logC := &eventLog{}
				crowded, gotC := runMixed(t, policy, contexts, disableFF,
					logC, &SwitchCounter{}, &SpanRecorder{})

				if !reflect.DeepEqual(bare, observed) {
					t.Errorf("%s/%d-ctx/ff=%t: attaching an observer changed the report",
						policy, contexts, !disableFF)
				}
				if !reflect.DeepEqual(bare, crowded) {
					t.Errorf("%s/%d-ctx/ff=%t: attaching three observers changed the report",
						policy, contexts, !disableFF)
				}
				if !reflect.DeepEqual(gotB, gotC) {
					t.Errorf("%s/%d-ctx/ff=%t: event sequence depends on the observer set",
						policy, contexts, !disableFF)
				}
				if len(gotB.spans) == 0 || len(gotB.progress) == 0 {
					t.Errorf("%s/%d-ctx/ff=%t: expected spans and progress events, got %d/%d",
						policy, contexts, !disableFF, len(gotB.spans), len(gotB.progress))
				}
			}
		}
	}
}
