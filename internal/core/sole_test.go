package core

import (
	"fmt"
	"reflect"
	"testing"

	"mtvec/internal/prog"
	"mtvec/internal/sched"
	"mtvec/internal/stats"
)

// countingPolicy wraps a built-in policy and records how the decode unit
// consults it: how many Pick calls it made, the fewest threads with work
// any call saw, and how many instructions had dispatched at the last call.
type countingPolicy struct {
	sched.Policy
	calls        int
	minWork      int
	lastPickInst int64
}

func (p *countingPolicy) Pick(v sched.MachineView, current int, blocked bool) int {
	work := 0
	for t := 0; t < v.NumThreads(); t++ {
		if v.HasWork(t) {
			work++
		}
	}
	if p.calls == 0 || work < p.minWork {
		p.minWork = work
	}
	p.calls++
	p.lastPickInst = v.(*Machine).dispatched
	return p.Policy.Pick(v, current, blocked)
}

// Clone hands the machine the wrapper itself, so the test can read the
// counters after the run; the wrapped policy is cloned as usual.
func (p *countingPolicy) Clone() sched.Policy {
	p.Policy = p.Policy.Clone()
	return p
}

// soloRun runs one mixed program on context 0 of a machine whose other
// contexts have no work, the shape of every session Solo point.
func soloRun(t *testing.T, policy sched.Policy, contexts, width int, disableFF bool) *stats.Report {
	t.Helper()
	cfg := testConfig(contexts)
	cfg.Policy = policy
	cfg.IssueWidth = width
	cfg.DisableFastForward = disableFF
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetThreadStream(0, "mix", mixedStream(2, 12)); err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("solo/%s/ctx%d/w%d/ff=%t", m.cfg.Policy.Name(), contexts, width, !disableFF)
	rep, err := runGuarded(t, name, Stop{}, m.Run)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSoloRunNeverPicks: with one program on context 0 and every other
// context drained from the first cycle, the decode unit never has a
// choice, so it never consults the policy.
func TestSoloRunNeverPicks(t *testing.T) {
	for _, name := range sched.Names() {
		for contexts := 1; contexts <= 4; contexts++ {
			for width := 1; width <= min(contexts, 2); width++ {
				p := &countingPolicy{Policy: sched.ByName(name)}
				soloRun(t, p, contexts, width, false)
				if p.calls != 0 {
					t.Errorf("%s/%d-ctx/width %d: Pick called %d times in a solo run", name, contexts, width, p.calls)
				}
			}
		}
	}
}

// TestQueuePicksOnlyWithChoice: a 4-context job queue consults the
// policy while two or more contexts have work, and stops once only one
// does: every Pick saw at least two threads with work, and the lone tail
// of the run dispatched instructions without any Pick.
func TestQueuePicksOnlyWithChoice(t *testing.T) {
	for _, name := range sched.Names() {
		p := &countingPolicy{Policy: sched.ByName(name)}
		cfg := testConfig(4)
		cfg.Policy = p
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		q := NewJobQueue()
		for i, reps := range []int{4, 6, 3, 5, 2, 40} {
			variant, reps := i, reps
			q.Add(fmt.Sprint("j", i), func() *prog.Stream { return mixedStream(variant, reps) })
		}
		for i := 0; i < 4; i++ {
			if err := m.SetThread(i, q.Source()); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := runGuarded(t, "queue/"+name, Stop{}, m.Run)
		if err != nil {
			t.Fatal(err)
		}
		if p.calls == 0 {
			t.Errorf("%s: Pick never called while four contexts had work", name)
		}
		if p.minWork < 2 {
			t.Errorf("%s: Pick called with only %d thread(s) having work", name, p.minWork)
		}
		if p.lastPickInst >= rep.Insts {
			t.Errorf("%s: Pick called until the last dispatch (%d of %d insts); the lone tail should not pick",
				name, p.lastPickInst, rep.Insts)
		}
	}
}

// TestSoloReportsPolicyInvariant: a solo run's Report does not depend on
// the policy, the number of drained contexts beside it, the issue width
// or fast-forward. At k contexts it equals the 1-context Report plus
// k-1 empty thread entries.
func TestSoloReportsPolicyInvariant(t *testing.T) {
	ref := soloRun(t, nil, 1, 1, false)
	for contexts := 1; contexts <= 4; contexts++ {
		want := *ref
		want.Threads = append([]stats.ThreadReport(nil), ref.Threads...)
		for len(want.Threads) < contexts {
			want.Threads = append(want.Threads, stats.ThreadReport{})
		}
		for _, name := range sched.Names() {
			for _, disableFF := range []bool{false, true} {
				for width := 1; width <= min(contexts, 2); width++ {
					got := soloRun(t, sched.ByName(name), contexts, width, disableFF)
					if !reflect.DeepEqual(*got, want) {
						t.Errorf("%s/%d-ctx/width %d/ff=%t: solo report differs from the 1-context reference:\ngot  %+v\nwant %+v",
							name, contexts, width, !disableFF, *got, want)
					}
				}
			}
		}
	}
}
