package core

import (
	"fmt"
	"reflect"
	"testing"

	"mtvec/internal/prog"
	"mtvec/internal/sched"
	"mtvec/internal/stats"
)

// lone_test.go is the differential gate for runSole, the loop a lone
// context runs in. The oracle steps the same configuration through the
// policy path instead: runLoop's cycle loop with every shared-decoder
// cycle going through stepShared and its maybeSkipAhead, the lone thread
// included. Both must produce field-identical Reports and identical
// observer event streams.

// runPolicyPath is the oracle: runLoop (unpaced, uncancelled) without
// the hand-off to runSole.
func runPolicyPath(m *Machine, stop Stop) (*stats.Report, error) {
	if err := m.begin(); err != nil {
		return nil, err
	}
	m.primed = true
	for i := range m.ctxs {
		m.ctxs[i].refill(m)
	}
	c0 := &m.ctxs[0]
	for {
		if stop.MaxCycles > 0 && m.now >= stop.MaxCycles {
			break
		}
		if stop.Thread0Complete && c0.exhausted {
			break
		}
		if stop.MaxThread0Insts > 0 && c0.dispatched >= stop.MaxThread0Insts {
			break
		}
		if m.needRefill {
			m.needRefill = false
			for i := range m.ctxs {
				if c := &m.ctxs[i]; !c.headValid && !c.exhausted {
					c.refill(m)
				}
			}
			if stop.Thread0Complete && c0.exhausted {
				break
			}
		}
		if m.exhaustedCtxs == len(m.ctxs) {
			break
		}
		if m.dual {
			m.stepDualScalar()
		} else {
			m.stepShared()
		}
		m.now++
		if m.hasObs && m.nextProgress <= m.now {
			m.notifyProgress()
		}
	}
	return m.finish(stop)
}

// loneOutcome is everything one run observably produces.
type loneOutcome struct {
	rep *stats.Report
	log *eventLog // nil for an unobserved run
	err error
}

// runPoint runs pt on a fresh machine, through runLoop or through the
// oracle, with an event log attached when observed.
func runPoint(t testing.TB, pt diffPoint, oracle, observed bool) loneOutcome {
	t.Helper()
	cfg := pt.cfg
	var log *eventLog
	if observed {
		log = &eventLog{}
		cfg.Observers = append(append([]Observer(nil), cfg.Observers...), log)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("%s: New: %v", pt.name, err)
	}
	if err := pt.attach(m); err != nil {
		t.Fatalf("%s: attach: %v", pt.name, err)
	}
	run := m.Run
	if oracle {
		run = func(stop Stop) (*stats.Report, error) { return runPolicyPath(m, stop) }
	}
	rep, err := run(pt.stop)
	return loneOutcome{rep: rep, log: log, err: err}
}

// sameOutcome reports how got (runLoop) differs from want (the oracle),
// or "" when they are identical.
func sameOutcome(got, want loneOutcome) string {
	if (got.err == nil) != (want.err == nil) {
		return fmt.Sprintf("err = %v, oracle err = %v", got.err, want.err)
	}
	if got.err != nil {
		if got.err.Error() != want.err.Error() {
			return fmt.Sprintf("err %q != oracle err %q", got.err, want.err)
		}
	} else if !reflect.DeepEqual(*got.rep, *want.rep) {
		return fmt.Sprintf("report differs from the oracle:\ngot    %+v\noracle %+v", *got.rep, *want.rep)
	}
	if !reflect.DeepEqual(got.log, want.log) {
		return fmt.Sprintf("event stream differs from the oracle:\ngot    %+v\noracle %+v", got.log, want.log)
	}
	return ""
}

// checkLone compares runLoop with the oracle on pt, with and without an
// observer attached.
func checkLone(t testing.TB, pt diffPoint) {
	t.Helper()
	for _, observed := range []bool{false, true} {
		got := runPoint(t, pt, false, observed)
		want := runPoint(t, pt, true, observed)
		if d := sameOutcome(got, want); d != "" {
			t.Errorf("%s/observed=%t: %s", pt.name, observed, d)
		}
	}
}

// lonePoints is the solo matrix: one mixed program of reps iterations on
// one context of a machine whose other contexts have no work, under every
// policy, on 1–4 contexts, at issue widths 1–2, with fast-forward on and
// off, on context 0 and on the last context, under every stop rule.
func lonePoints(reps int) []diffPoint {
	stops := []Stop{{}, {MaxCycles: 700}, {MaxThread0Insts: 50}, {Thread0Complete: true}}
	var pts []diffPoint
	for _, name := range sched.Names() {
		for contexts := 1; contexts <= 4; contexts++ {
			for width := 1; width <= min(contexts, 2); width++ {
				for _, disableFF := range []bool{false, true} {
					homes := []int{0}
					if contexts > 1 {
						homes = append(homes, contexts-1)
					}
					for _, home := range homes {
						for si, stop := range stops {
							cfg := testConfig(contexts)
							cfg.Policy = sched.ByName(name)
							cfg.IssueWidth = width
							cfg.DisableFastForward = disableFF
							cfg.ProgressStride = 256
							home := home
							pts = append(pts, diffPoint{
								name: fmt.Sprintf("%s/ctx%d/w%d/ff=%t/home%d/stop%d", name, contexts, width, !disableFF, home, si),
								cfg:  cfg,
								stop: stop,
								attach: func(m *Machine) error {
									return m.SetThreadStream(home, "mix", mixedStream(2, reps))
								},
							})
						}
					}
				}
			}
		}
	}
	return pts
}

// TestLoneLoopMatchesPolicyPath: a solo run in the lone-context loop is
// field-identical to the same run stepped through the switch policy.
func TestLoneLoopMatchesPolicyPath(t *testing.T) {
	for _, pt := range lonePoints(12) {
		checkLone(t, pt)
	}
}

// queueTailPoint is a 4-context job queue whose last job runs long
// (tailReps iterations), so the run ends with one context working alone
// while the others have drained.
func queueTailPoint(policy string, width int, disableFF bool, tailReps int) diffPoint {
	cfg := testConfig(4)
	cfg.Policy = sched.ByName(policy)
	cfg.IssueWidth = width
	cfg.DisableFastForward = disableFF
	cfg.ProgressStride = 256
	return diffPoint{
		name: fmt.Sprintf("queue/%s/w%d/ff=%t", policy, width, !disableFF),
		cfg:  cfg,
		attach: func(m *Machine) error {
			q := NewJobQueue()
			for i, reps := range []int{4, 6, 3, 5, 2, tailReps} {
				variant, reps := i, reps
				q.Add(fmt.Sprint("j", i), func() *prog.Stream { return mixedStream(variant, reps) })
			}
			for i := 0; i < 4; i++ {
				if err := m.SetThread(i, q.Source()); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// TestLoneLoopQueueTail: a job queue hands its drained tail to the
// lone-context loop mid-run, and the run still equals the oracle's. The
// oracle consults the policy on the tail, runLoop does not, so the test
// also checks the tail is long enough to matter.
func TestLoneLoopQueueTail(t *testing.T) {
	for _, name := range sched.Names() {
		for width := 1; width <= 2; width++ {
			for _, disableFF := range []bool{false, true} {
				pt := queueTailPoint(name, width, disableFF, 40)
				checkLone(t, pt)

				var insts [2]int64
				for i, oracle := range []bool{false, true} {
					p := &countingPolicy{Policy: sched.ByName(name)}
					pt.cfg.Policy = p
					out := runPoint(t, pt, oracle, false)
					if out.err != nil {
						t.Fatalf("%s: %v", pt.name, out.err)
					}
					insts[i] = p.lastPickInst
				}
				if insts[1] <= insts[0] {
					t.Errorf("%s: the oracle's last Pick (at %d insts) is not past runLoop's (at %d): no lone tail was compared",
						pt.name, insts[1], insts[0])
				}
			}
		}
	}
}

// TestLoneLoopPaced: lanes of a Batch pause and resume every
// batchWindow instructions, inside the lone-context loop too, and each
// lane still equals the oracle's uninterrupted policy-path run. Every
// lane runs over two windows alone, so it pauses in the lone loop.
func TestLoneLoopPaced(t *testing.T) {
	const reps = 350 // 13 instructions each: over two windows
	var pts []diffPoint
	for _, pt := range lonePoints(reps) {
		// Every policy and both engine modes, on 1 and 4 contexts.
		if pt.stop == (Stop{}) && pt.cfg.IssueWidth == 1 && (pt.cfg.Contexts == 1 || pt.cfg.Contexts == 4) {
			pts = append(pts, pt)
		}
	}
	for _, name := range sched.Names() {
		pts = append(pts, queueTailPoint(name, 1, false, reps), queueTailPoint(name, 2, true, reps))
	}
	cfgs := make([]Config, len(pts))
	stops := make([]Stop, len(pts))
	logs := make([]*eventLog, len(pts))
	for i, pt := range pts {
		logs[i] = &eventLog{}
		cfgs[i] = pt.cfg
		cfgs[i].Observers = []Observer{logs[i]}
		stops[i] = pt.stop
	}
	b, err := NewBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		if err := pt.attach(b.Machine(i)); err != nil {
			t.Fatal(err)
		}
	}
	reports, errs := b.Run(stops)
	for i, pt := range pts {
		if errs[i] == nil && reports[i].Insts < 2*batchWindow {
			t.Fatalf("%s: %d instructions do not span two windows", pt.name, reports[i].Insts)
		}
		got := loneOutcome{rep: reports[i], log: logs[i], err: errs[i]}
		want := runPoint(t, pt, true, true)
		if d := sameOutcome(got, want); d != "" {
			t.Errorf("%s/paced: %s", pt.name, d)
		}
	}
}

// FuzzLoneLoop compares runLoop with the oracle on randomized machine
// shapes, policies, context counts, supplies and stop rules (randPoint),
// observed and unobserved. Run longer with:
//
//	go test -run=NONE -fuzz=FuzzLoneLoop ./internal/core
func FuzzLoneLoop(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkLone(t, randPoint(seed))
	})
}
