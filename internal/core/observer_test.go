package core

import (
	"context"
	"reflect"
	"testing"

	"mtvec/internal/sched"
	"mtvec/internal/stats"
)

// eventLog records every observer event for sequence comparison.
type eventLog struct {
	progress []([2]int64)
	switches [][3]int64
	spans    []stats.Span
}

func (l *eventLog) Progress(now Cycle, dispatched int64) {
	l.progress = append(l.progress, [2]int64{now, dispatched})
}
func (l *eventLog) ThreadSwitch(now Cycle, from, to int) {
	l.switches = append(l.switches, [3]int64{now, int64(from), int64(to)})
}
func (l *eventLog) Span(s stats.Span) { l.spans = append(l.spans, s) }

// runObserved runs the 2-context load-use pair with an event log.
func runObserved(t *testing.T, fastForward bool) (*stats.Report, *eventLog) {
	t.Helper()
	log := &eventLog{}
	cfg := testConfig(2)
	cfg.Observers = []Observer{log}
	cfg.ProgressStride = 256
	cfg.DisableFastForward = !fastForward
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := m.SetThreadStream(i, "loaduse", loadUseStream(20)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := m.Run(Stop{})
	if err != nil {
		t.Fatal(err)
	}
	return rep, log
}

func TestObserverEventSequenceDeterministic(t *testing.T) {
	rep1, log1 := runObserved(t, true)
	rep2, log2 := runObserved(t, true)
	if !reflect.DeepEqual(log1, log2) {
		t.Fatal("identical runs produced different event sequences")
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatal("identical runs produced different reports")
	}
	if len(log1.progress) == 0 {
		t.Fatal("no progress events at stride 256")
	}
	// Progress events land exactly on stride boundaries, in order.
	for i, p := range log1.progress {
		if want := int64(256 * (i + 1)); p[0] != want {
			t.Fatalf("progress %d at cycle %d, want %d", i, p[0], want)
		}
	}
	// First switch comes from the start state.
	if len(log1.switches) == 0 || log1.switches[0][1] != -1 {
		t.Fatalf("first switch = %v, want from=-1", log1.switches)
	}
	// One span per program run, streamed and identical to the report's
	// accounting of two completed threads.
	if len(log1.spans) != 2 {
		t.Fatalf("spans = %v, want 2", log1.spans)
	}
}

// TestObserverFastForwardEquivalence: the fast-forward clock skip must
// be observationally equivalent, including the streamed event sequence.
func TestObserverFastForwardEquivalence(t *testing.T) {
	repFF, logFF := runObserved(t, true)
	repCy, logCy := runObserved(t, false)
	if !reflect.DeepEqual(repFF, repCy) {
		t.Fatal("fast-forward changed the report")
	}
	if !reflect.DeepEqual(logFF, logCy) {
		t.Fatalf("fast-forward changed the event stream:\n  ff %+v\n  cy %+v", logFF, logCy)
	}
}

func TestRunContextMatchesRun(t *testing.T) {
	mkMachine := func() *Machine {
		m, err := New(testConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetThreadStream(0, "loaduse", loadUseStream(20)); err != nil {
			t.Fatal(err)
		}
		return m
	}
	plain, err := mkMachine().Run(Stop{})
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := mkMachine().RunContext(context.Background(), Stop{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, ctxed) {
		t.Fatal("RunContext(Background) differs from Run")
	}
}

func TestRunContextCancelled(t *testing.T) {
	m, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetThreadStream(0, "loaduse", loadUseStream(20)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := m.RunContext(ctx, Stop{})
	if rep != nil || err != context.Canceled {
		t.Fatalf("rep=%v err=%v, want nil/context.Canceled", rep, err)
	}
}

// TestPolicyCloneIsolation: one Config carrying a stateful policy can
// back many machines without cross-run interference.
func TestPolicyCloneIsolation(t *testing.T) {
	cfg := testConfig(2)
	cfg.Policy = sched.ByName("lru")
	run := func() *stats.Report {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := m.SetThreadStream(i, "loaduse", loadUseStream(20)); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := m.Run(Stop{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	first := run()
	second := run() // reuses cfg — and with it the policy instance
	if !reflect.DeepEqual(first, second) {
		t.Fatal("reusing a Config with a stateful policy changed the result")
	}
}
