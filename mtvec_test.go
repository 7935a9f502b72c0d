package mtvec_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"mtvec"
)

const testScale = 1e-4

func build(t *testing.T, short string) *mtvec.Workload {
	t.Helper()
	w, err := mtvec.WorkloadByShort(short).Build(testScale)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunSolo(t *testing.T) {
	w := build(t, "tf")
	rep, err := mtvec.NewSession().Run(context.Background(), mtvec.Solo(w))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles <= 0 || rep.Insts != w.Stats.Insts() {
		t.Fatalf("cycles=%d insts=%d (want %d)", rep.Cycles, rep.Insts, w.Stats.Insts())
	}
	if occ := rep.MemOccupation(); occ <= 0 || occ > 1 {
		t.Fatalf("occupation = %f", occ)
	}
}

func TestRunGroupSpeedsUp(t *testing.T) {
	ctx := context.Background()
	ses := mtvec.NewSession()
	tf, sw := build(t, "tf"), build(t, "sw")
	solo, err := ses.Run(ctx, mtvec.Solo(tf))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ses.Run(ctx, mtvec.Group(tf, []*mtvec.Workload{sw}, mtvec.WithContexts(2)))
	if err != nil {
		t.Fatal(err)
	}
	// Thread 0 under the unfair policy completes near its solo time
	// while the machine does extra companion work.
	if rep.Cycles > solo.Cycles*3/2 {
		t.Fatalf("grouped run %d vs solo %d", rep.Cycles, solo.Cycles)
	}
	if rep.Threads[1].Dispatched == 0 {
		t.Fatal("companion idle")
	}
	// Mismatched contexts are rejected.
	if _, err := ses.Run(ctx, mtvec.Group(tf, nil, mtvec.WithContexts(2))); err == nil {
		t.Fatal("bad context count accepted")
	}
}

func TestRunQueue(t *testing.T) {
	ws := []*mtvec.Workload{build(t, "tf"), build(t, "sd")}
	rep, err := mtvec.NewSession().Run(context.Background(), mtvec.Queue(ws, mtvec.WithContexts(2), mtvec.WithSpans()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Spans) != 2 {
		t.Fatalf("spans = %d", len(rep.Spans))
	}
	if rep.Cycles < mtvec.IdealCycles(ws...) {
		t.Fatal("queue run beats the IDEAL bound")
	}
}

func TestCustomKernelEndToEnd(t *testing.T) {
	// A user-defined daxpy compiled and simulated via the public API.
	c := compileDaxpy(t)
	w, err := mtvec.CompiledWorkload(c, []mtvec.Invocation{{Unit: 0, N: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mtvec.NewSession().Run(context.Background(), mtvec.Solo(w))
	if err != nil {
		t.Fatal(err)
	}
	if rep.VectorOps < 4096 {
		t.Fatalf("vector ops = %d", rep.VectorOps)
	}
}

func TestTraceRoundTripViaFacade(t *testing.T) {
	w := build(t, "sd")
	var buf bytes.Buffer
	if err := mtvec.EncodeTrace(&buf, w.Trace); err != nil {
		t.Fatal(err)
	}
	tr, err := mtvec.DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Prog.Name != w.Trace.Prog.Name {
		t.Fatal("trace program name lost")
	}
}

func TestExperimentViaFacade(t *testing.T) {
	env := mtvec.NewEnv(testScale)
	exp := mtvec.ExperimentByID("table3")
	if exp == nil {
		t.Fatal("table3 missing")
	}
	res, err := exp.Run(env)
	if err != nil {
		t.Fatal(err)
	}
	var text, md bytes.Buffer
	if err := mtvec.RenderResult(&text, res); err != nil {
		t.Fatal(err)
	}
	if err := mtvec.RenderResultMarkdown(&md, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "swm256") || !strings.Contains(md.String(), "swm256") {
		t.Fatal("rendered output incomplete")
	}
}

func TestRegistryCoverage(t *testing.T) {
	if len(mtvec.Workloads()) != 10 {
		t.Fatal("want 10 workloads")
	}
	if len(mtvec.QueueOrder()) != 10 {
		t.Fatal("want 10 queue entries")
	}
	if len(mtvec.ExperimentIDs()) != len(mtvec.Experiments()) {
		t.Fatal("experiment id mismatch")
	}
	for _, n := range mtvec.PolicyNames() {
		if mtvec.PolicyByName(n) == nil {
			t.Fatalf("policy %s missing", n)
		}
	}
}
