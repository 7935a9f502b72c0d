package mtvec_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"mtvec"
)

// importEquivalent exports a workload's trace as RVV text and re-imports
// it — the acceptance path for external trace generators.
func importEquivalent(t *testing.T, w *mtvec.Workload) *mtvec.Workload {
	t.Helper()
	var buf bytes.Buffer
	if err := mtvec.ExportRVVTrace(&buf, w.Trace); err != nil {
		t.Fatal(err)
	}
	tr, err := mtvec.ImportRVVTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Name the import after the source's short tag so thread labels (the
	// only caller-chosen metadata in a Report) line up for comparison.
	imp, err := mtvec.WorkloadFromTrace(w.Spec.Short, tr)
	if err != nil {
		t.Fatal(err)
	}
	return imp
}

// TestImportedTraceReplaysIdentically: an RVV-round-tripped trace must
// produce byte-identical Reports to its in-DSL equivalent, solo and
// multithreaded, across -jobs counts and with lockstep batching on and
// off.
func TestImportedTraceReplaysIdentically(t *testing.T) {
	ax, sp := build(t, "ax"), build(t, "sp")
	iax, isp := importEquivalent(t, ax), importEquivalent(t, sp)
	if iax.Stats != ax.Stats {
		t.Fatalf("imported axpy profile differs:\n dsl %+v\n imp %+v", ax.Stats, iax.Stats)
	}

	ctx := context.Background()
	mk := func(a, s *mtvec.Workload) []mtvec.RunSpec {
		return []mtvec.RunSpec{
			mtvec.Solo(a),
			mtvec.Solo(a, mtvec.WithMemLatency(100)),
			mtvec.Solo(s, mtvec.WithMemLatency(50)),
			mtvec.Queue([]*mtvec.Workload{a, s}, mtvec.WithContexts(2), mtvec.WithMemLatency(50)),
			mtvec.Group(a, []*mtvec.Workload{s}, mtvec.WithMemLatency(80)),
		}
	}
	dsl, err := mtvec.NewSession().RunAll(ctx, mk(ax, sp)...)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		opts []mtvec.SessionOption
	}{
		{"jobs=1", []mtvec.SessionOption{mtvec.WithJobs(1)}},
		{"jobs=4", []mtvec.SessionOption{mtvec.WithJobs(4)}},
	} {
		reps, err := mtvec.NewSession(tc.opts...).RunAll(ctx, mk(iax, isp)...)
		if err != nil {
			t.Fatal(err)
		}
		for i := range reps {
			reportsEqual(t, tc.name, dsl[i], reps[i])
		}
	}
}

// TestImportedTraceMemoButNoPersistKey: imported workloads memoize
// in-session like any other but are excluded from store persistence.
func TestImportedTraceMemoButNoPersistKey(t *testing.T) {
	iax := importEquivalent(t, build(t, "ax"))
	ses := mtvec.NewSession()
	r1, err := ses.Run(context.Background(), mtvec.Solo(iax))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ses.Run(context.Background(), mtvec.Solo(iax))
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("imported workload not memoized")
	}
	if n := ses.Simulations(); n != 1 {
		t.Fatalf("simulations = %d, want 1", n)
	}
}

// TestImportRVVTraceDiagnostics: the public import surface reports every
// defective line, joined.
func TestImportRVVTraceDiagnostics(t *testing.T) {
	_, err := mtvec.ImportRVVTrace(strings.NewReader("format: mtvrvv/1\nbogus\nvfadd.vv v0\n"))
	if err == nil {
		t.Fatal("corrupt trace accepted")
	}
	for _, want := range []string{"line 2:", "line 3:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}
