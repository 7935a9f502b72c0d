package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"
)

// Shared env: experiments memoize heavily, so run them all against one
// environment at a small scale.
var testEnv = NewEnv(1e-4)

func runExp(t *testing.T, id string) *Result {
	t.Helper()
	exp := ByID(id)
	if exp == nil {
		t.Fatalf("experiment %q not registered", id)
	}
	res, err := exp.Run(context.Background(), testEnv)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if res.ID != id {
		t.Fatalf("result id %q != %q", res.ID, id)
	}
	if len(res.Tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	return res
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 19 {
		t.Fatalf("experiments = %d, want 19 (3 tables + 9 figures + 7 extensions)", len(ids))
	}
	for _, id := range ids {
		if ByID(id) == nil {
			t.Errorf("ByID(%q) = nil", id)
		}
	}
	if ByID("nope") != nil {
		t.Error("unknown id resolved")
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestTables(t *testing.T) {
	t1 := runExp(t, "table1")
	if len(t1.Tables) != 2 {
		t.Fatal("table1 should emit two tables")
	}
	t2 := runExp(t, "table2")
	if len(t2.Tables[0].Rows) != 5 {
		t.Fatal("table2 should list 5 column-2 programs")
	}
	t3 := runExp(t, "table3")
	if len(t3.Tables[0].Rows) != 10 {
		t.Fatal("table3 should list 10 programs")
	}
}

// cell parses a leading float from a table cell like "1.23 (1.1..1.4)".
func cell(t *testing.T, s string) float64 {
	t.Helper()
	f := strings.Fields(strings.TrimSuffix(s, "%"))
	if len(f) == 0 {
		t.Fatalf("empty cell")
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "%"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func TestFig4BreakdownSumsTo100(t *testing.T) {
	res := runExp(t, "fig4")
	tab := res.Tables[0]
	if len(tab.Rows) != 40 {
		t.Fatalf("rows = %d, want 10 programs x 4 latencies", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		sum := 0.0
		for _, c := range row[3:] {
			sum += cell(t, c)
		}
		if sum < 99.5 || sum > 100.5 {
			t.Fatalf("row %v sums to %.2f", row, sum)
		}
	}
}

func TestFig4LatencyIncreasesIdle(t *testing.T) {
	res := runExp(t, "fig4")
	tab := res.Tables[0]
	// Column 3 is the all-idle state <,,>. Compare latency 1 vs 100 for
	// each program: idle grows with latency.
	byProg := map[string]map[string]float64{}
	for _, row := range tab.Rows {
		if byProg[row[0]] == nil {
			byProg[row[0]] = map[string]float64{}
		}
		byProg[row[0]][row[1]] = cell(t, row[3])
	}
	for prog, m := range byProg {
		// Allow two points of wiggle: load hoisting makes a couple of
		// programs nearly latency-flat, where the share can dip.
		if m["100"] < m["1"]-2.0 {
			t.Errorf("%s: all-idle at lat100 (%.1f) below lat1 (%.1f)", prog, m["100"], m["1"])
		}
	}
}

func TestFig5IdleInPaperRange(t *testing.T) {
	res := runExp(t, "fig5")
	tab := res.Tables[0]
	// Paper: at latency 70, idle ranges between ~30% and ~65%.
	for _, row := range tab.Rows {
		idle70 := cell(t, row[3])
		if idle70 < 15 || idle70 > 80 {
			t.Errorf("%s: idle@70 = %.1f%%, far outside the paper's 30-65%% band", row[0], idle70)
		}
	}
}

func TestFig6SpeedupShape(t *testing.T) {
	res := runExp(t, "fig6")
	tab := res.Tables[0]
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		s2, s3, s4 := cell(t, row[1]), cell(t, row[2]), cell(t, row[3])
		if s2 < 1.0 {
			t.Errorf("%s: 2-thread speedup %.2f < 1", row[0], s2)
		}
		if s2 > 2.2 || s3 > 3.2 || s4 > 4.2 {
			t.Errorf("%s: speedups out of plausible range: %.2f %.2f %.2f", row[0], s2, s3, s4)
		}
		// More contexts should not hurt substantially.
		if s3 < s2*0.9 || s4 < s3*0.92 {
			t.Errorf("%s: speedup regresses with contexts: %.2f %.2f %.2f", row[0], s2, s3, s4)
		}
	}
}

func TestFig7OccupationShape(t *testing.T) {
	res := runExp(t, "fig7")
	for _, row := range res.Tables[0].Rows {
		for i := 1; i < 7; i += 2 {
			mth, ref := cell(t, row[i]), cell(t, row[i+1])
			if mth <= ref {
				t.Errorf("%s: mth occupation %.1f%% not above ref %.1f%%", row[0], mth, ref)
			}
			if mth > 100 {
				t.Errorf("%s: occupation %.1f%% over 100%%", row[0], mth)
			}
		}
		// Occupation grows with contexts.
		if cell(t, row[5]) < cell(t, row[1]) {
			t.Errorf("%s: 4-thread occupation below 2-thread", row[0])
		}
	}
}

func TestFig8VOPCShape(t *testing.T) {
	res := runExp(t, "fig8")
	for _, row := range res.Tables[0].Rows {
		for i := 1; i < 7; i += 2 {
			mth, ref := cell(t, row[i]), cell(t, row[i+1])
			// The "ref" tuple average includes full companion runs
			// whereas the mth run is dominated by the primary, so for
			// the gather-heavy (low-arith) programs the mth value can
			// sit slightly below the tuple reference.
			if mth < ref*0.85 {
				t.Errorf("%s: mth VOPC %.2f far below ref %.2f", row[0], mth, ref)
			}
			if mth > 2.0 {
				t.Errorf("%s: VOPC %.2f exceeds 2 FUs", row[0], mth)
			}
		}
	}
}

func TestFig9SpansCoverAllPrograms(t *testing.T) {
	res := runExp(t, "fig9")
	tab := res.Tables[0]
	if len(tab.Rows) != 10 {
		t.Fatalf("spans = %d, want 10", len(tab.Rows))
	}
	if len(res.Charts) == 0 || !strings.Contains(res.Charts[0], "ctx0") {
		t.Fatal("gantt chart missing")
	}
}

func TestFig10Shape(t *testing.T) {
	res := runExp(t, "fig10")
	tab := res.Tables[0]
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var base, mth2 []float64
	var ideal float64
	for _, row := range tab.Rows {
		base = append(base, cell(t, row[1]))
		mth2 = append(mth2, cell(t, row[2]))
		ideal = cell(t, row[5])
		// Ordering at each latency: mth3 <= mth2 < baseline, all >=
		// IDEAL. mth4 may trail mth3 slightly: with ten jobs dealt in
		// the paper's fixed order, trfd lands on the lowest-priority
		// context and its short-vector, latency-bound invocations
		// become the makespan tail (the paper's own end-of-run
		// imbalance caveat) — but it must stay well below mth2.
		b, m2, m3, m4 := cell(t, row[1]), cell(t, row[2]), cell(t, row[3]), cell(t, row[4])
		if !(m3 <= m2*1.02 && m2 < b) {
			t.Errorf("lat %s: ordering violated: base %.0f mth %.0f %.0f %.0f", row[0], b, m2, m3, m4)
		}
		if m4 > m3*1.08 || m4 > m2 {
			t.Errorf("lat %s: mth4 %.0f too slow (mth3 %.0f, mth2 %.0f)", row[0], m4, m3, m2)
		}
		if m4 < ideal {
			t.Errorf("lat %s: mth4 %.0f beats IDEAL %.0f", row[0], m4, ideal)
		}
	}
	// Baseline grows strongly with latency; 2-thread curve is much
	// flatter (paper: ~6.8% vs near-linear).
	baseGrowth := base[len(base)-1] / base[0]
	mthGrowth := mth2[len(mth2)-1] / mth2[0]
	if baseGrowth < 1.15 {
		t.Errorf("baseline growth %.2f too flat", baseGrowth)
	}
	if mthGrowth > (baseGrowth-1)*0.65+1 {
		t.Errorf("2-thread growth %.2f not much flatter than baseline %.2f", mthGrowth, baseGrowth)
	}
}

func TestFig11SlowdownSmall(t *testing.T) {
	res := runExp(t, "fig11")
	for _, row := range res.Tables[0].Rows {
		// The 2-thread column is the paper's headline: below 1.009.
		if slow := cell(t, row[1]); slow > 1.009 || slow < 0.998 {
			t.Errorf("lat %s: 2-thread crossbar slowdown %.4f outside the paper's <1.009", row[0], slow)
		}
		// At 3-4 contexts job-to-thread assignment can flip when the
		// extra cycle shifts a completion past a queue pull — the
		// paper's own Section 8 anomaly — so only bound the noise.
		for _, c := range row[2:] {
			slow := cell(t, c)
			if slow > 1.07 || slow < 0.93 {
				t.Errorf("lat %s: crossbar ratio %.4f beyond scheduling noise", row[0], slow)
			}
		}
	}
}

func TestFig12DualScalarShape(t *testing.T) {
	res := runExp(t, "fig12")
	rows := res.Tables[0].Rows
	first, last := rows[0], rows[len(rows)-1]
	ratioLow := cell(t, first[6])
	ratioHigh := cell(t, last[6])
	// The paper gives the Fujitsu machine a ~3% edge at latency 1,
	// converging by latency 100. In this reproduction the edge is
	// within scheduling noise (see EXPERIMENTS.md); assert that the
	// two machines stay close and the dual decoder never hurts much.
	if ratioLow > 1.02 || ratioHigh > 1.02 {
		t.Errorf("fujitsu/mth2 = %.4f -> %.4f, should stay near or below 1", ratioLow, ratioHigh)
	}
	// mth3 and mth4 beat both at every latency.
	for _, row := range rows {
		fuj, m3 := cell(t, row[1]), cell(t, row[3])
		if m3 > fuj {
			t.Errorf("lat %s: mth3 (%.0f) behind fujitsu (%.0f)", row[0], m3, fuj)
		}
	}
}

func TestExtensions(t *testing.T) {
	pol := runExp(t, "ext-policies")
	if len(pol.Tables[0].Rows) != 8 {
		t.Fatalf("policy rows = %d, want 4 policies x 2 context counts", len(pol.Tables[0].Rows))
	}
	ports := runExp(t, "ext-ports")
	if len(ports.Tables[0].Rows) == 0 {
		t.Fatal("ports experiment empty")
	}
	banks := runExp(t, "ext-banks")
	for _, row := range banks.Tables[0].Rows {
		if row[0] == "64 banks, busy 8" {
			if v := cell(t, row[3]); v < 1.0 || v > 1.5 {
				t.Errorf("banked slowdown %.3f implausible", v)
			}
		}
	}
	issue := runExp(t, "ext-issue")
	for _, row := range issue.Tables[0].Rows {
		if row[1] == "2" {
			if v := cell(t, row[3]); v < 0.95 || v > 1.6 {
				t.Errorf("issue-width-2 gain %.3f implausible", v)
			}
		}
	}
	comp := runExp(t, "ext-compiler")
	penalty := map[string]float64{}
	for _, row := range comp.Tables[0].Rows {
		if row[0] != "naive" {
			continue
		}
		v := cell(t, row[4])
		// At 3 contexts scheduling noise can flip the sign slightly;
		// a real speedup beyond noise would mean hoisting is harmful.
		if v < 0.97 {
			t.Errorf("naive compiler distinctly faster (%.4f) at %s contexts", v, row[1])
		}
		penalty[row[1]] = v
	}
	// The reference machine suffers most from naive scheduling, and the
	// penalty shrinks monotonically (within noise) as contexts absorb
	// the exposed latency — multithreading substitutes for compiler
	// scheduling quality.
	if penalty["1"] < 1.05 {
		t.Errorf("naive compiler barely hurts the reference machine: %.4f", penalty["1"])
	}
	if penalty["2"] > penalty["1"] || penalty["3"] > penalty["2"]+0.02 {
		t.Errorf("penalty should shrink with contexts: %v", penalty)
	}
}

func TestExtBenchsuite(t *testing.T) {
	res := runExp(t, "ext-benchsuite")
	if len(res.Tables) != 3 {
		t.Fatalf("tables = %d, want characterization + latency sweep + policy sweep", len(res.Tables))
	}
	ct := res.Tables[0]
	if len(ct.Rows) != 7 {
		t.Fatalf("characterization rows = %d, want 7 kernels", len(ct.Rows))
	}
	for _, row := range ct.Rows {
		if v := cell(t, row[1]); v < 50 || v > 100 {
			t.Errorf("%s: vectorization %.1f%% implausible", row[0], v)
		}
	}
	// Latency tolerance on real dataflow: at latency 100 the 4-context
	// queue must beat the single context clearly (7 heterogeneous jobs
	// on 4 contexts leave a serial tail, so well short of 4x).
	for _, row := range res.Tables[1].Rows {
		if row[0] == "100" && row[1] == "4" {
			if v := cell(t, row[3]); v < 1.2 {
				t.Errorf("4-context speedup at latency 100 = %.3f, want > 1.2", v)
			}
		}
	}
	if rows := len(res.Tables[2].Rows); rows != 8 {
		t.Errorf("policy rows = %d, want 4 policies x 2 context counts", rows)
	}

	// The suite runs through the same memoized session paths as the
	// Table 3 programs.
	ctx := context.Background()
	q1, err := testEnv.BenchQueueRun(ctx, QueueSpec{Contexts: 2, Latency: 50})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := testEnv.BenchQueueRun(ctx, QueueSpec{Contexts: 2, Latency: 50})
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Fatal("bench queue runs not memoized")
	}
}

func TestEnvMemoization(t *testing.T) {
	e := NewEnv(1e-4)
	ctx := context.Background()
	r1, err := e.RefReport(ctx, "tf", 50)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.RefReport(ctx, "tf", 50)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("reference reports not memoized")
	}
	q1, err := e.QueueRun(ctx, QueueSpec{Contexts: 2, Latency: 50})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e.QueueRun(ctx, QueueSpec{Contexts: 2, Latency: 50})
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Fatal("queue runs not memoized")
	}
	if _, err := e.QueueRun(ctx, QueueSpec{Contexts: 2, Latency: 50, Policy: "nope"}); err == nil {
		t.Fatal("bad policy accepted")
	}
	if _, err := e.W("zz"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestSpeedupAccountingAgainstPaperFormula(t *testing.T) {
	// Directly validate the Section 4.1 bookkeeping on one grouped run:
	// recompute the speedup from its components.
	ctx := context.Background()
	runs, err := testEnv.GroupedRuns(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r := runs[0] // first 2-thread grouping
	if r.Contexts != 2 {
		t.Fatalf("first grouping has %d contexts", r.Contexts)
	}
	c0, err := testEnv.RefCycles(ctx, r.Primary, 50)
	if err != nil {
		t.Fatal(err)
	}
	comp := r.Rep.Threads[1]
	full, err := testEnv.RefCycles(ctx, r.Companions[0], 50)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := testEnv.RefPartialCycles(ctx, r.Companions[0], 50, comp.PartialInsts)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(c0+comp.Completions*full+partial) / float64(r.Rep.Cycles)
	if diff := want - r.Speedup; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("speedup %.6f != recomputed %.6f", r.Speedup, want)
	}
}
