package workload

import (
	"math"
	"testing"

	"mtvec/internal/arch"
	"mtvec/internal/isa"
	"mtvec/internal/vcomp"
)

// testScale keeps the calibration tests fast while large enough that
// rounding effects stay small.
const testScale = 1e-4

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / want
}

func TestTenSpecs(t *testing.T) {
	specs := Specs()
	if len(specs) != 10 {
		t.Fatalf("specs = %d, want 10", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Short] {
			t.Errorf("duplicate short name %q", s.Short)
		}
		seen[s.Short] = true
		if s.Suite != "Spec" && s.Suite != "Perf." {
			t.Errorf("%s: bad suite %q", s.Name, s.Suite)
		}
	}
}

func TestCalibrationMatchesTable3(t *testing.T) {
	// The heart of the reproduction's workload substitution: every
	// benchmark's dynamic profile must match its Table 3 row.
	for _, s := range Specs() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			w, err := s.Build(testScale)
			if err != nil {
				t.Fatal(err)
			}
			st := &w.Stats

			wantS := s.ScalarM * 1e6 * testScale
			wantV := s.VectorM * 1e6 * testScale
			wantOps := s.OpsM * 1e6 * testScale

			if e := relErr(float64(st.VectorOps), wantOps); e > 0.03 {
				t.Errorf("vector ops = %d, want %.0f (err %.1f%%)", st.VectorOps, wantOps, 100*e)
			}
			if e := relErr(float64(st.VectorInsts), wantV); e > 0.08 {
				t.Errorf("vector insts = %d, want %.0f (err %.1f%%)", st.VectorInsts, wantV, 100*e)
			}
			if e := relErr(float64(st.ScalarInsts), wantS); e > 0.12 {
				t.Errorf("scalar insts = %d, want %.0f (err %.1f%%)", st.ScalarInsts, wantS, 100*e)
			}
			if e := relErr(st.AvgVL(), s.AvgVL); e > 0.06 {
				t.Errorf("avg VL = %.1f, want %.0f (err %.1f%%)", st.AvgVL(), s.AvgVL, 100*e)
			}
			if d := math.Abs(st.PctVectorized() - s.PctVect); d > 1.5 {
				t.Errorf("%% vectorized = %.1f, want %.1f", st.PctVectorized(), s.PctVect)
			}
		})
	}
}

func TestVectorizationOrderingPreserved(t *testing.T) {
	// Table 3 orders the programs by decreasing vectorization; the
	// reconstructions must preserve that ordering property.
	var ws []*Workload
	for _, s := range Specs() {
		w, err := s.Build(testScale)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	for i := 1; i < len(ws); i++ {
		prev, cur := ws[i-1].Stats.PctVectorized(), ws[i].Stats.PctVectorized()
		if cur > prev+1.0 {
			t.Errorf("%s (%.1f%%) more vectorized than %s (%.1f%%)",
				ws[i].Spec.Name, cur, ws[i-1].Spec.Name, prev)
		}
	}
}

func TestBuildDeterminism(t *testing.T) {
	s := ByShort("tf")
	w1, err := s.Build(testScale)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := s.Build(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if w1.Stats != w2.Stats {
		t.Fatal("two builds of the same spec differ")
	}
	w1.Trace.Source() // synthesize both deferred traces
	w2.Trace.Source()
	if len(w1.Trace.BBs) == 0 || len(w1.Trace.BBs) != len(w2.Trace.BBs) {
		t.Fatal("trace lengths differ across builds")
	}
}

func TestScaleLinearity(t *testing.T) {
	// Doubling the scale must roughly double every dynamic count.
	s := ByShort("hy")
	w1, err := s.Build(testScale)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := s.Build(2 * testScale)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(w2.Stats.VectorOps) / float64(w1.Stats.VectorOps)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("ops ratio = %.2f, want ~2", ratio)
	}
}

func TestLookupHelpers(t *testing.T) {
	if ByShort("sw") == nil || ByShort("zz") != nil {
		t.Error("ByShort broken")
	}
	if ByName("tomcatv") == nil || ByName("nope") != nil {
		t.Error("ByName broken")
	}
	if ByShort("sw").Name != "swm256" {
		t.Error("sw is not swm256")
	}
}

func TestQueueOrder(t *testing.T) {
	q := QueueOrder()
	want := []string{"flo52", "swm256", "su2cor", "trfd", "tomcatv", "nasa7", "hydro2d", "bdna", "arc2d", "dyfesm"}
	if len(q) != len(want) {
		t.Fatalf("queue has %d entries", len(q))
	}
	for i, s := range q {
		if s == nil || s.Name != want[i] {
			t.Errorf("queue[%d] = %v, want %s", i, s, want[i])
		}
	}
}

func TestDefaultGroupings(t *testing.T) {
	g := DefaultGroupings()
	if len(g.Col2) != 5 || len(g.Col3) != 2 || len(g.Col4) != 1 {
		t.Fatalf("grouping sizes %d/%d/%d, want 5/2/1", len(g.Col2), len(g.Col3), len(g.Col4))
	}
	// Figure 7 caption: hydro2d's 2-thread companions.
	wantCol2 := map[string]bool{"hy": true, "na": true, "su": true, "to": true, "sw": true}
	for _, s := range g.Col2 {
		if !wantCol2[s.Short] {
			t.Errorf("unexpected column-2 program %s", s.Short)
		}
	}
}

func TestBuildRejectsBadScale(t *testing.T) {
	if _, err := ByShort("sw").Build(0); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := ByShort("sw").Build(-1); err == nil {
		t.Error("negative scale accepted")
	}
}

func TestWorkloadStreamsRestart(t *testing.T) {
	// Two streams from the same workload yield identical instruction
	// sequences (companion threads restart programs in the paper's
	// methodology).
	w, err := ByShort("sd").Build(testScale)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := w.Stream(), w.Stream()
	var d1, d2 isa.DynInst
	n := 0
	for n < 5000 {
		ok1 := s1.Next(&d1)
		ok2 := s2.Next(&d2)
		if ok1 != ok2 {
			t.Fatal("streams end at different points")
		}
		if !ok1 {
			break
		}
		if d1 != d2 {
			t.Fatalf("instruction %d differs", n)
		}
		n++
	}
}

func TestWorkloadMixProperties(t *testing.T) {
	// Flavour checks: bdna/trfd gather, dyfesm scatters, arc2d sqrt,
	// nasa7 strided column walks with extra SetVS traffic.
	ws := map[string]*Workload{}
	for _, sh := range []string{"na", "ti", "sd", "sr", "a7", "sw"} {
		w, err := ByShort(sh).Build(testScale)
		if err != nil {
			t.Fatal(err)
		}
		ws[sh] = w
	}
	if ws["na"].Stats.PerOp[isa.OpVGather] == 0 {
		t.Error("bdna has no gathers")
	}
	if ws["ti"].Stats.PerOp[isa.OpVGather] == 0 {
		t.Error("trfd has no gathers")
	}
	if ws["sd"].Stats.PerOp[isa.OpVScatter] == 0 {
		t.Error("dyfesm has no scatters")
	}
	if ws["sr"].Stats.PerOp[isa.OpVSqrt] == 0 {
		t.Error("arc2d has no square roots")
	}
	if ws["a7"].Stats.PerOp[isa.OpSetVS] <= ws["sw"].Stats.PerOp[isa.OpSetVS] {
		t.Error("nasa7 should have more stride traffic than swm256")
	}
}

// TestPlanSizesScheduleOnce: the planner's count of phase runs, serial
// rounds and partials is exact, so the schedule is allocated once and
// never grows, and it holds at most one run per phase and one serial
// run per interleaving round plus one partial per phase, at any scale.
func TestPlanSizesScheduleOnce(t *testing.T) {
	short := arch.DefaultRegFile()
	short.VLen = 32
	planned := 0
	for _, s := range append(Specs(), BenchSpecs()...) {
		if s.schedule != nil {
			continue
		}
		planned++
		for _, opts := range []vcomp.Options{{}, {RegFile: short}} {
			k, phases := s.build()
			k.Units = append(k.Units, serialLoop())
			c, err := vcomp.CompileOpts(k, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, scale := range []float64{1e-5, testScale, DefaultScale} {
				sched, err := plan(c, s, phases, scale)
				if err != nil {
					t.Fatalf("%s at %g: %v", s.Short, scale, err)
				}
				if len(sched) != cap(sched) {
					t.Errorf("%s at %g, vlen %d: schedule of %d runs sized for %d",
						s.Short, scale, c.RegFile().VLen, len(sched), cap(sched))
				}
				if most := interleaveGroups*(len(phases)+1) + len(phases); len(sched) > most {
					t.Errorf("%s at %g, vlen %d: schedule of %d runs, want at most %d",
						s.Short, scale, c.RegFile().VLen, len(sched), most)
				}
			}
		}
	}
	if planned < len(Specs()) {
		t.Fatalf("only %d catalog specs go through the planner", planned)
	}
}
