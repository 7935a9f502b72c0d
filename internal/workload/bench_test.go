package workload

import (
	"testing"

	"mtvec/internal/isa"
	"mtvec/internal/vcomp"
)

func TestBenchSpecsRegistered(t *testing.T) {
	specs := BenchSpecs()
	if len(specs) != 7 {
		t.Fatalf("bench suite has %d specs, want 7", len(specs))
	}
	names := make(map[string]bool)
	shorts := make(map[string]bool)
	for _, s := range Specs() {
		names[s.Name] = true
		shorts[s.Short] = true
	}
	for _, s := range specs {
		if s.Suite != "Bench" {
			t.Errorf("%s: suite = %q, want Bench", s.Name, s.Suite)
		}
		if names[s.Name] || shorts[s.Short] {
			t.Errorf("%s/%s collides with another registered spec", s.Name, s.Short)
		}
		names[s.Name] = true
		shorts[s.Short] = true
		if ByName(s.Name) != s {
			t.Errorf("ByName(%q) does not resolve to the registered spec", s.Name)
		}
		if ByShort(s.Short) != s {
			t.Errorf("ByShort(%q) does not resolve to the registered spec", s.Short)
		}
	}
}

func TestBenchBuildAll(t *testing.T) {
	for _, s := range BenchSpecs() {
		w, err := s.Build(DefaultScale)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		st := w.Stats
		if st.VectorInsts == 0 || st.VectorOps == 0 {
			t.Fatalf("%s: no vector work (%+v)", s.Name, st)
		}
		if pv := st.PctVectorized(); pv < 50 {
			t.Errorf("%s: only %.1f%% vectorized", s.Name, pv)
		}
		if avl := st.AvgVL(); avl <= 1 || avl > float64(isa.MaxVL) {
			t.Errorf("%s: average VL %.1f out of range", s.Name, avl)
		}
	}
}

func TestBenchBuildDeterminism(t *testing.T) {
	s := ByShort("sp")
	w1, err := s.Build(DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := s.Build(DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	if w1.Stats != w2.Stats {
		t.Fatal("two builds of the same bench spec differ")
	}
	w1.Trace.Source() // synthesize both deferred traces
	w2.Trace.Source()
	if len(w1.Trace.BBs) == 0 || len(w1.Trace.BBs) != len(w2.Trace.BBs) {
		t.Fatal("trace lengths differ across builds")
	}
}

func TestBenchScaleLinearity(t *testing.T) {
	s := ByShort("ax")
	w1, err := s.Build(DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := s.Build(2 * DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(w2.Stats.VectorOps) / float64(w1.Stats.VectorOps)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("ops ratio = %.2f, want ~2", ratio)
	}
}

func TestBenchTinyScale(t *testing.T) {
	// The suite must stay buildable at the small scales the cluster CI
	// smoke uses.
	for _, s := range BenchSpecs() {
		if _, err := s.Build(5e-5); err != nil {
			t.Errorf("%s at scale 5e-5: %v", s.Name, err)
		}
	}
}

func TestBenchCharacter(t *testing.T) {
	// Per-kernel structural signatures: the properties docs/BENCHMARKS.md
	// claims for each kernel must hold in the built traces.
	build := func(short string) *Workload {
		t.Helper()
		w, err := ByShort(short).Build(DefaultScale)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	if st := build("sp").Stats; st.PerOp[isa.OpVGather] == 0 {
		t.Error("spmv has no gathers")
	} else if avl := st.AvgVL(); avl > 100 {
		t.Errorf("spmv average VL %.1f, want short-vector profile", avl)
	}
	if st := build("dp").Stats; st.PerOp[isa.OpVRedAdd] == 0 || st.VectorStoreElems != 0 {
		t.Error("dot must reduce without store traffic")
	}
	if st := build("bs").Stats; st.PerOp[isa.OpVSqrt] == 0 || st.PerOp[isa.OpVDiv] == 0 ||
		st.PerOp[isa.OpVMerge] == 0 || st.PerOp[isa.OpVCmp] == 0 {
		t.Error("blackscholes must exercise sqrt/div/compare/merge")
	}
	if st := build("gm").Stats; st.VectorLoadElems <= st.VectorStoreElems {
		t.Error("gemm blocking should reuse loads across two accumulator rows")
	}
	if st := build("ax").Stats; st.PerOp[isa.OpVMulS] == 0 {
		t.Error("axpy must broadcast the scalar coefficient")
	}
}

func TestBenchBuildOptsRegFile(t *testing.T) {
	// Bench kernels compile at non-default register lengths (the sweep
	// path the ext-regfile style experiments use).
	s := ByShort("s2")
	rf := s.mustBuildRF(t, 32)
	if rf.Trace.MaxVL != 32 {
		t.Fatalf("MaxVL = %d, want 32", rf.Trace.MaxVL)
	}
	if rf.Stats.AvgVL() > 32 {
		t.Fatalf("average VL %.1f exceeds the register length", rf.Stats.AvgVL())
	}
}

// mustBuildRF builds the spec with a VLen-override register file.
func (s *Spec) mustBuildRF(t *testing.T, vlen int) *Workload {
	t.Helper()
	opts := vcomp.Options{}
	opts.RegFile = opts.RegFile.Normalize()
	opts.RegFile.VLen = vlen
	w, err := s.BuildOpts(DefaultScale, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestFromTrace(t *testing.T) {
	w, err := ByShort("ax").Build(DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	imp, err := FromTrace("imported", w.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if imp.Stats != w.Stats {
		t.Error("imported workload's measured profile differs from the source build")
	}
	if imp.Spec.Name != "imported" || imp.Spec.Short != "imported" {
		t.Errorf("synthesized spec = %+v", imp.Spec)
	}
	// The synthesized spec must NOT be registered — even under a name
	// that collides with a catalog entry — so the session layer keeps
	// imported traces out of the persistent store.
	imp2, err := FromTrace("axpy", w.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if ByName("axpy") == imp2.Spec {
		t.Error("imported spec aliases the registered catalog spec")
	}

	if _, err := FromTrace("x", nil); err == nil {
		t.Error("nil trace accepted")
	}
}
