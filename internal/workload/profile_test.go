package workload

import (
	"testing"

	"mtvec/internal/prog"
	"mtvec/internal/vcomp"
)

// TestProfileMatchesDrainCatalog: for every catalog spec, under the
// default compilation, without load hoisting and at a non-default
// vector length, at two scales, the per-block profile a build records
// equals draining the trace instruction by instruction.
func TestProfileMatchesDrainCatalog(t *testing.T) {
	rf := vcomp.Options{}.RegFile.Normalize()
	rf.VLen = 32
	variants := []struct {
		name string
		opts vcomp.Options
	}{
		{"default", vcomp.Options{}},
		{"nohoist", vcomp.Options{NoHoist: true}},
		{"vlen32", vcomp.Options{RegFile: rf}},
	}
	specs := append(Specs(), BenchSpecs()...)
	if len(specs) != 17 {
		t.Fatalf("catalog holds %d specs, want 17", len(specs))
	}
	for _, s := range specs {
		for _, v := range variants {
			for _, scale := range []float64{testScale, DefaultScale} {
				w, err := s.BuildOpts(scale, v.opts)
				if err != nil {
					t.Fatalf("%s/%s/%g: %v", s.Short, v.name, scale, err)
				}
				n, want, err := prog.NewStreamVL(w.Trace.Prog, w.Trace.Source(), w.Trace.MaxVL).Drain()
				if err != nil {
					t.Fatalf("%s/%s/%g: drain: %v", s.Short, v.name, scale, err)
				}
				if w.Stats != want || w.Stats.Insts() != n {
					t.Errorf("%s/%s/%g: profile %+v\ndrain %+v", s.Short, v.name, scale, w.Stats, want)
				}
				if w.Fingerprint() != want.Fingerprint() {
					t.Errorf("%s/%s/%g: carried fingerprint differs from the drained profile's", s.Short, v.name, scale)
				}
			}
		}
	}
}

// TestFingerprintHandAssembled: a Workload built without Build or
// FromTrace hashes its Stats on demand, so its identity still follows
// its content.
func TestFingerprintHandAssembled(t *testing.T) {
	w, err := ByShort("ax").Build(testScale)
	if err != nil {
		t.Fatal(err)
	}
	hand := &Workload{Spec: w.Spec, Scale: w.Scale, Trace: w.Trace, Stats: w.Stats}
	if hand.Fingerprint() != w.Fingerprint() {
		t.Fatal("hand-assembled workload fingerprints differently from its build")
	}
}

// TestLookupDoesNotCopy: resolving a name scans the shared registries,
// so lookups allocate nothing.
func TestLookupDoesNotCopy(t *testing.T) {
	ByName("swm256") // build the registries outside the measurement
	if n := testing.AllocsPerRun(100, func() {
		if ByName("blackscholes") == nil || ByShort("tf") == nil || ByName("nope") != nil {
			t.Fatal("lookup failed")
		}
	}); n != 0 {
		t.Errorf("lookups allocate %.1f times per run", n)
	}
}
