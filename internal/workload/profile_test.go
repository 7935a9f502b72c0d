package workload

import (
	"fmt"
	"strconv"
	"testing"

	"mtvec/internal/arch"
	"mtvec/internal/prog"
	"mtvec/internal/vcomp"
)

// TestBuildProfileMatchesReplay: for every catalog spec, under the
// default compilation, without load hoisting, at a short vector length
// and for each compiled organization of the register-file study, at
// three scales, a build's closed-form profile and fingerprint equal
// replaying the trace it defers, both per basic block and instruction
// by instruction; that replay succeeds, and the predecoded trace holds
// the profile's instruction count.
func TestBuildProfileMatchesReplay(t *testing.T) {
	rf := func(vregs, vlen, perBank int) vcomp.Options {
		r := arch.DefaultRegFile()
		r.VRegs, r.VLen, r.VRegsPerBank = vregs, vlen, perBank
		return vcomp.Options{RegFile: r}
	}
	variants := []struct {
		name string
		opts vcomp.Options
	}{
		{"default", vcomp.Options{}},
		{"nohoist", vcomp.Options{NoHoist: true}},
		{"vlen32", rf(8, 32, 2)},
		{"vlen64", rf(8, 64, 2)},
		{"vlen256", rf(8, 256, 2)},
		{"vlen512", rf(8, 512, 2)},
		{"bank1", rf(8, 128, 1)},
		{"bank8", rf(8, 128, 8)},
		{"vregs4", rf(4, 128, 2)},
	}
	specs := append(Specs(), BenchSpecs()...)
	if len(specs) != 17 {
		t.Fatalf("catalog holds %d specs, want 17", len(specs))
	}
	for _, s := range specs {
		for _, v := range variants {
			for _, scale := range []float64{1e-4, 3e-4, DefaultScale} {
				name := fmt.Sprintf("%s/%s/%g", s.Short, v.name, scale)
				w, err := s.BuildOpts(scale, v.opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := w.Trace.Profile()
				if err != nil {
					t.Fatalf("%s: deferred trace does not replay: %v", name, err)
				}
				if w.Stats != want || w.Fingerprint() != want.Fingerprint() {
					t.Errorf("%s: profile %+v\nreplay %+v", name, w.Stats, want)
				}
				n, drained, err := prog.NewStreamVL(w.Trace.Prog, w.Trace.Source(), w.Trace.MaxVL).Drain()
				if err != nil || drained != want || n != want.Insts() {
					t.Errorf("%s: drain %+v, %v\nreplay %+v", name, drained, err, want)
				}
				if n := int64(len(w.Trace.Decoded())); n != w.Stats.Insts() {
					t.Errorf("%s: %d predecoded instructions, profile counts %d", name, n, w.Stats.Insts())
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

// TestPersistIDRule: a build derives its identity once, a
// hand-assembled workload over the catalog's Spec derives the same one,
// and one over a copy of the Spec has none.
func TestPersistIDRule(t *testing.T) {
	w, err := ByShort("sp").BuildOpts(testScale, vcomp.Options{NoHoist: true})
	if err != nil {
		t.Fatal(err)
	}
	id, ok := w.PersistID()
	if want := "spmv@0.0001+nohoist+fp" + strconv.FormatUint(w.Fingerprint(), 16); !ok || id != want {
		t.Fatalf("PersistID = %q, %v; want %q", id, ok, want)
	}
	hand := &Workload{Spec: w.Spec, Scale: w.Scale, Trace: w.Trace, Stats: w.Stats, Opts: w.Opts}
	if got, ok := hand.PersistID(); !ok || got != id {
		t.Errorf("hand-assembled PersistID = %q, %v; want the build's %q", got, ok, id)
	}
	spec := *w.Spec
	hand.Spec = &spec
	if got, ok := hand.PersistID(); ok {
		t.Errorf("workload over a copied Spec has identity %q", got)
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
