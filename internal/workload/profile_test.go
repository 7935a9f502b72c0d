package workload

import (
	"fmt"
	"strconv"
	"testing"

	"mtvec/internal/arch"
	"mtvec/internal/kernel"
	"mtvec/internal/prog"
	"mtvec/internal/vcomp"
)

// TestBuildProfileMatchesReplay: for every catalog spec, under the
// default compilation, without load hoisting, at a short vector length
// and for each compiled organization of the register-file study, at
// four scales, a build's closed-form profile of its schedule's runs
// equals profiling the expanded schedule invocation by invocation, and
// with its fingerprint equals replaying the trace it defers, both per
// basic block and instruction by instruction; that replay succeeds,
// and the predecoded trace holds the profile's instruction count.
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
			for _, scale := range []float64{1e-5, 1e-4, 3e-4, DefaultScale} {
				name := fmt.Sprintf("%s/%s/%g", s.Short, v.name, scale)
				c, runs, err := s.compile(scale, v.opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				w, err := fromSchedule(s, scale, v.opts, c, runs)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				flat, err := c.Profile(expand(runs))
				if err != nil || w.Stats != flat {
					t.Errorf("%s: run-form profile %+v\nflat profile %+v, %v", name, w.Stats, flat, err)
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

// expand spells runs out invocation by invocation.
func expand(runs []vcomp.Run) []vcomp.Invocation {
	var sched []vcomp.Invocation
	for _, r := range runs {
		for range r.Count {
			sched = append(sched, r.Invocation)
		}
	}
	return sched
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

// TestFromCompiled: a wrapped user kernel takes the program's name, has
// no persist identity, keeps its own copy of the schedule, and its
// closed-form profile equals draining its deferred trace; a nil kernel
// and an invalid invocation are rejected at construction.
func TestFromCompiled(t *testing.T) {
	x := &kernel.Array{Name: "x", Base: 0x10000, Stride: 8}
	y := &kernel.Array{Name: "y", Base: 0x20000, Stride: 8}
	c, err := vcomp.Compile(&kernel.Kernel{Name: "daxpy-setup", Units: []kernel.Unit{
		&kernel.VectorLoop{Name: "daxpy", Body: []kernel.Stmt{{
			Dst: y,
			E: &kernel.Bin{Op: kernel.Add,
				L: &kernel.Bin{Op: kernel.Mul, L: &kernel.ScalarArg{Name: "a"}, R: &kernel.Ref{Arr: x}},
				R: &kernel.Ref{Arr: y}},
		}}},
		&kernel.ScalarLoop{Name: "setup", Loads: 2, Stores: 1, IntOps: 3, FPOps: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	sched := []vcomp.Invocation{{Unit: 1, N: 300}, {Unit: 0, N: 1000}, {Unit: 0, N: 0}, {Unit: 1, N: 7}}
	w, err := FromCompiled(c, sched)
	if err != nil {
		t.Fatal(err)
	}
	sched[1].N = 5 // the workload keeps the schedule it was given
	if w.Spec.Short != c.Prog.Name || w.Spec.Name != c.Prog.Name {
		t.Errorf("named %q/%q, want %q", w.Spec.Name, w.Spec.Short, c.Prog.Name)
	}
	if id, ok := w.PersistID(); ok {
		t.Errorf("compiled workload has persist identity %q", id)
	}
	n, drained, err := prog.NewStreamVL(w.Trace.Prog, w.Trace.Source(), w.Trace.MaxVL).Drain()
	if err != nil || drained != w.Stats || n != w.Stats.Insts() {
		t.Errorf("drain %+v, %v\nprofile %+v", drained, err, w.Stats)
	}
	if w.Stats.VectorOps < 1000 {
		t.Errorf("profile counts %d vector operations for a 1000-element loop", w.Stats.VectorOps)
	}

	for name, bad := range map[string][]vcomp.Invocation{
		"unit out of range":   {{Unit: 2, N: 1}},
		"negative unit":       {{Unit: -1, N: 1}},
		"negative trip count": {{Unit: 0, N: -1}},
	} {
		if _, err := FromCompiled(c, bad); err == nil {
			t.Errorf("%s: FromCompiled accepted %+v", name, bad)
		}
	}
	if _, err := FromCompiled(nil, sched); err == nil {
		t.Error("FromCompiled accepted a nil kernel")
	}
}
