// Package workload turns kernel IR into runnable benchmark programs:
// compiled traces plus the metadata the session, store and serving
// tiers key on.
//
// Two catalogs are registered:
//
//   - Specs: the paper's ten Perfect Club / SPECfp92 programs (Table 3)
//     as synthetic kernels calibrated to the published dynamic profiles
//     — scalar instruction count, vector instruction count, vector
//     operation count, degree of vectorization and average vector
//     length. The real programs cannot be traced without a Convex C3480
//     and its Fortran compiler; per DESIGN.md the substitution preserves
//     the quantities the paper's effects depend on. Each workload is a
//     kernel of domain-flavoured vector loops (stencils, axpy,
//     reductions, gather/scatter, strided column walks) plus a serial
//     loop, with an invocation schedule solved by the calibration
//     planner in plan.go.
//
//   - BenchSpecs: a real vectorizable benchmark suite (axpy, dot, a
//     blocked gemm, CSR spmv, 1-D/2-D stencils, a Black-Scholes-class
//     elementwise kernel) expressed in the same IR but scheduled from
//     actual problem sizes (bench.go) rather than published instruction
//     budgets. See docs/BENCHMARKS.md.
//
// # Registration contract
//
// ByName and ByShort resolve over the union of both catalogs, and a
// workload's persist identity rests on registry membership: a
// *Workload whose Spec pointer is reachable through ByName(Spec.Name)
// has a stable, content-addressed identity (Workload.PersistID) of the
// form "name@scale[+options]+fp<stats fingerprint>", which is what lets the
// on-disk store and the cluster tier share results across processes.
// New kernels therefore MUST be added to one of the two registries (and
// keep their recipes deterministic — same Spec + Scale + Options must
// always produce the identical trace) to be store-persistable; an
// unregistered Spec (a user kernel wrapped with FromCompiled, or a
// trace imported with FromTrace) still works everywhere but is memoized
// per-process only.
package workload

import (
	"fmt"
	"strconv"

	"mtvec/internal/arch"
	"mtvec/internal/kernel"
	"mtvec/internal/prog"
	"mtvec/internal/trace"
	"mtvec/internal/vcomp"
)

// DefaultScale is the fraction of the paper's dynamic instruction counts
// the standard reproduction uses (Table 3 counts are in millions; 1e-3
// keeps every ratio intact at roughly thousandth size).
const DefaultScale = 1e-3

// Spec describes one benchmark program: its catalog row and the kernel
// construction recipe. Specs are immutable once published through
// Specs/BenchSpecs; the pointer itself is the registry identity the
// session layer checks when deriving persist keys.
type Spec struct {
	Name  string // program name, e.g. "swm256" or "spmv"
	Short string // short tag, e.g. "sw" (paper) or "sp" (bench suite)
	Suite string // "Spec", "Perf." (Table 3) or "Bench"

	// Table 3 columns, in millions of instructions/operations. Zero for
	// the bench suite, whose dynamic profile is measured from the built
	// trace instead of calibrated to a published row.
	ScalarM float64
	VectorM float64
	OpsM    float64
	PctVect float64 // published degree of vectorization (%)
	AvgVL   float64 // published average vector length

	// build constructs the kernel and, for calibrated specs, the phases
	// the Table 3 planner consumes.
	build func() (*kernel.Kernel, []phase)

	// schedule, when non-nil, replaces the calibration planner: it
	// receives the compiled kernel and the requested scale and returns
	// the invocation schedule directly, as runs of identical
	// invocations. Bench-suite specs use it to
	// scale real problem sizes (elements, matrix dimensions) instead of
	// instruction budgets. It must be deterministic in (c, scale).
	schedule func(c *vcomp.Compiled, scale float64) ([]vcomp.Run, error)
}

// phase is one vector loop of the recipe: trip count per invocation and
// the share of the program's total vector operations it contributes.
type phase struct {
	unit  string
	n     int64
	share float64
}

// Workload is a built benchmark: the compiled program, its trace at the
// requested scale, and its dynamic statistics. A build's trace is
// deferred (trace.Deferred): its streams are synthesized by the first
// call that replays them, and a consumer that only reads Stats never
// pays for them.
type Workload struct {
	Spec  *Spec
	Scale float64
	Trace *trace.Trace
	Stats prog.Stats

	// Opts is the build's compiler provenance. Together with Spec and
	// Scale it makes the workload a pure function of declarative inputs,
	// which is what lets the persistent result store key runs on content
	// instead of process-local object identity.
	Opts vcomp.Options

	fp uint64 // Stats.Fingerprint(), taken once at build
	id string // PersistID(), derived once at build; "" if none
}

// Fingerprint returns the fingerprint of the workload's dynamic profile
// (prog.Stats.Fingerprint), the content part of its persist key. Build,
// FromCompiled and FromTrace compute it once; a hand-assembled Workload
// hashes its Stats on every call. A build's fields must not change after it.
func (w *Workload) Fingerprint() uint64 {
	if w.fp != 0 {
		return w.fp
	}
	return w.Stats.Fingerprint()
}

// PersistID returns the workload's process-stable content identity and
// whether it has one: the registered catalog spec it was built from,
// the build inputs (scale, compiler options) and the fingerprint of its
// dynamic profile, as "name@scale[+nohoist][+rfR.L.B]+fp<hex>". Only a
// workload whose Spec is the catalog's own (ByName(Spec.Name) == Spec)
// has one; a hand-assembled workload or one wrapping an imported trace
// does not.
//
// The fingerprint hashes the full dynamic statistics (including the
// per-opcode histogram), so editing a benchmark kernel, the compiler,
// or the calibration planner changes the identity and retires every
// stored result keyed on the old one. (A change to the cycle engine
// alters Reports without altering workloads; it must bump store.Schema
// instead.) A build derives the identity once; a hand-assembled
// workload derives it on every call.
func (w *Workload) PersistID() (string, bool) {
	if w.id != "" {
		return w.id, true
	}
	if w.Spec == nil || w.Trace == nil || ByName(w.Spec.Name) != w.Spec {
		return "", false
	}
	id := w.Spec.Name + "@" + strconv.FormatFloat(w.Scale, 'g', -1, 64)
	if w.Opts.NoHoist {
		id += "+nohoist"
	}
	if rf := w.Opts.RegFile.BuildKey(); rf != arch.DefaultRegFile().BuildKey() {
		id += fmt.Sprintf("+rf%d.%d.%d", rf.VRegs, rf.VLen, rf.VRegsPerBank)
	}
	return id + "+fp" + strconv.FormatUint(w.Fingerprint(), 16), true
}

// Build compiles the benchmark and solves the invocation schedule for the
// given scale.
func (s *Spec) Build(scale float64) (*Workload, error) {
	return s.BuildOpts(scale, vcomp.Options{})
}

// BuildOpts is Build with explicit compiler options (the ext-compiler
// ablation builds the suite with load hoisting disabled). It profiles
// the schedule's runs in closed form (vcomp.Compiled.ProfileRuns) and
// defers the trace's synthesis to its first replay; the profile equals
// the replayed one field for field, which the package tests and the
// vcomp fuzz target check instead of every build.
func (s *Spec) BuildOpts(scale float64, opts vcomp.Options) (*Workload, error) {
	c, runs, err := s.compile(scale, opts)
	if err != nil {
		return nil, err
	}
	return fromSchedule(s, scale, opts, c, runs)
}

// compile compiles the spec's kernel and solves its schedule at scale.
func (s *Spec) compile(scale float64, opts vcomp.Options) (*vcomp.Compiled, []vcomp.Run, error) {
	if scale <= 0 {
		return nil, nil, fmt.Errorf("workload: %s: non-positive scale %g", s.Name, scale)
	}
	k, phases := s.build()
	k.Units = append(k.Units, serialLoop())
	c, err := vcomp.CompileOpts(k, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("workload: %s: %w", s.Name, err)
	}
	var runs []vcomp.Run
	if s.schedule != nil {
		runs, err = s.schedule(c, scale)
	} else {
		runs, err = plan(c, s, phases, scale)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("workload: %s: %w", s.Name, err)
	}
	return c, runs, nil
}

// FromCompiled wraps a user-compiled kernel under an invocation
// schedule as a runnable Workload, the way a build wraps a catalog
// kernel: the schedule is copied into runs (vcomp.Runs) and profiled
// in closed form, and the trace is synthesized on its first replay.
// The workload runs in every mode under the program's name, and like
// FromTrace's it is memoized per process but never persisted: its Spec
// is not registered. A nil kernel or an invalid invocation is rejected
// here, not at run time.
func FromCompiled(c *vcomp.Compiled, schedule []vcomp.Invocation) (*Workload, error) {
	if c == nil || c.Prog == nil {
		return nil, fmt.Errorf("workload: FromCompiled: nil compiled kernel")
	}
	spec := &Spec{Name: c.Prog.Name, Short: c.Prog.Name, Suite: "User"}
	return fromSchedule(spec, 1, vcomp.Options{}, c, vcomp.Runs(schedule))
}

// fromSchedule profiles the compiled schedule's runs in closed form
// (vcomp.Compiled.ProfileRuns) and defers the trace's synthesis, which
// expands the runs, to its first replay. The caller must not change
// runs afterwards.
func fromSchedule(s *Spec, scale float64, opts vcomp.Options, c *vcomp.Compiled, runs []vcomp.Run) (*Workload, error) {
	st, err := c.ProfileRuns(runs)
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", s.Name, err)
	}
	tr := trace.Deferred(c.Prog, int64(c.RegFile().VLen), func() (*trace.Trace, error) { return c.TraceRuns(runs) })
	w := &Workload{Spec: s, Scale: scale, Trace: tr, Stats: st, Opts: opts, fp: st.Fingerprint()}
	w.id, _ = w.PersistID()
	return w, nil
}

// Stream returns a fresh dynamic instruction stream of the workload.
func (w *Workload) Stream() *prog.Stream { return w.Trace.Stream() }

// serialLoop is the standard non-vectorized loop used for every
// benchmark's scalar portion: 2 loads and 1 store per 9 instructions,
// reproducing the paper's observation that scalar loops sustain at most
// about 1/3 memory-port occupation (Section 6.2).
func serialLoop() *kernel.ScalarLoop {
	return &kernel.ScalarLoop{Name: "serial", Loads: 2, Stores: 1, IntOps: 2, FPOps: 1}
}

// ByShort returns the registered spec with the given short tag — from
// the Table 3 catalog or the bench suite — or nil.
func ByShort(short string) *Spec {
	return lookup(func(s *Spec) bool { return s.Short == short })
}

// ByName returns the registered spec with the given program name — from
// the Table 3 catalog or the bench suite — or nil.
func ByName(name string) *Spec {
	return lookup(func(s *Spec) bool { return s.Name == name })
}

// lookup scans both shared registries in place: every build resolves
// its own name (Workload.PersistID), so it must not copy them.
func lookup(match func(*Spec) bool) *Spec {
	for _, reg := range [][]*Spec{specsShared(), benchSpecsShared()} {
		for _, s := range reg {
			if match(s) {
				return s
			}
		}
	}
	return nil
}

// FromTrace wraps an externally supplied trace — decoded from a .mtvt
// file or imported from an RVV-flavoured text trace — as a runnable
// Workload. The trace is replay-validated and profiled by replaying its
// streams (Trace.Profile); a build profiles its schedule instead. The
// synthesized Spec is deliberately NOT registered:
// the session layer will run and memoize the workload normally,
// but never persist it to the store (an external trace has no
// content-addressed recipe to key on, only process-local identity).
// Machines replaying the workload must be configured with a register
// file whose VLen matches the trace's MaxVL when it differs from the
// reference length.
func FromTrace(name string, tr *trace.Trace) (*Workload, error) {
	if tr == nil || tr.Prog == nil {
		return nil, fmt.Errorf("workload: FromTrace: nil trace")
	}
	if name == "" {
		name = tr.Prog.Name
	}
	if name == "" {
		return nil, fmt.Errorf("workload: FromTrace: trace has no program name")
	}
	st, err := tr.Profile()
	if err != nil {
		return nil, fmt.Errorf("workload: %s: trace does not replay: %w", name, err)
	}
	spec := &Spec{Name: name, Short: name, Suite: "Import"}
	return &Workload{Spec: spec, Scale: 1, Trace: tr, Stats: st, fp: st.Fingerprint()}, nil
}

// QueueOrder returns the ten specs in the fixed random order of the
// paper's Section 7 job-queue benchmark: TF SW SU TI TO A7 HY NA SR SD.
func QueueOrder() []*Spec {
	order := []string{"tf", "sw", "su", "ti", "to", "a7", "hy", "na", "sr", "sd"}
	out := make([]*Spec, len(order))
	for i, sh := range order {
		out[i] = ByShort(sh)
	}
	return out
}

// Groupings reconstructs Table 2: the randomly-selected companion
// programs for the 2-, 3- and 4-thread speedup experiments. Column 2 is
// taken from the paper's Figure 7 caption (hydro2d's five companions);
// columns 3 and 4 are documented reconstructions (DESIGN.md).
type Groupings struct {
	Col2 []*Spec // 2-thread companions (5 programs)
	Col3 []*Spec // additional 3rd-thread programs (2)
	Col4 []*Spec // additional 4th-thread program (1)
}

// DefaultGroupings returns the Table 2 reconstruction.
func DefaultGroupings() Groupings {
	pick := func(shorts ...string) []*Spec {
		out := make([]*Spec, len(shorts))
		for i, sh := range shorts {
			out[i] = ByShort(sh)
		}
		return out
	}
	return Groupings{
		Col2: pick("hy", "na", "su", "to", "sw"),
		Col3: pick("tf", "a7"),
		Col4: pick("sr"),
	}
}
