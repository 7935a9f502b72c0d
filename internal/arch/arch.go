// Package arch is the declarative machine-shape layer: everything that
// used to be a hard-wired constant of the modelled Convex C3400 — vector
// register count and length, register-bank geometry and ports, hardware
// context limits and per-context register partitioning, the vector
// functional-unit mix, the decode issue width, the Table 1 latencies and
// the memory-system configuration — collected into one validated Spec
// value that the engine, the compiler and the experiment harness consume.
//
// A Spec is a plain comparable value: copy it to derive variants, share
// it freely across goroutines and Sessions (nothing in a Spec is ever
// mutated by a run), and compare it with == . The zero Spec is not valid;
// start from a preset (ConvexC3400, VP2000, CrayLikePorts) or fill every
// field. Validation reports every diagnosable problem at once, joined,
// mirroring the session option layer.
//
// The paper's Section 8 register-file study (crossbar latencies, bank
// ports, per-context register splitting) motivates the layer: with the
// shape extracted, a machine variant is a value, and a register-file
// organization study is a sweep over values.
package arch

import (
	"errors"
	"fmt"

	"mtvec/internal/isa"
	"mtvec/internal/memsys"
)

// Capacity ceilings. These bound the engine's fixed-size lookup tables
// and zero-allocation scans; they are generous relative to the machines
// of the paper's era (the Convex has 8 vector registers, the VP2000 up
// to 64 visible).
const (
	// MaxVRegs is the largest vector register count a Spec may declare
	// (bounded by what the ISA encoding can name).
	MaxVRegs = isa.VRegLimit

	// MaxVLen is the largest elements-per-register value (DynInst.VL is
	// a uint16; 4096 covers every machine the studies sweep).
	MaxVLen = 4096

	// MaxMachineContexts caps Spec.MaxContexts (the paper studies up to
	// 4 hardware contexts; 64 leaves sweeps room without unbounding the
	// engine).
	MaxMachineContexts = 64

	// MaxVectorFUs caps the functional-unit mix.
	MaxVectorFUs = 8
)

// RegFile describes a vector register file organization: how many
// architectural registers a context sees, how long each register is, and
// how the registers group into banks with read/write ports into the
// crossbars. The zero RegFile means "the default organization"
// (DefaultRegFile); Normalize resolves it.
type RegFile struct {
	// VRegs is the number of architectural vector registers. With
	// PartitionPerContext set this is the machine's physical pool, split
	// evenly among the active contexts; otherwise every context gets its
	// own full file (the paper's multithreaded design replicates it).
	VRegs int

	// VLen is the number of elements each vector register holds (the
	// hardware vector length; the Convex C3400 holds 128 64-bit words).
	VLen int

	// VRegsPerBank groups registers into banks (the Convex pairs them).
	// It must divide VRegs.
	VRegsPerBank int

	// BankReadPorts / BankWritePorts are each bank's ports into the read
	// and write crossbars (the Convex has 2 read, 1 write).
	BankReadPorts  int
	BankWritePorts int

	// PartitionPerContext selects the Section 8 register-splitting
	// alternative: instead of replicating the file per context, the
	// VRegs physical registers are divided evenly among the contexts, so
	// a 2-context machine halves each context's architectural file. The
	// context count must divide VRegs.
	PartitionPerContext bool
}

// DefaultRegFile is the Convex C3400 organization the rest of the
// repository's constants describe: 8 registers of 128 elements, paired
// into 4 banks with 2 read ports and 1 write port each.
func DefaultRegFile() RegFile {
	return RegFile{
		VRegs:          isa.NumV,
		VLen:           isa.MaxVL,
		VRegsPerBank:   isa.VRegsPerBank,
		BankReadPorts:  isa.BankReadPorts,
		BankWritePorts: isa.BankWritePorts,
	}
}

// IsZero reports whether the RegFile is the unset zero value.
func (r RegFile) IsZero() bool { return r == RegFile{} }

// Normalize resolves the zero value to DefaultRegFile and leaves any
// explicitly-set organization untouched.
func (r RegFile) Normalize() RegFile {
	if r.IsZero() {
		return DefaultRegFile()
	}
	return r
}

// NumBanks returns the number of register banks.
func (r RegFile) NumBanks() int {
	if r.VRegsPerBank <= 0 {
		return 0
	}
	return r.VRegs / r.VRegsPerBank
}

// Bank returns the bank index holding vector register v.
func (r RegFile) Bank(v uint8) int { return int(v) / r.VRegsPerBank }

// BuildKey canonicalizes the fields that do not affect compiled code
// (port counts and partitioning are machine-side, so they take the
// reference values), letting workload builds be cached per distinct
// compiler-visible organization. The result is itself a valid RegFile.
func (r RegFile) BuildKey() RegFile {
	r = r.Normalize()
	def := DefaultRegFile()
	return RegFile{
		VRegs:          r.VRegs,
		VLen:           r.VLen,
		VRegsPerBank:   r.VRegsPerBank,
		BankReadPorts:  def.BankReadPorts,
		BankWritePorts: def.BankWritePorts,
	}
}

// Validate reports every problem with the organization, joined.
func (r RegFile) Validate() error {
	var errs []error
	ef := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if r.VRegs < 1 || r.VRegs > MaxVRegs {
		ef("arch: vector registers %d out of range 1..%d", r.VRegs, MaxVRegs)
	}
	if r.VLen < 1 || r.VLen > MaxVLen {
		ef("arch: vector length %d out of range 1..%d", r.VLen, MaxVLen)
	}
	if r.VRegsPerBank < 1 {
		ef("arch: registers per bank %d < 1", r.VRegsPerBank)
	} else if r.VRegs >= 1 && r.VRegs%r.VRegsPerBank != 0 {
		ef("arch: registers per bank %d does not divide %d registers", r.VRegsPerBank, r.VRegs)
	}
	if r.BankReadPorts < 1 {
		ef("arch: bank read ports %d < 1", r.BankReadPorts)
	}
	if r.BankWritePorts < 1 {
		ef("arch: bank write ports %d < 1", r.BankWritePorts)
	}
	return errors.Join(errs...)
}

// Spec is a complete machine shape. It embeds the register-file
// organization and carries the context cap, the vector functional-unit
// mix, the default issue width, the Table 1 latency set and the memory
// system configuration.
type Spec struct {
	// Name labels the shape in CLIs and reports ("convex-c3400", ...).
	// It carries no semantics: two specs that differ only in Name
	// simulate identically and share memoized results.
	//mtvlint:allow keycomplete -- Name is a display label with no simulation semantics; sharing cached results across names is intended
	Name string

	RegFile

	// MaxContexts is the largest hardware context count this register
	// file model supports (the validation cap Config.Contexts is checked
	// against; the old core.MaxContexts constant, now per-shape).
	MaxContexts int

	// RestrictedFUs and GeneralFUs set the vector functional-unit mix:
	// restricted lanes cannot execute mul/div/sqrt (the Convex FU1),
	// general lanes execute everything (FU2). Dispatch prefers
	// restricted lanes, keeping general lanes free for the ops that need
	// them — with the default 1+1 mix this is exactly the paper's
	// machine.
	RestrictedFUs int
	GeneralFUs    int

	// IssueWidth is the default decode-slots-per-cycle for machines
	// built from this spec (core.Config.IssueWidth overrides when set).
	IssueWidth int

	// Lat is the functional-unit / crossbar latency table (Table 1).
	Lat isa.LatencyTable

	// Mem configures the memory subsystem (latency, ports, banking).
	Mem memsys.Config
}

// IsZero reports whether the Spec is the unset zero value. It compares
// in place: Config.Normalize and Config.Validate call it once per run
// point, and a value receiver would copy the whole shape each time.
func (s *Spec) IsZero() bool { return *s == Spec{} }

// Clone returns an independent copy of the spec. Specs are plain values
// with no reference fields, so the copy is the assignment itself; the
// method exists to make reuse contracts explicit at call sites.
func (s Spec) Clone() Spec { return s }

// CtxVRegs returns the architectural vector registers each context sees
// at the given context count: the full file when replicated, an even
// share when partitioned.
func (s *Spec) CtxVRegs(contexts int) int {
	if s.PartitionPerContext && contexts > 0 {
		return s.VRegs / contexts
	}
	return s.VRegs
}

// Validate reports every diagnosable problem with the spec, joined into
// one error (mirroring the session option layer's diagnostics).
func (s *Spec) Validate() error {
	var errs []error
	ef := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if err := s.RegFile.Validate(); err != nil {
		errs = append(errs, err)
	}
	if s.MaxContexts < 1 || s.MaxContexts > MaxMachineContexts {
		ef("arch: max contexts %d out of range 1..%d", s.MaxContexts, MaxMachineContexts)
	}
	if s.RestrictedFUs < 0 {
		ef("arch: negative restricted FU count %d", s.RestrictedFUs)
	}
	if s.GeneralFUs < 1 {
		ef("arch: general FU count %d < 1 (mul/div/sqrt need a general lane)", s.GeneralFUs)
	}
	if n := s.RestrictedFUs + s.GeneralFUs; n > MaxVectorFUs {
		ef("arch: %d functional units exceed the %d-lane cap", n, MaxVectorFUs)
	}
	if s.IssueWidth < 1 {
		ef("arch: issue width %d < 1", s.IssueWidth)
	}
	if err := s.Lat.Validate(); err != nil {
		errs = append(errs, err)
	}
	if err := s.Mem.Validate(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// ValidateContexts checks the parts of the shape that depend on the
// machine's context count: the MaxContexts cap and, when partitioning,
// even divisibility with at least one register per context.
func (s *Spec) ValidateContexts(contexts int) error {
	var errs []error
	if contexts < 1 || contexts > s.MaxContexts {
		errs = append(errs, fmt.Errorf("arch: contexts %d out of range 1..%d (spec %q)", contexts, s.MaxContexts, s.Name))
	}
	// The partition checks form a derivation chain (share exists only
	// when the division is even), so within the chain only the first
	// applicable problem is meaningful — but it is reported alongside an
	// out-of-range count rather than hidden behind it.
	if s.PartitionPerContext && contexts >= 1 {
		switch share := s.VRegs / contexts; {
		case s.VRegs%contexts != 0:
			errs = append(errs, fmt.Errorf("arch: %d contexts do not divide the %d-register partitioned file", contexts, s.VRegs))
		case share < 1:
			errs = append(errs, fmt.Errorf("arch: partitioning %d registers across %d contexts leaves none", s.VRegs, contexts))
		case s.VRegsPerBank > 0 && share%s.VRegsPerBank != 0:
			// Each context's share must align to bank boundaries: a split
			// cutting through a physical bank would hand two contexts
			// private copies of one bank's ports.
			errs = append(errs, fmt.Errorf("arch: partitioning %d registers across %d contexts splits a %d-register bank; per-context share must be a whole number of banks",
				s.VRegs, contexts, s.VRegsPerBank))
		}
	}
	return errors.Join(errs...)
}

// Derived is the set of lookup tables the engine consumes, resolved once
// per machine from a validated spec and context count.
type Derived struct {
	// BankOf maps a vector register index to its bank (valid for
	// indices below CtxVRegs).
	BankOf [MaxVRegs]uint8

	// CtxVRegs is the per-context architectural register count.
	CtxVRegs int

	// NumBanks is the number of banks each context's file exposes.
	NumBanks int

	// BankReadPorts / BankWritePorts mirror the spec for flat access.
	BankReadPorts  int
	BankWritePorts int

	// VLMax is the largest vector length an instruction may carry.
	VLMax uint16

	// RestrictedFUs and TotalFUs describe the lane layout: lanes
	// [0, RestrictedFUs) are restricted, [RestrictedFUs, TotalFUs)
	// general.
	RestrictedFUs int
	TotalFUs      int
}

// Derive validates the spec against the context count and resolves the
// engine tables.
func (s *Spec) Derive(contexts int) (Derived, error) {
	if err := s.Validate(); err != nil {
		return Derived{}, err
	}
	if err := s.ValidateContexts(contexts); err != nil {
		return Derived{}, err
	}
	ctxRegs := s.CtxVRegs(contexts)
	d := Derived{
		CtxVRegs:       ctxRegs,
		NumBanks:       (ctxRegs + s.VRegsPerBank - 1) / s.VRegsPerBank,
		BankReadPorts:  s.BankReadPorts,
		BankWritePorts: s.BankWritePorts,
		VLMax:          uint16(s.VLen),
		RestrictedFUs:  s.RestrictedFUs,
		TotalFUs:       s.RestrictedFUs + s.GeneralFUs,
	}
	for v := 0; v < ctxRegs; v++ {
		d.BankOf[v] = uint8(v / s.VRegsPerBank)
	}
	return d, nil
}

// ConvexC3400 is the reference shape every constant in the repository
// reconstructs: the paper's Convex C3400-class machine. Machines built
// from it are byte-identical to machines built before the arch layer
// existed (the golden suite pins this).
func ConvexC3400() Spec {
	return Spec{
		Name:          "convex-c3400",
		RegFile:       DefaultRegFile(),
		MaxContexts:   8,
		RestrictedFUs: 1,
		GeneralFUs:    1,
		IssueWidth:    1,
		Lat:           isa.DefaultLatencies(),
		Mem:           memsys.DefaultConfig(),
	}
}

// VP2000 models the Fujitsu VP2000 family's register file for the
// Section 9 comparison: a much larger reconfigurable file (modelled at
// 32 registers of 512 elements, 4 per bank) feeding two general vector
// pipes, with the paper's dual-scalar decode arrangement expressed via
// core.Config.DualScalar. Latencies and memory keep the Table 1 model so
// the register-file organization is the isolated variable.
func VP2000() Spec {
	s := ConvexC3400()
	s.Name = "vp2000"
	s.RegFile = RegFile{
		VRegs:          32,
		VLen:           512,
		VRegsPerBank:   4,
		BankReadPorts:  2,
		BankWritePorts: 1,
	}
	s.MaxContexts = 2
	s.RestrictedFUs = 0
	s.GeneralFUs = 2
	return s
}

// CrayLikePorts is the Section 10 future-work variant: Cray-style short
// single-ported registers (8 registers of 64 elements, one bank each,
// 1R/1W) over a 2-load/1-store memory port arrangement with no scalar
// cache, matching the WithMemPorts ablation.
func CrayLikePorts() Spec {
	s := ConvexC3400()
	s.Name = "cray-ports"
	s.RegFile = RegFile{
		VRegs:          isa.NumV,
		VLen:           64,
		VRegsPerBank:   1,
		BankReadPorts:  1,
		BankWritePorts: 1,
	}
	s.Mem = memsys.Config{
		Latency:    s.Mem.Latency,
		LoadPorts:  2,
		StorePorts: 1,
	}
	return s
}

// Presets returns the named machine shapes, reference machine first.
func Presets() []Spec {
	return []Spec{ConvexC3400(), VP2000(), CrayLikePorts()}
}

// ByName returns the preset with the given name, or false.
func ByName(name string) (Spec, bool) {
	for _, s := range Presets() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
