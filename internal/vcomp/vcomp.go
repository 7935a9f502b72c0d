// Package vcomp compiles kernel IR into ISA programs, standing in for the
// Convex Fortran compiler of the paper's methodology. It strip-mines
// vector loops by the hardware vector length, allocates vector registers
// with awareness of the 2-registers-per-bank port structure (the paper
// notes the compiler is responsible for avoiding register-port
// conflicts), tracks the vector-stride register across mixed-stride
// bodies, and lowers scalar loops to representative scalar code.
//
// Compilation is static and happens once per kernel; dynamic behaviour is
// produced by emitting the four Dixie-style trace streams for an
// invocation schedule (trip counts per loop).
package vcomp

import (
	"fmt"

	"mtvec/internal/arch"
	"mtvec/internal/kernel"
	"mtvec/internal/prog"
	"mtvec/internal/trace"
)

// Compiled is a kernel lowered to a static program plus the metadata
// needed to emit traces for arbitrary invocation schedules.
type Compiled struct {
	Prog   *prog.Program
	Kernel *kernel.Kernel

	units []*unitCode

	// rf is the register-file organization the code was compiled for;
	// vlen caches its strip length.
	rf   arch.RegFile
	vlen int64
}

// RegFile returns the register-file organization the kernel was compiled
// for (the strip-mining length, register count and banking the code
// assumes).
func (c *Compiled) RegFile() arch.RegFile { return c.rf }

// unitCode records the lowering of one kernel unit.
type unitCode struct {
	name string

	// Absolute block indices within Prog (-1 when absent).
	entry, body, tail int

	entrySlots []slot
	bodySlots  []slot
	tailSlots  []slot

	// Exact per-block instruction counts for estimation.
	entryScalar, bodyScalar, tailScalar int64
	bodyVec, tailVec                    int64
}

// slot is one dynamic value the trace must supply for a block execution,
// in instruction order.
type slotKind uint8

const (
	slotVL     slotKind = iota // SetVL: full strip or remainder, per context
	slotStride                 // SetVS: fixed value
	slotAddr                   // memory base address, offset by strip/iteration
)

type slot struct {
	kind   slotKind
	stride int64  // slotStride: value to install; slotAddr: bytes/element
	base   uint64 // slotAddr: array base
	walk   bool   // slotAddr: true if the address advances with strip/iter
}

// Invocation requests one execution of a unit with trip count N.
type Invocation struct {
	Unit int
	N    int64
}

// Run is Count consecutive executions of one invocation, the compact
// form of a schedule that ProfileRuns and TraceRuns take. The workload
// planner interleaves each phase across a fixed number of rounds, so
// its schedules hold a bounded number of runs at any scale.
type Run struct {
	Invocation
	Count int64
}

// AppendRun appends count executions of inv to runs, extending the
// last run when it repeats the same invocation.
func AppendRun(runs []Run, inv Invocation, count int64) []Run {
	if n := len(runs); n > 0 && runs[n-1].Invocation == inv {
		runs[n-1].Count += count
		return runs
	}
	return append(runs, Run{Invocation: inv, Count: count})
}

// Runs compresses a schedule into runs of identical consecutive
// invocations.
func Runs(schedule []Invocation) []Run {
	var runs []Run
	for _, inv := range schedule {
		runs = AppendRun(runs, inv, 1)
	}
	return runs
}

// Options tunes the compiler.
type Options struct {
	// NoHoist disables load hoisting, modelling a naive compiler that
	// places each load immediately before its first use. The paper's
	// Convex compiler scheduled loads early because the machine cannot
	// chain loads into functional units; the ext-compiler experiment
	// quantifies how much that scheduling is worth.
	NoHoist bool

	// RegFile targets the compilation at a vector register file
	// organization: loops strip-mine by its VLen, and the register
	// allocator spreads across its banks within its register count. The
	// zero value targets the default (Convex) organization; traces from
	// a non-default compilation carry the matching hardware vector
	// length (trace.Trace.MaxVL), and machines must be configured with
	// the same organization (session.WithRegFile) to run them.
	RegFile arch.RegFile
}

// Compile lowers k with default options.
func Compile(k *kernel.Kernel) (*Compiled, error) {
	return CompileOpts(k, Options{})
}

// CompileOpts lowers k. The resulting program contains one
// entry/body/tail block group per unit.
func CompileOpts(k *kernel.Kernel, opts Options) (*Compiled, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	opts.RegFile = opts.RegFile.Normalize()
	if err := opts.RegFile.Validate(); err != nil {
		return nil, fmt.Errorf("vcomp: %s: %w", k.Name, err)
	}
	c := &Compiled{
		Prog:   &prog.Program{Name: k.Name},
		Kernel: k,
		rf:     opts.RegFile,
		vlen:   int64(opts.RegFile.VLen),
	}
	for _, u := range k.Units {
		var uc *unitCode
		var err error
		switch l := u.(type) {
		case *kernel.VectorLoop:
			uc, err = lowerVector(c.Prog, l, opts)
		case *kernel.ScalarLoop:
			uc, err = lowerScalar(c.Prog, l)
		default:
			err = fmt.Errorf("vcomp: unknown unit type %T", u)
		}
		if err != nil {
			return nil, fmt.Errorf("vcomp: %s: %w", k.Name, err)
		}
		c.units = append(c.units, uc)
	}
	if err := c.Prog.Validate(); err != nil {
		return nil, fmt.Errorf("vcomp: %s: generated invalid program: %w", k.Name, err)
	}
	return c, nil
}

// NumUnits returns the number of compiled units.
func (c *Compiled) NumUnits() int { return len(c.units) }

// UnitIndex returns the index of the named unit, or -1.
func (c *Compiled) UnitIndex(name string) int {
	for i, u := range c.units {
		if u.name == name {
			return i
		}
	}
	return -1
}

// checkInvocation rejects an invocation of a unit the kernel lacks or
// with a negative trip count.
func (c *Compiled) checkInvocation(inv Invocation) error {
	if inv.Unit < 0 || inv.Unit >= len(c.units) {
		return fmt.Errorf("vcomp: invocation names unit %d of %d", inv.Unit, len(c.units))
	}
	if inv.N < 0 {
		return fmt.Errorf("vcomp: negative trip count %d", inv.N)
	}
	return nil
}

// checkRun is checkInvocation for a run, which also rejects a negative
// count.
func (c *Compiled) checkRun(r Run) error {
	if err := c.checkInvocation(r.Invocation); err != nil {
		return err
	}
	if r.Count < 0 {
		return fmt.Errorf("vcomp: negative run count %d", r.Count)
	}
	return nil
}

// AppendTrace appends the dynamic streams for one invocation to tr.
func (c *Compiled) AppendTrace(tr *trace.Trace, inv Invocation) error {
	if err := c.checkInvocation(inv); err != nil {
		return err
	}
	if inv.N == 0 {
		return nil
	}
	// Replays must run at the compilation's hardware vector length;
	// record the largest one contributing to the trace.
	if tr.MaxVL < c.vlen {
		tr.MaxVL = c.vlen
	}
	u := c.units[inv.Unit]
	if isVectorUnit(u) {
		c.emitVectorUnit(tr, u, inv.N)
	} else {
		emitScalarUnit(tr, u, inv.N)
	}
	return nil
}

// Trace builds a complete trace for the schedule, as TraceRuns does
// for its runs.
func (c *Compiled) Trace(schedule []Invocation) (*trace.Trace, error) {
	return c.TraceRuns(Runs(schedule))
}

// TraceRuns builds a complete trace for the schedule the runs spell
// out, expanding each run. The stream lengths are computed exactly up
// front so the emission loop never reallocates.
func (c *Compiled) TraceRuns(runs []Run) (*trace.Trace, error) {
	var bbs, vls, strides, addrs int64
	for _, r := range runs {
		if c.checkRun(r) != nil || r.N == 0 {
			continue // reported in order below
		}
		b, v, s, a := c.sizeInvocation(c.units[r.Unit], r.N)
		bbs, vls, strides, addrs = bbs+r.Count*b, vls+r.Count*v, strides+r.Count*s, addrs+r.Count*a
	}
	tr := &trace.Trace{
		Prog:    c.Prog,
		BBs:     make([]int32, 0, bbs),
		VLs:     make([]int64, 0, vls),
		Strides: make([]int64, 0, strides),
		Addrs:   make([]uint64, 0, addrs),
		MaxVL:   c.vlen,
	}
	for _, r := range runs {
		if err := c.checkRun(r); err != nil {
			return nil, err
		}
		for i := int64(0); i < r.Count; i++ {
			if err := c.AppendTrace(tr, r.Invocation); err != nil {
				return nil, err
			}
		}
	}
	return tr, nil
}

// countSlots tallies a slot list by kind.
func countSlots(slots []slot) (vls, strides, addrs int64) {
	for _, s := range slots {
		switch s.kind {
		case slotVL:
			vls++
		case slotStride:
			strides++
		case slotAddr:
			addrs++
		}
	}
	return
}

// sizeInvocation returns the exact stream entry counts one invocation of
// u appends, mirroring emitVectorUnit/emitScalarUnit.
func (c *Compiled) sizeInvocation(u *unitCode, n int64) (bbs, vls, strides, addrs int64) {
	ev, es, ea := countSlots(u.entrySlots)
	bv, bs, ba := countSlots(u.bodySlots)
	if !isVectorUnit(u) {
		return 1 + n, ev + n*bv, es + n*bs, ea + n*ba
	}
	f := n / c.vlen
	rem := n % c.vlen
	bbs, vls, strides, addrs = 1+f, ev+f*bv, es+f*bs, ea+f*ba
	if rem > 0 {
		tv, ts, ta := countSlots(u.tailSlots)
		bbs, vls, strides, addrs = bbs+1, vls+tv, strides+ts, addrs+ta
	}
	return
}

func isVectorUnit(u *unitCode) bool { return u.tail >= 0 }

// emitVectorUnit emits entry, f full strips and an optional remainder.
func (c *Compiled) emitVectorUnit(tr *trace.Trace, u *unitCode, n int64) {
	f := n / c.vlen
	rem := n % c.vlen

	entryVL := c.vlen
	if f == 0 {
		entryVL = rem
	}
	tr.BBs = append(tr.BBs, int32(u.entry))
	emitSlots(tr, u.entrySlots, entryVL, 0)

	for k := int64(0); k < f; k++ {
		tr.BBs = append(tr.BBs, int32(u.body))
		emitSlots(tr, u.bodySlots, c.vlen, k*c.vlen)
	}
	if rem > 0 {
		tr.BBs = append(tr.BBs, int32(u.tail))
		emitSlots(tr, u.tailSlots, rem, f*c.vlen)
	}
}

// emitScalarUnit emits entry and n body iterations.
func emitScalarUnit(tr *trace.Trace, u *unitCode, n int64) {
	tr.BBs = append(tr.BBs, int32(u.entry))
	emitSlots(tr, u.entrySlots, 0, 0)
	for i := int64(0); i < n; i++ {
		tr.BBs = append(tr.BBs, int32(u.body))
		emitSlots(tr, u.bodySlots, 0, i)
	}
}

// emitSlots resolves a block's slots: vl is the value any SetVL takes,
// elem is the element offset (strip start or scalar iteration index).
func emitSlots(tr *trace.Trace, slots []slot, vl int64, elem int64) {
	for _, s := range slots {
		switch s.kind {
		case slotVL:
			tr.VLs = append(tr.VLs, vl)
		case slotStride:
			tr.Strides = append(tr.Strides, s.stride)
		case slotAddr:
			a := s.base
			if s.walk {
				a += uint64(elem * s.stride)
			}
			tr.Addrs = append(tr.Addrs, a)
		}
	}
}

// Profile returns the dynamic statistics of replaying Trace(schedule),
// computed invocation by invocation without synthesizing a stream (see
// ProfileRuns). Invalid invocations are rejected as Trace rejects them.
func (c *Compiled) Profile(schedule []Invocation) (prog.Stats, error) {
	t := prog.NewTally(c.Prog, c.vlen)
	for _, inv := range schedule {
		if err := c.checkInvocation(inv); err != nil {
			return prog.Stats{}, err
		}
		c.tally(t, inv, 1)
	}
	return t.Stats(), nil
}

// ProfileRuns returns the dynamic statistics of replaying
// TraceRuns(runs), computed from the runs without synthesizing a
// stream: it visits the blocks emitVectorUnit and emitScalarUnit would
// emit, each run of body visits at once, through a prog.Tally at the
// compilation's vector length. The VL in force carries across
// invocations as the replay carries it. A run of k invocations costs
// two passes over its blocks, not k: the first execution enters under
// the VL the previous run left, and every later one under the VL the
// first left, because an invocation either sets the VL to values of
// its own or leaves it alone; the second pass accounts those k-1 alike
// (prog.Tally.Repeat). Invalid runs are rejected as TraceRuns rejects
// them.
func (c *Compiled) ProfileRuns(runs []Run) (prog.Stats, error) {
	t := prog.NewTally(c.Prog, c.vlen)
	for _, r := range runs {
		if err := c.checkRun(r); err != nil {
			return prog.Stats{}, err
		}
		if r.Count > 0 {
			c.tally(t, r.Invocation, 1)
			c.tally(t, r.Invocation, r.Count-1)
		}
	}
	return t.Stats(), nil
}

// tally accounts r repetitions of a valid invocation (prog.Tally.Repeat).
func (c *Compiled) tally(t *prog.Tally, inv Invocation, r int64) {
	if inv.N == 0 {
		return
	}
	u := c.units[inv.Unit]
	if !isVectorUnit(u) {
		t.Repeat(u.entry, 1, 0, r)
		t.Repeat(u.body, inv.N, 0, r)
		return
	}
	f := inv.N / c.vlen
	rem := inv.N % c.vlen
	entryVL := c.vlen
	if f == 0 {
		entryVL = rem
	}
	t.Repeat(u.entry, 1, entryVL, r)
	t.Repeat(u.body, f, c.vlen, r)
	if rem > 0 {
		t.Repeat(u.tail, 1, rem, r)
	}
}

// EstimateInvocation returns the exact dynamic instruction counts one
// invocation of the unit produces: scalar instructions, vector
// instructions and vector operations. The workload calibration planner
// uses these to hit Table 3 targets analytically.
func (c *Compiled) EstimateInvocation(unit int, n int64) (scalar, vec, vecOps int64) {
	if unit < 0 || unit >= len(c.units) || n <= 0 {
		return 0, 0, 0
	}
	u := c.units[unit]
	if !isVectorUnit(u) {
		return u.entryScalar + n*u.bodyScalar, 0, 0
	}
	f := n / c.vlen
	rem := n % c.vlen
	scalar = u.entryScalar + f*u.bodyScalar
	vec = f * u.bodyVec
	vecOps = f * u.bodyVec * c.vlen
	if rem > 0 {
		scalar += u.tailScalar
		vec += u.tailVec
		vecOps += u.tailVec * rem
	}
	return scalar, vec, vecOps
}

// countBlock tallies vector and scalar instructions of a block.
func countBlock(b *prog.BasicBlock) (scalar, vec int64) {
	for _, in := range b.Insts {
		if in.Op.IsVector() {
			vec++
		} else {
			scalar++
		}
	}
	return scalar, vec
}
