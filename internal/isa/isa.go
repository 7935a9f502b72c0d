// Package isa defines the instruction set architecture of the modelled
// machine: a Convex C3400-class register-register vector architecture with
// three architectural register classes (A address registers, S scalar
// registers, V vector registers), a vector-length register and a
// vector-stride register.
//
// The package is purely declarative: opcodes, operand classes, latency
// classes, functional-unit eligibility and a disassembler. Timing semantics
// live in internal/core; this package only states *what* an instruction is.
package isa

import "fmt"

// Architectural constants of the modelled machine (Section 3 of the paper).
const (
	NumA = 8 // address registers per context
	NumS = 8 // scalar registers per context
	NumV = 8 // vector registers per context

	// MaxVL is the hardware vector length: each V register holds up to
	// 128 elements of 64 bits.
	MaxVL = 128

	// ElemBytes is the size of one vector element.
	ElemBytes = 8

	// The eight vector registers are grouped two per bank; every bank has
	// two read ports and one write port into the crossbars.
	VRegsPerBank   = 2
	NumVBanks      = NumV / VRegsPerBank
	BankReadPorts  = 2
	BankWritePorts = 1

	// VRegLimit is the largest vector register count the ISA encoding
	// can name. The constants above describe the reference Convex C3400
	// shape; the arch layer (internal/arch) may declare machines with up
	// to VRegLimit vector registers, and those machines enforce their
	// own per-context limit at run time.
	VRegLimit = 64
)

// VBank returns the register-bank index holding vector register v.
func VBank(v uint8) int { return int(v) / VRegsPerBank }

// RegClass identifies an architectural register file.
type RegClass uint8

const (
	ClassNone RegClass = iota // operand unused
	ClassA                    // address registers
	ClassS                    // scalar registers
	ClassV                    // vector registers
	ClassImm                  // immediate operand (uses Inst.Imm)
)

func (c RegClass) String() string {
	switch c {
	case ClassNone:
		return "-"
	case ClassA:
		return "a"
	case ClassS:
		return "s"
	case ClassV:
		return "v"
	case ClassImm:
		return "#"
	}
	return fmt.Sprintf("RegClass(%d)", uint8(c))
}

// Operand names one architectural register (or an immediate slot).
type Operand struct {
	Class RegClass
	Reg   uint8
}

// None is the absent operand.
var None = Operand{}

// A, S and V construct operands of the three register classes.
func A(r uint8) Operand { return Operand{ClassA, r} }
func S(r uint8) Operand { return Operand{ClassS, r} }
func V(r uint8) Operand { return Operand{ClassV, r} }

// Imm marks an immediate operand; the value travels in Inst.Imm.
func Imm() Operand { return Operand{ClassImm, 0} }

func (o Operand) String() string {
	switch o.Class {
	case ClassNone:
		return "-"
	case ClassImm:
		return "#imm"
	default:
		return fmt.Sprintf("%s%d", o.Class, o.Reg)
	}
}

// IsReg reports whether the operand names an architectural register.
func (o Operand) IsReg() bool {
	return o.Class == ClassA || o.Class == ClassS || o.Class == ClassV
}

// LatClass groups opcodes that share a functional-unit latency (Table 1).
type LatClass uint8

const (
	LatNone  LatClass = iota
	LatAdd            // add/subtract/compare/merge
	LatLogic          // logical operations
	LatShift          // shifts
	LatMul            // multiply
	LatDiv            // divide
	LatSqrt           // square root
	LatMem            // memory access (latency set by the memory system)
	LatCtl            // control transfer and VL/VS updates
	numLatClass
)

var latClassNames = [...]string{
	LatNone: "none", LatAdd: "add", LatLogic: "logic", LatShift: "shift",
	LatMul: "mul", LatDiv: "div", LatSqrt: "sqrt", LatMem: "mem", LatCtl: "ctl",
}

func (l LatClass) String() string {
	if int(l) < len(latClassNames) {
		return latClassNames[l]
	}
	return fmt.Sprintf("LatClass(%d)", uint8(l))
}

// Op enumerates the opcodes of the modelled ISA.
type Op uint8

const (
	OpNop Op = iota

	// Scalar integer / address arithmetic (A or S destinations).
	OpMovI  // dst ← imm
	OpAAdd  // address add
	OpAShl  // address shift
	OpSAddI // integer add
	OpSMulI // integer multiply
	OpSDivI // integer divide
	OpSLogic
	OpSShift
	OpSCmp

	// Scalar floating point (S registers).
	OpSAdd
	OpSMul
	OpSDiv
	OpSSqrt

	// Scalar memory.
	OpSLoad  // dst ← mem[addr]
	OpSStore // mem[addr] ← src1

	// Control.
	OpBr  // conditional branch on src1
	OpJmp // unconditional jump
	OpSetVL
	OpSetVS

	// Vector arithmetic (element-wise over VL elements).
	OpVAdd
	OpVSub
	OpVMul
	OpVDiv
	OpVSqrt
	OpVAnd
	OpVOr
	OpVXor
	OpVShl
	OpVShr
	OpVCmp
	OpVMerge

	// Vector-scalar forms: src2 is an S register broadcast.
	OpVAddS
	OpVMulS

	// Vector reduction: dst is an S register, VL operations performed.
	OpVRedAdd

	// Vector memory.
	OpVLoad    // dst(V) ← mem[base + i*stride]
	OpVStore   // mem[base + i*stride] ← src1(V)
	OpVGather  // dst(V) ← mem[base + index(V)[i]]
	OpVScatter // mem[base + index(V)[i]] ← src1(V)

	NumOps // sentinel; not a real opcode
)

// Kind is a coarse classification used by the simulator's dispatch logic.
type Kind uint8

const (
	KindScalar    Kind = iota // scalar arithmetic / moves
	KindScalarMem             // scalar load/store
	KindBranch                // control transfer
	KindVLVS                  // SetVL / SetVS
	KindVector                // vector arithmetic (uses FU1/FU2)
	KindVectorMem             // vector load/store/gather/scatter (uses LD)
)

// Info describes static properties of an opcode.
type Info struct {
	Name string
	Kind Kind
	Lat  LatClass
	FP   bool // floating-point flavour (selects scalar fp latency column)
	// FU1OK reports whether the restricted FU1 can execute the op;
	// FU2 executes every vector arithmetic op. (Mul, div and sqrt are
	// FU2-only per Section 3.)
	FU1OK bool
	// Ops-per-element: vector opcodes perform VL "operations" in the
	// paper's Table 3 accounting; OpsPerElem is 1 for them, 0 for moves
	// that the paper does not count as computation.
	Arith bool // counts toward vector-operation totals / VOPC
	Load  bool // reads memory
	Store bool // writes memory
}

var opInfos = [NumOps]Info{
	OpNop:    {Name: "nop", Kind: KindScalar, Lat: LatCtl},
	OpMovI:   {Name: "movi", Kind: KindScalar, Lat: LatAdd},
	OpAAdd:   {Name: "aadd", Kind: KindScalar, Lat: LatAdd},
	OpAShl:   {Name: "ashl", Kind: KindScalar, Lat: LatShift},
	OpSAddI:  {Name: "saddi", Kind: KindScalar, Lat: LatAdd},
	OpSMulI:  {Name: "smuli", Kind: KindScalar, Lat: LatMul},
	OpSDivI:  {Name: "sdivi", Kind: KindScalar, Lat: LatDiv},
	OpSLogic: {Name: "slogic", Kind: KindScalar, Lat: LatLogic},
	OpSShift: {Name: "sshift", Kind: KindScalar, Lat: LatShift},
	OpSCmp:   {Name: "scmp", Kind: KindScalar, Lat: LatAdd},

	OpSAdd:  {Name: "sadd", Kind: KindScalar, Lat: LatAdd, FP: true},
	OpSMul:  {Name: "smul", Kind: KindScalar, Lat: LatMul, FP: true},
	OpSDiv:  {Name: "sdiv", Kind: KindScalar, Lat: LatDiv, FP: true},
	OpSSqrt: {Name: "ssqrt", Kind: KindScalar, Lat: LatSqrt, FP: true},

	OpSLoad:  {Name: "sload", Kind: KindScalarMem, Lat: LatMem, Load: true},
	OpSStore: {Name: "sstore", Kind: KindScalarMem, Lat: LatMem, Store: true},

	OpBr:    {Name: "br", Kind: KindBranch, Lat: LatCtl},
	OpJmp:   {Name: "jmp", Kind: KindBranch, Lat: LatCtl},
	OpSetVL: {Name: "setvl", Kind: KindVLVS, Lat: LatCtl},
	OpSetVS: {Name: "setvs", Kind: KindVLVS, Lat: LatCtl},

	OpVAdd:   {Name: "vadd", Kind: KindVector, Lat: LatAdd, FU1OK: true, Arith: true},
	OpVSub:   {Name: "vsub", Kind: KindVector, Lat: LatAdd, FU1OK: true, Arith: true},
	OpVMul:   {Name: "vmul", Kind: KindVector, Lat: LatMul, Arith: true},
	OpVDiv:   {Name: "vdiv", Kind: KindVector, Lat: LatDiv, Arith: true},
	OpVSqrt:  {Name: "vsqrt", Kind: KindVector, Lat: LatSqrt, Arith: true},
	OpVAnd:   {Name: "vand", Kind: KindVector, Lat: LatLogic, FU1OK: true, Arith: true},
	OpVOr:    {Name: "vor", Kind: KindVector, Lat: LatLogic, FU1OK: true, Arith: true},
	OpVXor:   {Name: "vxor", Kind: KindVector, Lat: LatLogic, FU1OK: true, Arith: true},
	OpVShl:   {Name: "vshl", Kind: KindVector, Lat: LatShift, FU1OK: true, Arith: true},
	OpVShr:   {Name: "vshr", Kind: KindVector, Lat: LatShift, FU1OK: true, Arith: true},
	OpVCmp:   {Name: "vcmp", Kind: KindVector, Lat: LatAdd, FU1OK: true, Arith: true},
	OpVMerge: {Name: "vmerge", Kind: KindVector, Lat: LatLogic, FU1OK: true, Arith: true},

	OpVAddS: {Name: "vadds", Kind: KindVector, Lat: LatAdd, FU1OK: true, Arith: true},
	OpVMulS: {Name: "vmuls", Kind: KindVector, Lat: LatMul, Arith: true},

	OpVRedAdd: {Name: "vredadd", Kind: KindVector, Lat: LatAdd, FU1OK: true, Arith: true},

	OpVLoad:    {Name: "vload", Kind: KindVectorMem, Lat: LatMem, Load: true},
	OpVStore:   {Name: "vstore", Kind: KindVectorMem, Lat: LatMem, Store: true},
	OpVGather:  {Name: "vgather", Kind: KindVectorMem, Lat: LatMem, Load: true},
	OpVScatter: {Name: "vscatter", Kind: KindVectorMem, Lat: LatMem, Store: true},
}

// InfoOf returns the static properties of op.
func InfoOf(op Op) Info {
	if op >= NumOps {
		return Info{Name: fmt.Sprintf("op(%d)", uint8(op))}
	}
	return opInfos[op]
}

// unknownInfo is what InfoPtr returns for out-of-range opcodes. The Name
// is generic (no embedded number) so the shared pointer stays allocation-
// free; decoding paths validate opcodes before ever hitting it.
var unknownInfo = Info{Name: "op(?)"}

// InfoPtr returns a pointer to the static properties of op. It is the
// allocation- and copy-free variant of InfoOf for hot decode paths: the
// returned Info is shared and must not be mutated.
func InfoPtr(op Op) *Info {
	if op >= NumOps {
		return &unknownInfo
	}
	return &opInfos[op]
}

// KindOf returns the dispatch kind of op — a single table load, for hot
// paths that only need the coarse classification.
func KindOf(op Op) Kind {
	if op >= NumOps {
		return KindScalar
	}
	return opInfos[op].Kind
}

func (op Op) String() string { return InfoOf(op).Name }

// IsVector reports whether op executes in the vector unit (FU1/FU2/LD).
func (op Op) IsVector() bool {
	k := InfoOf(op).Kind
	return k == KindVector || k == KindVectorMem
}

// IsVectorMem reports whether op is a vector memory operation.
func (op Op) IsVectorMem() bool { return InfoOf(op).Kind == KindVectorMem }

// IsMem reports whether op references memory at all.
func (op Op) IsMem() bool {
	i := InfoOf(op)
	return i.Load || i.Store
}

// FU2Only reports whether a vector arithmetic op must run on FU2.
func (op Op) FU2Only() bool {
	i := InfoOf(op)
	return i.Kind == KindVector && !i.FU1OK
}

// Inst is one static instruction as it appears in a basic block.
type Inst struct {
	Op   Op
	Dst  Operand
	Src1 Operand
	Src2 Operand
	Imm  int64
}

func (in Inst) String() string {
	s := in.Op.String()
	if in.Dst != None {
		s += " " + in.Dst.String()
	}
	if in.Src1 != None {
		s += ", " + in.Src1.String()
	}
	if in.Src2 != None {
		if in.Src2.Class == ClassImm {
			s += fmt.Sprintf(", #%d", in.Imm)
		} else {
			s += ", " + in.Src2.String()
		}
	}
	return s
}

// DynInst is a dynamic instruction: a static instruction plus the values
// resolved at trace time — the vector length and stride in force, the
// memory base address, and the value written by SetVL/SetVS.
//
// DynInst is the unit the simulators consume; it carries everything the
// timing model needs and nothing more (data values are irrelevant to a
// trace-driven timing simulation).
type DynInst struct {
	Inst
	PC     uint32 // static instruction index within the program
	VL     uint16 // vector length at execution time (vector ops)
	Stride int64  // stride in bytes (vector memory ops)
	Addr   uint64 // base address (memory ops)
	SetVal int64  // value installed by SetVL / SetVS
}

func (d *DynInst) String() string {
	s := d.Inst.String()
	if d.Op.IsVector() {
		s += fmt.Sprintf(" {vl=%d", d.VL)
		if d.Op.IsVectorMem() {
			s += fmt.Sprintf(" addr=%#x stride=%d", d.Addr, d.Stride)
		}
		s += "}"
	} else if d.Op.IsMem() {
		s += fmt.Sprintf(" {addr=%#x}", d.Addr)
	} else if d.Op == OpSetVL || d.Op == OpSetVS {
		s += fmt.Sprintf(" {=%d}", d.SetVal)
	}
	return s
}
