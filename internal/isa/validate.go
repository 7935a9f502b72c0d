package isa

import "fmt"

// operand signature requirements per kind of operand slot.
type slotReq uint8

const (
	slotNone slotReq = iota // must be absent
	slotA                   // A register
	slotS                   // S register
	slotV                   // V register
	slotAS                  // A or S register
	slotVS                  // V register or S broadcast
	slotImm                 // immediate
	slotAnyR                // any register class
	slotOptS                // S register or absent
	slotOptR                // any register or absent
)

func slotOK(r slotReq, o Operand) bool {
	switch r {
	case slotNone:
		return o.Class == ClassNone
	case slotA:
		return o.Class == ClassA
	case slotS:
		return o.Class == ClassS
	case slotV:
		return o.Class == ClassV
	case slotAS:
		return o.Class == ClassA || o.Class == ClassS
	case slotVS:
		return o.Class == ClassV || o.Class == ClassS
	case slotImm:
		return o.Class == ClassImm
	case slotAnyR:
		return o.IsReg()
	case slotOptS:
		return o.Class == ClassS || o.Class == ClassNone
	case slotOptR:
		return o.IsReg() || o.Class == ClassNone
	}
	return false
}

type signature struct{ dst, src1, src2 slotReq }

var opSigs = map[Op]signature{
	OpNop:    {slotNone, slotNone, slotNone},
	OpMovI:   {slotAS, slotNone, slotImm},
	OpAAdd:   {slotA, slotA, slotImm},
	OpAShl:   {slotA, slotA, slotImm},
	OpSAddI:  {slotAS, slotAS, slotAS},
	OpSMulI:  {slotAS, slotAS, slotAS},
	OpSDivI:  {slotAS, slotAS, slotAS},
	OpSLogic: {slotAS, slotAS, slotAS},
	OpSShift: {slotAS, slotAS, slotImm},
	OpSCmp:   {slotAS, slotAS, slotAS},

	OpSAdd:  {slotS, slotS, slotS},
	OpSMul:  {slotS, slotS, slotS},
	OpSDiv:  {slotS, slotS, slotS},
	OpSSqrt: {slotS, slotS, slotNone},

	OpSLoad:  {slotAS, slotA, slotNone},
	OpSStore: {slotNone, slotAS, slotA},

	OpBr:    {slotNone, slotAS, slotNone},
	OpJmp:   {slotNone, slotNone, slotNone},
	OpSetVL: {slotNone, slotAS, slotNone},
	OpSetVS: {slotNone, slotAS, slotNone},

	OpVAdd:   {slotV, slotV, slotV},
	OpVSub:   {slotV, slotV, slotV},
	OpVMul:   {slotV, slotV, slotV},
	OpVDiv:   {slotV, slotV, slotV},
	OpVSqrt:  {slotV, slotV, slotNone},
	OpVAnd:   {slotV, slotV, slotV},
	OpVOr:    {slotV, slotV, slotV},
	OpVXor:   {slotV, slotV, slotV},
	OpVShl:   {slotV, slotV, slotNone},
	OpVShr:   {slotV, slotV, slotNone},
	OpVCmp:   {slotV, slotV, slotV},
	OpVMerge: {slotV, slotV, slotV},

	OpVAddS: {slotV, slotV, slotS},
	OpVMulS: {slotV, slotV, slotS},

	OpVRedAdd: {slotS, slotV, slotNone},

	OpVLoad:    {slotV, slotA, slotNone},
	OpVStore:   {slotNone, slotV, slotA},
	OpVGather:  {slotV, slotV, slotA},
	OpVScatter: {slotNone, slotV, slotV},
}

func classMax(c RegClass) uint8 {
	switch c {
	case ClassA:
		return NumA
	case ClassS:
		return NumS
	case ClassV:
		return VRegLimit
	}
	return 0
}

func checkOperand(o Operand) error {
	if !o.IsReg() {
		return nil
	}
	if o.Reg >= classMax(o.Class) {
		return fmt.Errorf("register %s out of range", o)
	}
	return nil
}

// Validate checks that the instruction is well formed: known opcode,
// operand classes matching the opcode's signature, register indices in
// range.
func (in Inst) Validate() error {
	sig, ok := opSigs[in.Op]
	if !ok {
		return fmt.Errorf("isa: unknown opcode %d", uint8(in.Op))
	}
	if !slotOK(sig.dst, in.Dst) {
		return fmt.Errorf("isa: %s: bad destination %s", in.Op, in.Dst)
	}
	if !slotOK(sig.src1, in.Src1) {
		return fmt.Errorf("isa: %s: bad source1 %s", in.Op, in.Src1)
	}
	if !slotOK(sig.src2, in.Src2) {
		return fmt.Errorf("isa: %s: bad source2 %s", in.Op, in.Src2)
	}
	for _, o := range [...]Operand{in.Dst, in.Src1, in.Src2} {
		if err := checkOperand(o); err != nil {
			return fmt.Errorf("isa: %s: %v", in.Op, err)
		}
	}
	return nil
}

// VSources returns the vector-register sources of the instruction
// (0, 1 or 2 of them) in srcs, reporting how many were filled.
func (in Inst) VSources(srcs *[2]uint8) int {
	n := 0
	if in.Src1.Class == ClassV {
		srcs[n] = in.Src1.Reg
		n++
	}
	if in.Src2.Class == ClassV {
		srcs[n] = in.Src2.Reg
		n++
	}
	return n
}
