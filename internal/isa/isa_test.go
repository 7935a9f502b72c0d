package isa

import (
	"strings"
	"testing"
)

func TestEveryOpHasInfo(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		info := InfoOf(op)
		if info.Name == "" {
			t.Errorf("op %d has no name", op)
		}
		if strings.Contains(info.Name, "(") {
			t.Errorf("op %d has placeholder name %q", op, info.Name)
		}
	}
}

func TestEveryOpHasSignature(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		if _, ok := opSigs[op]; !ok {
			t.Errorf("op %v has no operand signature", op)
		}
	}
}

func TestUnknownOpInfo(t *testing.T) {
	info := InfoOf(NumOps + 3)
	if info.Name == "" {
		t.Fatal("out-of-range op should still produce a printable name")
	}
}

func TestVectorClassification(t *testing.T) {
	cases := []struct {
		op        Op
		vector    bool
		vectorMem bool
		mem       bool
		fu2Only   bool
	}{
		{OpVAdd, true, false, false, false},
		{OpVMul, true, false, false, true},
		{OpVDiv, true, false, false, true},
		{OpVSqrt, true, false, false, true},
		{OpVMulS, true, false, false, true},
		{OpVAnd, true, false, false, false},
		{OpVLoad, true, true, true, false},
		{OpVStore, true, true, true, false},
		{OpVGather, true, true, true, false},
		{OpVScatter, true, true, true, false},
		{OpSLoad, false, false, true, false},
		{OpSStore, false, false, true, false},
		{OpSAdd, false, false, false, false},
		{OpBr, false, false, false, false},
		{OpSetVL, false, false, false, false},
	}
	for _, c := range cases {
		if got := c.op.IsVector(); got != c.vector {
			t.Errorf("%v.IsVector() = %v, want %v", c.op, got, c.vector)
		}
		if got := c.op.IsVectorMem(); got != c.vectorMem {
			t.Errorf("%v.IsVectorMem() = %v, want %v", c.op, got, c.vectorMem)
		}
		if got := c.op.IsMem(); got != c.mem {
			t.Errorf("%v.IsMem() = %v, want %v", c.op, got, c.mem)
		}
		if got := c.op.FU2Only(); got != c.fu2Only {
			t.Errorf("%v.FU2Only() = %v, want %v", c.op, got, c.fu2Only)
		}
	}
}

func TestFU1RestrictionMatchesPaper(t *testing.T) {
	// Section 3: FU1 executes all vector instructions except
	// multiplication, division and square root.
	for op := Op(0); op < NumOps; op++ {
		info := InfoOf(op)
		if info.Kind != KindVector {
			continue
		}
		isMulDivSqrt := info.Lat == LatMul || info.Lat == LatDiv || info.Lat == LatSqrt
		if isMulDivSqrt && info.FU1OK {
			t.Errorf("%v: mul/div/sqrt must be FU2-only", op)
		}
		if !isMulDivSqrt && !info.FU1OK {
			t.Errorf("%v: non-mul/div/sqrt vector op should run on FU1", op)
		}
	}
}

func TestVBank(t *testing.T) {
	// Two registers per bank: v0,v1 -> bank 0 ... v6,v7 -> bank 3.
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for r := uint8(0); r < NumV; r++ {
		if VBank(r) != want[r] {
			t.Errorf("VBank(%d) = %d, want %d", r, VBank(r), want[r])
		}
	}
}

func TestOperandConstructorsAndString(t *testing.T) {
	if got := A(3).String(); got != "a3" {
		t.Errorf("A(3) = %q", got)
	}
	if got := S(5).String(); got != "s5" {
		t.Errorf("S(5) = %q", got)
	}
	if got := V(7).String(); got != "v7" {
		t.Errorf("V(7) = %q", got)
	}
	if got := None.String(); got != "-" {
		t.Errorf("None = %q", got)
	}
	if !V(1).IsReg() || Imm().IsReg() || None.IsReg() {
		t.Error("IsReg misclassifies operands")
	}
}

func TestInstString(t *testing.T) {
	in := Inst{Op: OpVAdd, Dst: V(0), Src1: V(1), Src2: V(2)}
	if got := in.String(); got != "vadd v0, v1, v2" {
		t.Errorf("String() = %q", got)
	}
	mi := Inst{Op: OpMovI, Dst: A(1), Src2: Imm(), Imm: 42}
	if got := mi.String(); got != "movi a1, #42" {
		t.Errorf("String() = %q", got)
	}
}

func TestDynInstString(t *testing.T) {
	d := DynInst{
		Inst: Inst{Op: OpVLoad, Dst: V(2), Src1: A(0)},
		VL:   64, Stride: 8, Addr: 0x1000,
	}
	if s := d.String(); !strings.Contains(s, "vl=64") || !strings.Contains(s, "0x1000") {
		t.Errorf("String() = %q missing dynamic fields", s)
	}
	sv := DynInst{Inst: Inst{Op: OpSetVL, Src1: A(1)}, SetVal: 99}
	if s := sv.String(); !strings.Contains(s, "=99") {
		t.Errorf("SetVL String() = %q", s)
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	good := []Inst{
		{Op: OpNop},
		{Op: OpMovI, Dst: S(0), Src2: Imm(), Imm: 7},
		{Op: OpAAdd, Dst: A(1), Src1: A(1), Src2: Imm(), Imm: 8},
		{Op: OpSAdd, Dst: S(1), Src1: S(2), Src2: S(3)},
		{Op: OpSLoad, Dst: S(0), Src1: A(0)},
		{Op: OpSStore, Src1: S(0), Src2: A(0)},
		{Op: OpBr, Src1: S(0)},
		{Op: OpSetVL, Src1: A(2)},
		{Op: OpVAdd, Dst: V(0), Src1: V(1), Src2: V(2)},
		{Op: OpVSqrt, Dst: V(0), Src1: V(1)},
		{Op: OpVAddS, Dst: V(0), Src1: V(1), Src2: S(2)},
		{Op: OpVRedAdd, Dst: S(0), Src1: V(1)},
		{Op: OpVLoad, Dst: V(0), Src1: A(0)},
		{Op: OpVStore, Src1: V(0), Src2: A(0)},
		{Op: OpVGather, Dst: V(0), Src1: V(1), Src2: A(0)},
		{Op: OpVScatter, Src1: V(0), Src2: V(1)},
	}
	for _, in := range good {
		if err := in.Validate(); err != nil {
			t.Errorf("Validate(%s): %v", in, err)
		}
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	bad := []Inst{
		{Op: NumOps}, // unknown op
		{Op: OpVAdd, Dst: S(0), Src1: V(1), Src2: V(2)},         // wrong dst class
		{Op: OpVAdd, Dst: V(0), Src1: A(1), Src2: V(2)},         // wrong src class
		{Op: OpVAdd, Dst: V(VRegLimit), Src1: V(1), Src2: V(2)}, // reg out of range
		{Op: OpSAdd, Dst: S(0), Src1: S(1)},                     // missing src2
		{Op: OpNop, Dst: S(0)},                                  // extraneous dst
		{Op: OpVLoad, Dst: V(0), Src1: S(1)},                    // base must be A
		{Op: OpMovI, Dst: S(0), Src2: S(1)},                     // imm required
	}
	for _, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("Validate(%s) accepted malformed instruction", in)
		}
	}
}

func TestVSources(t *testing.T) {
	var vs [2]uint8
	in := Inst{Op: OpVAdd, Dst: V(0), Src1: V(3), Src2: V(5)}
	if n := in.VSources(&vs); n != 2 || vs[0] != 3 || vs[1] != 5 {
		t.Errorf("VSources = %d %v", n, vs)
	}
	in2 := Inst{Op: OpVAddS, Dst: V(0), Src1: V(3), Src2: S(2)}
	if n := in2.VSources(&vs); n != 1 || vs[0] != 3 {
		t.Errorf("VSources(vadds) = %d %v", n, vs)
	}
}
