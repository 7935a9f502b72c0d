package prog

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mtvec/internal/isa"
)

func dyn(op isa.Op, vl uint16) *isa.DynInst {
	d := &isa.DynInst{VL: vl}
	d.Op = op
	return d
}

func TestStatsAccounting(t *testing.T) {
	var st Stats
	st.Add(dyn(isa.OpVAdd, 100))  // arith, FU1-capable
	st.Add(dyn(isa.OpVMul, 50))   // arith, FU2-only
	st.Add(dyn(isa.OpVLoad, 80))  // memory
	st.Add(dyn(isa.OpVStore, 80)) // memory
	st.Add(dyn(isa.OpSAddI, 0))   // scalar
	st.Add(dyn(isa.OpSLoad, 0))   // scalar memory
	st.Add(dyn(isa.OpBr, 0))      // control counts as scalar
	st.Add(dyn(isa.OpSetVL, 0))   // VL update counts as scalar

	if st.VectorInsts != 4 || st.ScalarInsts != 4 {
		t.Fatalf("insts: %+v", st)
	}
	if st.VectorOps != 310 {
		t.Fatalf("VectorOps = %d, want 310", st.VectorOps)
	}
	if st.VectorArithElems != 150 || st.FU2OnlyArithElems != 50 {
		t.Fatalf("arith: %d fu2only: %d", st.VectorArithElems, st.FU2OnlyArithElems)
	}
	if st.VectorMemElems != 160 || st.ScalarMemRefs != 1 {
		t.Fatalf("mem: %d scalar: %d", st.VectorMemElems, st.ScalarMemRefs)
	}
	if st.VectorLoadElems != 80 || st.VectorStoreElems != 80 {
		t.Fatalf("load/store elems: %d/%d", st.VectorLoadElems, st.VectorStoreElems)
	}
	if st.Insts() != 8 {
		t.Fatalf("Insts = %d", st.Insts())
	}
	if st.MemPortDemand() != 161 {
		t.Fatalf("MemPortDemand = %d", st.MemPortDemand())
	}
}

func TestPctVectorizedMatchesPaperDefinition(t *testing.T) {
	// swm256 row of Table 3: 6.2M scalar instructions, 9534.3M vector
	// operations -> 99.9 % vectorized.
	var st Stats
	st.ScalarInsts = 6_200_000
	st.VectorOps = 9_534_300_000
	st.VectorInsts = 74_500_000
	if pct := st.PctVectorized(); pct < 99.9 || pct > 99.95 {
		t.Fatalf("PctVectorized = %f, want ~99.93", pct)
	}
	if avl := st.AvgVL(); avl < 127 || avl > 129 {
		t.Fatalf("AvgVL = %f, want ~128", avl)
	}
}

func TestStatsZeroDivision(t *testing.T) {
	var st Stats
	if st.PctVectorized() != 0 || st.AvgVL() != 0 {
		t.Fatal("empty stats should report zeros")
	}
}

func TestArithDemand(t *testing.T) {
	var st Stats
	st.VectorArithElems = 1000
	st.FU2OnlyArithElems = 100
	if st.ArithDemand() != 500 {
		t.Fatalf("balanced demand = %d, want 500", st.ArithDemand())
	}
	st.FU2OnlyArithElems = 900 // FU2 is the bottleneck
	if st.ArithDemand() != 900 {
		t.Fatalf("FU2-bound demand = %d, want 900", st.ArithDemand())
	}
}

func TestIdealCyclesIsMaxOfDemands(t *testing.T) {
	var st Stats
	st.ScalarInsts = 10
	st.VectorInsts = 5
	st.VectorMemElems = 400
	st.VectorArithElems = 300
	if got := st.IdealCycles(); got != 400 {
		t.Fatalf("IdealCycles = %d, want 400 (memory-bound)", got)
	}
	st.VectorArithElems = 2000
	if got := st.IdealCycles(); got != 1000 {
		t.Fatalf("IdealCycles = %d, want 1000 (arith-bound)", got)
	}
}

func TestMergeEqualsSequentialAdd(t *testing.T) {
	// Property: splitting a dynamic stream at any point and merging the
	// two halves' stats equals accumulating the whole stream.
	ops := []isa.Op{isa.OpVAdd, isa.OpVMul, isa.OpVLoad, isa.OpVStore, isa.OpSAddI, isa.OpSLoad, isa.OpBr}
	f := func(seed int64, split uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 50
		k := int(split) % n
		var whole, a, b Stats
		for i := 0; i < n; i++ {
			d := dyn(ops[r.Intn(len(ops))], uint16(r.Intn(isa.MaxVL)+1))
			whole.Add(d)
			if i < k {
				a.Add(d)
			} else {
				b.Add(d)
			}
		}
		a.Merge(&b)
		return a == whole
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestFingerprint: the fingerprint is pinned (persist keys embed it, so
// stores written earlier stay addressable) and moves with every counter,
// the per-opcode histogram included.
func TestFingerprint(t *testing.T) {
	var st Stats
	if got := st.Fingerprint(); got != 0xc86ec345c0ee8125 {
		t.Errorf("zero-stats fingerprint = %#x", got)
	}
	st.Add(dyn(isa.OpVAdd, 100))
	st.Add(dyn(isa.OpVLoad, 64))
	st.Add(dyn(isa.OpSLoad, 0))
	base := st.Fingerprint()
	if base != st.Fingerprint() {
		t.Fatal("fingerprint is not deterministic")
	}
	fields := []*int64{&st.ScalarInsts, &st.VectorInsts, &st.VectorOps, &st.VectorArithElems,
		&st.FU2OnlyArithElems, &st.VectorMemElems, &st.ScalarMemRefs, &st.VectorLoadElems,
		&st.VectorStoreElems, &st.PerOp[isa.OpVMul]}
	for i, f := range fields {
		*f++
		if st.Fingerprint() == base {
			t.Errorf("counter %d does not reach the fingerprint", i)
		}
		*f--
	}
}
