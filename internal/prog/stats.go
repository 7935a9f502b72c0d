package prog

import "mtvec/internal/isa"

// Stats accumulates the dynamic operation counts the paper reports in
// Table 3, plus the per-resource demand totals used for the IDEAL lower
// bound of Figure 10.
type Stats struct {
	ScalarInsts int64 // scalar + control instructions issued
	VectorInsts int64 // vector instructions issued
	VectorOps   int64 // operations performed by vector instructions (ΣVL)

	VectorArithElems  int64 // ΣVL over vector arithmetic (VOPC numerator)
	FU2OnlyArithElems int64 // ΣVL over mul/div/sqrt (must run on FU2)
	VectorMemElems    int64 // ΣVL over vector memory ops (address bus demand)
	ScalarMemRefs     int64 // scalar loads/stores (address bus demand)
	VectorLoadElems   int64
	VectorStoreElems  int64

	PerOp [isa.NumOps]int64 // dynamic instruction count per opcode
}

// Add accounts one dynamic instruction.
func (st *Stats) Add(d *isa.DynInst) { st.addN(d.Op, 1, int64(d.VL)) }

// addN accounts n dynamic instructions of opcode op whose vector
// lengths sum to elems (ignored for scalar opcodes). Add and Tally
// share it, so the per-instruction and per-block accountings classify
// opcodes identically.
func (st *Stats) addN(op isa.Op, n, elems int64) {
	st.PerOp[op] += n
	info := isa.InfoPtr(op)
	switch info.Kind {
	case isa.KindVector:
		st.VectorInsts += n
		st.VectorOps += elems
		if info.Arith {
			st.VectorArithElems += elems
			if op.FU2Only() {
				st.FU2OnlyArithElems += elems
			}
		}
	case isa.KindVectorMem:
		st.VectorInsts += n
		st.VectorOps += elems
		st.VectorMemElems += elems
		if info.Load {
			st.VectorLoadElems += elems
		} else {
			st.VectorStoreElems += elems
		}
	default:
		st.ScalarInsts += n
		if info.Load || info.Store {
			st.ScalarMemRefs += n
		}
	}
}

// Merge adds other into st.
func (st *Stats) Merge(other *Stats) {
	st.ScalarInsts += other.ScalarInsts
	st.VectorInsts += other.VectorInsts
	st.VectorOps += other.VectorOps
	st.VectorArithElems += other.VectorArithElems
	st.FU2OnlyArithElems += other.FU2OnlyArithElems
	st.VectorMemElems += other.VectorMemElems
	st.ScalarMemRefs += other.ScalarMemRefs
	st.VectorLoadElems += other.VectorLoadElems
	st.VectorStoreElems += other.VectorStoreElems
	for i := range st.PerOp {
		st.PerOp[i] += other.PerOp[i]
	}
}

// Fingerprint hashes the whole profile (FNV-1a over every counter,
// including the per-opcode histogram). It is a pure function of the
// counts, so it is identical across processes and build orders.
func (st *Stats) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v int64) {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= prime64
		}
	}
	mix(st.ScalarInsts)
	mix(st.VectorInsts)
	mix(st.VectorOps)
	mix(st.VectorArithElems)
	mix(st.FU2OnlyArithElems)
	mix(st.VectorMemElems)
	mix(st.ScalarMemRefs)
	mix(st.VectorLoadElems)
	mix(st.VectorStoreElems)
	for _, n := range st.PerOp {
		mix(n)
	}
	return h
}

// Insts returns the total dynamic instruction count (decode-slot demand).
func (st *Stats) Insts() int64 { return st.ScalarInsts + st.VectorInsts }

// PctVectorized implements the paper's degree of vectorization: vector
// operations over total operations (vector ops + scalar instructions),
// as a percentage.
func (st *Stats) PctVectorized() float64 {
	tot := st.VectorOps + st.ScalarInsts
	if tot == 0 {
		return 0
	}
	return 100 * float64(st.VectorOps) / float64(tot)
}

// AvgVL returns the average vector length: vector operations per vector
// instruction.
func (st *Stats) AvgVL() float64 {
	if st.VectorInsts == 0 {
		return 0
	}
	return float64(st.VectorOps) / float64(st.VectorInsts)
}

// MemPortDemand returns the total address-bus busy cycles the workload
// requires: one per vector element accessed plus one per scalar reference.
func (st *Stats) MemPortDemand() int64 {
	return st.VectorMemElems + st.ScalarMemRefs
}

// ArithDemand returns the lower bound on cycles the two vector arithmetic
// units need: the FU2-only work cannot be split, the rest balances across
// FU1 and FU2.
func (st *Stats) ArithDemand() int64 {
	half := (st.VectorArithElems + 1) / 2
	if st.FU2OnlyArithElems > half {
		return st.FU2OnlyArithElems
	}
	return half
}

// IdealCycles is the paper's IDEAL bound (Figure 10): the occupancy of the
// most saturated resource, ignoring all dependences and latencies.
func (st *Stats) IdealCycles() int64 {
	b := st.Insts() // decode: one instruction per cycle
	if m := st.MemPortDemand(); m > b {
		b = m
	}
	if a := st.ArithDemand(); a > b {
		b = a
	}
	return b
}
