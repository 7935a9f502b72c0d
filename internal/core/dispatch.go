package core

import (
	"fmt"

	"mtvec/internal/isa"
	"mtvec/internal/prog"
	"mtvec/internal/stats"
)

// tryDispatch attempts to dispatch context c's head instruction at m.now.
// With book=false it only probes (the switch logic's "known not to be
// blocked" test and the skip-ahead estimator use this); with book=true it
// books the dispatch when every constraint passes. On failure it returns
// a sound lower bound on the cycle the dispatch could first succeed, used
// to fast-forward when every thread is blocked.
//
// Every outcome that booked nothing — a probe, or a failed booking
// attempt — is memoized per context for the current (cycle, bookSeq)
// pair: within one cycle the machine may ask about the same head several
// times (a policy's Dispatchable scan, the booking attempt, the
// skip-ahead estimator) against unchanged state, so the memo answer is
// exactly what recomputation would return. Any booking anywhere bumps
// bookSeq and invalidates every memo, so a stale answer is never reused.
// A booking attempt after a passing probe walks the constraints again;
// the engine's own scans (pickUnfair, the extra issue slots) book the
// first thread that passes instead of probing it first, so only a
// policy reached through Policy.Pick causes that second walk. On the
// ten-program queue at 4 contexts it adds 13% more walks under
// round-robin, 10% under LRU and 29% under every-cycle, and none under
// the default unfair policy; an apply form that skipped it would be a
// second copy of every walker.
func (m *Machine) tryDispatch(c *hwContext, book bool) (bool, Cycle) {
	if c.probeCyc == m.now && c.probeSeq == m.bookSeq && !(book && c.probeOK) {
		return c.probeOK, c.probeHint
	}
	ok, hint := m.dispatch(c, book)
	if !ok || !book {
		c.probeCyc, c.probeSeq = m.now, m.bookSeq
		c.probeOK, c.probeHint = ok, hint
	}
	return ok, hint
}

// dispatch walks the dispatch constraints of c's head once, in the order
// the paper's decode unit checks them, and returns the first failing
// constraint's clear cycle. With book it books the dispatch's resources
// on success, using the values the walk already computed; without, it
// returns before booking anything.
func (m *Machine) dispatch(c *hwContext, book bool) (bool, Cycle) {
	switch c.head.Kind {
	case isa.KindScalar, isa.KindBranch, isa.KindVLVS, isa.KindScalarMem:
		return m.scalar(c, book)
	case isa.KindVector:
		return m.vectorArith(c, book)
	case isa.KindVectorMem:
		return m.vectorMem(c, book)
	}
	return false, m.now + 1
}

// scalarReady checks an A/S operand's scoreboard entry. The flat
// class-indexed scoreboard makes this branch-free for the other operand
// classes: their rows are never written, so they always read as ready.
func (c *hwContext) scalarReady(o isa.Operand, now Cycle) (bool, Cycle) {
	if r := c.scoreb[o.Class][o.Reg]; r > now {
		return false, r
	}
	return true, 0
}

// setScalarReady books a result into the scalar scoreboard. The class
// switch is kept on the write side so only the A and S rows are ever
// dirtied (a vector or immediate destination must not poison its row).
func (c *hwContext) setScalarReady(o isa.Operand, at Cycle) {
	switch o.Class {
	case isa.ClassA, isa.ClassS:
		c.scoreb[o.Class][o.Reg] = at
	}
}

// scalar walks a scalar, branch, VL/VS or scalar memory instruction's
// constraints: its two sources and its destination (WAW on a pending
// result) on the scoreboard, then, for a memory access, the port.
func (m *Machine) scalar(c *hwContext, book bool) (bool, Cycle) {
	d := c.head
	now := m.now
	if ok, r := c.scalarReady(d.Src1, now); !ok {
		return false, r
	}
	if ok, r := c.scalarReady(d.Src2, now); !ok {
		return false, r
	}
	if ok, r := c.scalarReady(d.Dst, now); !ok {
		return false, r
	}
	if d.Kind != isa.KindScalarMem {
		if book && d.Dst.IsReg() {
			c.setScalarReady(d.Dst, now+m.scalarLat[d.Op])
		}
		return true, 0
	}
	if pf := m.mem.PortFreeAt(d.Load); pf > now {
		return false, pf
	}
	if book {
		_, data := m.mem.ScheduleScalar(now, d.Load)
		if d.Load && d.Dst.IsReg() {
			c.setScalarReady(d.Dst, data)
		}
	}
	return true, 0
}

// chainReady reports whether vector register r can start being read at
// cycle now. A consumer of an in-flight FU result chains once the first
// element has been written (flexible chaining, Section 3); a consumer of
// an in-flight load waits for the last element. The paper's in-order
// decode loses the cycle ("the instruction can not proceed") until then,
// so dispatch blocks rather than reserving resources ahead of time.
func chainReady(v *vregState, now Cycle) (bool, Cycle) {
	if !v.writerActive(now) {
		return true, 0
	}
	if !v.chainable {
		// Memory loads do not chain into consumers; wait for the last
		// element (Section 3).
		return false, v.wLast + 1
	}
	if s := v.wFirst + 1; s > now {
		return false, s
	}
	return true, 0
}

// destFree checks WAW/WAR on a vector destination register.
func destFree(v *vregState, now Cycle) (bool, Cycle) {
	if v.writerActive(now) {
		return false, v.wLast + 1
	}
	if v.readersActive(now) {
		return false, v.lastReadEnd(now)
	}
	return true, 0
}

// checkShape rejects an instruction that does not fit the machine shape:
// a vector register beyond the context's (possibly partitioned) file, or
// a vector length beyond the shape's register length. Programs compiled
// for the default shape never trip it; the check exists so a trace built
// for one register-file organization fails loudly — not silently — on a
// machine with a smaller one.
func (m *Machine) checkShape(d *prog.DecodedInst) error {
	if d.Dst.Class == isa.ClassV && int(d.Dst.Reg) >= m.ctxVRegs {
		return fmt.Errorf("vector register v%d out of range: this context sees %d registers", d.Dst.Reg, m.ctxVRegs)
	}
	for _, r := range d.VSrcs[:d.NVSrc] {
		if int(r) >= m.ctxVRegs {
			return fmt.Errorf("vector register v%d out of range: this context sees %d registers", r, m.ctxVRegs)
		}
	}
	if d.VL > m.vlMax {
		return fmt.Errorf("vector length %d exceeds the machine's %d-element registers (rebuild the workload for this shape)", d.VL, m.vlMax)
	}
	// An instruction whose two vector sources live in one bank needs two
	// simultaneous read ports there; on a shape without them it could
	// never dispatch, so reject it instead of stalling forever. Code
	// compiled for the shape (vcomp spreads operands across banks)
	// avoids this by construction.
	if d.NVSrc == 2 && m.bankRP < 2 && m.bankOf[d.VSrcs[0]] == m.bankOf[d.VSrcs[1]] {
		return fmt.Errorf("both vector sources (v%d, v%d) live in bank %d, which has only %d read port(s); 1-read-port organizations need one register per bank (VRegsPerBank=1)",
			d.VSrcs[0], d.VSrcs[1], m.bankOf[d.VSrcs[0]], m.bankRP)
	}
	return nil
}

// checkBankReads verifies read-port capacity for the given source
// registers over [s, e), counting sources that share a bank together.
// Banks are examined in ascending index order so the failure hint (the
// first failing bank's clear cycle) is stable. An instruction has at
// most two vector sources, so the two unrolled cases below cover every
// dispatch; the general loop is a guard for hypothetical wider forms.
func (m *Machine) checkBankReads(c *hwContext, srcs []uint8, s, e Cycle) (bool, Cycle) {
	switch len(srcs) {
	case 0:
		return true, 0
	case 1:
		return m.checkBankRead(c, int(m.bankOf[srcs[0]]), 1, s, e)
	case 2:
		b0, b1 := int(m.bankOf[srcs[0]]), int(m.bankOf[srcs[1]])
		if b0 == b1 {
			return m.checkBankRead(c, b0, 2, s, e)
		}
		if b0 > b1 {
			b0, b1 = b1, b0
		}
		if ok, retry := m.checkBankRead(c, b0, 1, s, e); !ok {
			return false, retry
		}
		return m.checkBankRead(c, b1, 1, s, e)
	}
	for bank := 0; bank < m.numBanks; bank++ {
		k := 0
		for _, r := range srcs {
			if int(m.bankOf[r]) == bank {
				k++
			}
		}
		if k == 0 {
			continue
		}
		if ok, retry := m.checkBankRead(c, bank, k, s, e); !ok {
			return false, retry
		}
	}
	return true, 0
}

// checkBankRead verifies that bank can serve k more concurrent readers
// over [s, e) within its read-port capacity.
func (m *Machine) checkBankRead(c *hwContext, bank, k int, s, e Cycle) (bool, Cycle) {
	need := m.bankRP - k + 1
	if need < 1 {
		// More simultaneous readers than ports in one bank: the
		// compiler avoids this, but guard anyway.
		return false, s + 1
	}
	return portFree(c.banks[bank].reads, s, e, need)
}

// commitReads records read windows and port usage for sources.
func (m *Machine) commitReads(c *hwContext, srcs []uint8, s, e Cycle, now Cycle) {
	for _, r := range srcs {
		c.vregs[r].addReader(now, e)
		bank := &c.banks[m.bankOf[r]]
		bank.prune(now)
		bank.reads = append(bank.reads, portWindow{s, e})
	}
}

// pickVectorFU selects the functional unit for c's head vector arithmetic
// op: a restricted lane when allowed and free, else a general lane (on
// the paper's machine: FU1 when allowed and free, else FU2). On failure
// it returns the earliest retry cycle. The default 1+1 mix runs on the
// devirtualized fu1/fu2 pair; other mixes scan the lane slice in fixed
// order, restricted lanes first.
func (m *Machine) pickVectorFU(c *hwContext) (fu *fuState, unit int, retry Cycle) {
	now := m.now
	if m.pairFU {
		if !c.head.FU1OK { // mul/div/sqrt run on FU2 only (Section 3)
			if m.fu2.freeAt > now {
				return nil, 0, m.fu2.freeAt
			}
			return &m.fu2, stats.UnitFU2, 0
		}
		switch {
		case m.fu1.freeAt <= now:
			return &m.fu1, stats.UnitFU1, 0
		case m.fu2.freeAt <= now:
			return &m.fu2, stats.UnitFU2, 0
		default:
			retry = m.fu1.freeAt
			if m.fu2.freeAt < retry {
				retry = m.fu2.freeAt
			}
			return nil, 0, retry
		}
	}
	start := 0
	if !c.head.FU1OK {
		start = m.fuRestr // restricted lanes cannot run mul/div/sqrt
	}
	retry = Cycle(1<<62 - 1)
	for i := start; i < len(m.fus); i++ {
		if m.fus[i].freeAt <= now {
			return &m.fus[i], m.fuUnit(i), 0
		}
		if m.fus[i].freeAt < retry {
			retry = m.fus[i].freeAt
		}
	}
	return nil, 0, retry
}

// fuUnit maps a lane index to its timeline unit: restricted lanes share
// the FU1 lane of the paper's ⟨FU2,FU1,LD⟩ state tuple, general lanes
// the FU2 lane, so the Figure 4 breakdown keeps its meaning ("some lane
// of this class is busy") on any mix.
func (m *Machine) fuUnit(i int) int {
	if i < m.fuRestr {
		return stats.UnitFU1
	}
	return stats.UnitFU2
}

// vectorArith walks a vector arithmetic op's constraints: a functional
// unit, the scalar operand, chaining on the vector sources, the
// destination, then the bank read and write ports. It is the fused form
// of the walk: booking reuses the values in hand rather than recomputing
// them. Splitting it into a check and a separate apply made
// engine/solo-policies 1.06x slower (median of 20 alternating 2 s
// samples, slower in 14; 2-vCPU Xeon, Go 1.24).
func (m *Machine) vectorArith(c *hwContext, book bool) (bool, Cycle) {
	d := c.head
	now := m.now
	vl := Cycle(d.VL)

	fu, unit, retry := m.pickVectorFU(c)
	if fu == nil {
		return false, retry
	}

	// Scalar operand (vector-scalar forms) must be ready at dispatch.
	if d.Src2.Class == isa.ClassS {
		if ok, r := c.scalarReady(d.Src2, now); !ok {
			return false, r
		}
	}

	// Vector sources: chaining constraints.
	srcs := d.VSrcs[:d.NVSrc]
	for _, r := range srcs {
		if ok, retry := chainReady(&c.vregs[r], now); !ok {
			return false, retry
		}
	}
	s := now

	// Destination.
	redDest := d.Dst.Class == isa.ClassS // reduction writes an S register
	var dv *vregState
	if redDest {
		if ok, r := c.scalarReady(d.Dst, now); !ok {
			return false, r
		}
	} else {
		dv = &c.vregs[d.Dst.Reg]
		if ok, retry := destFree(dv, now); !ok {
			return false, retry
		}
	}

	readEnd := s + vl
	fw := s + m.vecDepth[d.Op]
	lw := fw + vl - 1

	// Register-bank ports.
	if ok, retry := m.checkBankReads(c, srcs, s, readEnd); !ok {
		return false, retry
	}
	if !redDest {
		ok, retry := c.banks[m.bankOf[d.Dst.Reg]].writePortFree(fw, lw+1, m.bankWP)
		if !ok {
			return false, retry
		}
	}
	if !book {
		return true, 0
	}

	fu.freeAt = s + vl
	m.tl.AddBusy(unit, s, s+vl)
	m.commitReads(c, srcs, s, readEnd, now)
	if redDest {
		c.setScalarReady(d.Dst, lw+1)
	} else {
		dv.wFirst, dv.wLast, dv.chainable = fw, lw, true
		bank := &c.banks[m.bankOf[d.Dst.Reg]]
		bank.prune(now)
		bank.writes = append(bank.writes, portWindow{fw, lw + 1})
	}
	m.vectorArithOps += int64(vl)
	m.vectorOps += int64(vl)
	return true, 0
}

// vectorMem walks a vector memory op's constraints: the load/store unit
// and the memory port, the base-address register, chaining on the vector
// sources, the load destination, then the bank read and write ports over
// the window the memory system would grant. Fused like vectorArith.
func (m *Machine) vectorMem(c *hwContext, book bool) (bool, Cycle) {
	d := c.head
	now := m.now
	vl := int(d.VL)

	if m.ld.freeAt > now {
		return false, m.ld.freeAt
	}
	if pf := m.mem.PortFreeAt(d.Load); pf > now {
		return false, pf
	}

	// Base-address register (loads/stores carry it; structural read).
	for _, o := range [...]isa.Operand{d.Src1, d.Src2} {
		if o.Class == isa.ClassA {
			if ok, r := c.scalarReady(o, now); !ok {
				return false, r
			}
		}
	}

	// Vector sources: store data and gather/scatter index registers.
	srcs := d.VSrcs[:d.NVSrc]
	for _, r := range srcs {
		if ok, retry := chainReady(&c.vregs[r], now); !ok {
			return false, retry
		}
	}
	s := now

	var dv *vregState
	if d.Load {
		dv = &c.vregs[d.Dst.Reg]
		if ok, retry := destFree(dv, now); !ok {
			return false, retry
		}
	}

	start, firstData, busyFor := m.mem.ProbeVector(s, vl, d.Stride, d.Load)
	readEnd := start + busyFor
	var fw, lw Cycle
	if d.Load {
		fw = firstData + Cycle(m.lat.VectorStartup+m.lat.WriteXbar)
		lw = fw + busyFor - 1
	}

	if ok, retry := m.checkBankReads(c, srcs, start, readEnd); !ok {
		return false, retry
	}
	if d.Load {
		ok, retry := c.banks[m.bankOf[d.Dst.Reg]].writePortFree(fw, lw+1, m.bankWP)
		if !ok {
			return false, retry
		}
	}
	if !book {
		return true, 0
	}

	m.mem.ScheduleVector(s, vl, d.Stride, d.Load)
	m.ld.freeAt = start + busyFor
	m.tl.AddBusy(stats.UnitLD, start, start+busyFor)
	m.commitReads(c, srcs, start, readEnd, now)
	if d.Load {
		dv.wFirst, dv.wLast, dv.chainable = fw, lw, false
		bank := &c.banks[m.bankOf[d.Dst.Reg]]
		bank.prune(now)
		bank.writes = append(bank.writes, portWindow{fw, lw + 1})
	}
	m.vectorOps += int64(vl)
	return true, 0
}
