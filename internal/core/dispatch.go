package core

import (
	"fmt"

	"mtvec/internal/isa"
	"mtvec/internal/prog"
	"mtvec/internal/stats"
)

// tryDispatch attempts to dispatch context c's head instruction at m.now.
// With commit=false it only probes (the switch logic's "known not to be
// blocked" test and the skip-ahead estimator use this). On failure it
// returns a sound lower bound on the cycle the dispatch could first
// succeed, used to fast-forward when every thread is blocked.
//
// Results are memoized per context for the current (cycle, bookSeq)
// pair: within one cycle the machine probes the same head several times —
// the policy's switch scan, the committed attempt, the skip-ahead
// estimator — against unchanged state, so the memo answer is exactly what
// recomputation would return. Any booking anywhere bumps bookSeq and
// invalidates every memo, so a stale answer is never reused.
//
// The three execution paths cover the three dispatch situations:
//   - probe (commit=false): run the checks once, memoize the outcome;
//   - commit after a successful same-cycle probe (memo hit): book via
//     apply without re-running the checks;
//   - commit with no prior probe (the steady run-until-block state):
//     fused single-pass check+book, walking the constraints once.
func (m *Machine) tryDispatch(c *hwContext, commit bool) (bool, Cycle) {
	if c.probeCyc == m.now && c.probeSeq == m.bookSeq {
		if !c.probeOK {
			return false, c.probeHint
		}
		if commit {
			m.applyDispatch(c)
		}
		return true, 0
	}
	if commit {
		ok, hint := m.commitDispatch(c)
		if !ok {
			// A failed commit attempt books nothing, so the outcome is
			// memoizable exactly like a probe.
			c.probeCyc, c.probeSeq = m.now, m.bookSeq
			c.probeOK, c.probeHint = false, hint
		}
		return ok, hint
	}
	ok, hint := m.checkDispatch(c)
	c.probeCyc, c.probeSeq = m.now, m.bookSeq
	c.probeOK, c.probeHint = ok, hint
	return ok, hint
}

// commitDispatch is the fused single-pass dispatch: identical checks in
// identical order to checkDispatch, booking resources on success.
func (m *Machine) commitDispatch(c *hwContext) (bool, Cycle) {
	switch c.head.Kind {
	case isa.KindScalar, isa.KindBranch, isa.KindVLVS:
		if ok, hint := m.checkScalar(c); !ok {
			return false, hint
		}
		m.applyScalar(c)
	case isa.KindScalarMem:
		if ok, hint := m.checkScalarMem(c); !ok {
			return false, hint
		}
		m.applyScalarMem(c)
	case isa.KindVector:
		return m.commitVectorArith(c)
	case isa.KindVectorMem:
		return m.commitVectorMem(c)
	default:
		return false, m.now + 1
	}
	return true, 0
}

// checkDispatch verifies every dispatch constraint of c's head without
// booking anything. Constraints are evaluated in the same order the
// original single-pass dispatcher used, so the failure hint (first
// failing constraint's clear cycle) is bit-identical.
func (m *Machine) checkDispatch(c *hwContext) (bool, Cycle) {
	switch c.head.Kind {
	case isa.KindScalar, isa.KindBranch, isa.KindVLVS:
		return m.checkScalar(c)
	case isa.KindScalarMem:
		return m.checkScalarMem(c)
	case isa.KindVector:
		return m.checkVectorArith(c)
	case isa.KindVectorMem:
		return m.checkVectorMem(c)
	}
	return false, m.now + 1
}

// applyDispatch books the resources of a dispatch whose checks passed
// this cycle. State is unchanged since the check (guarded by bookSeq), so
// the cheap schedule arithmetic recomputed here reproduces the check's
// values exactly; only the expensive constraint scans are skipped.
func (m *Machine) applyDispatch(c *hwContext) {
	switch c.head.Kind {
	case isa.KindScalar, isa.KindBranch, isa.KindVLVS:
		m.applyScalar(c)
	case isa.KindScalarMem:
		m.applyScalarMem(c)
	case isa.KindVector:
		m.applyVectorArith(c)
	case isa.KindVectorMem:
		m.applyVectorMem(c)
	}
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

func (m *Machine) checkScalar(c *hwContext) (bool, Cycle) {
	d := c.head
	now := m.now
	if ok, r := c.scalarReady(d.Src1, now); !ok {
		return false, r
	}
	if ok, r := c.scalarReady(d.Src2, now); !ok {
		return false, r
	}
	if ok, r := c.scalarReady(d.Dst, now); !ok { // WAW on a pending result
		return false, r
	}
	return true, 0
}

func (m *Machine) applyScalar(c *hwContext) {
	d := c.head
	if d.Dst.IsReg() {
		c.setScalarReady(d.Dst, m.now+m.scalarLat[d.Op])
	}
}

func (m *Machine) checkScalarMem(c *hwContext) (bool, Cycle) {
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
	if pf := m.mem.PortFreeAt(c.head.Load); pf > now {
		return false, pf
	}
	return true, 0
}

func (m *Machine) applyScalarMem(c *hwContext) {
	d := c.head
	load := c.head.Load
	_, data := m.mem.ScheduleScalar(m.now, load)
	if load && d.Dst.IsReg() {
		c.setScalarReady(d.Dst, data)
	}
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

func (m *Machine) checkVectorArith(c *hwContext) (bool, Cycle) {
	d := c.head
	now := m.now
	vl := Cycle(d.VL)

	if fu, _, retry := m.pickVectorFU(c); fu == nil {
		return false, retry
	}

	// Scalar operand (vector-scalar forms) must be ready at dispatch.
	if d.Src2.Class == isa.ClassS {
		if ok, r := c.scalarReady(d.Src2, now); !ok {
			return false, r
		}
	}

	// Vector sources: chaining constraints.
	srcs := c.head.VSrcs[:c.head.NVSrc]
	for _, r := range srcs {
		if ok, retry := chainReady(&c.vregs[r], now); !ok {
			return false, retry
		}
	}
	s := now

	// Destination.
	redDest := d.Dst.Class == isa.ClassS // reduction writes an S register
	if redDest {
		if ok, r := c.scalarReady(d.Dst, now); !ok {
			return false, r
		}
	} else {
		if ok, retry := destFree(&c.vregs[d.Dst.Reg], now); !ok {
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
	return true, 0
}

// commitVectorArith is the fused form of checkVectorArith followed by
// applyVectorArith: one constraint walk, booking on success with the
// values already in hand. Every dispatch of a lone thread comes through
// here or commitVectorMem. Replacing both with check-then-apply made
// engine/solo-policies 1.06x slower (median of 20 alternating 2 s
// samples, slower in 14; 2-vCPU Xeon, Go 1.24).
func (m *Machine) commitVectorArith(c *hwContext) (bool, Cycle) {
	d := c.head
	now := m.now
	vl := Cycle(d.VL)

	fu, unit, retry := m.pickVectorFU(c)
	if fu == nil {
		return false, retry
	}

	if d.Src2.Class == isa.ClassS {
		if ok, r := c.scalarReady(d.Src2, now); !ok {
			return false, r
		}
	}

	srcs := c.head.VSrcs[:c.head.NVSrc]
	for _, r := range srcs {
		if ok, retry := chainReady(&c.vregs[r], now); !ok {
			return false, retry
		}
	}
	s := now

	redDest := d.Dst.Class == isa.ClassS
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

	if ok, retry := m.checkBankReads(c, srcs, s, readEnd); !ok {
		return false, retry
	}
	if !redDest {
		ok, retry := c.banks[m.bankOf[d.Dst.Reg]].writePortFree(fw, lw+1, m.bankWP)
		if !ok {
			return false, retry
		}
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

// commitVectorMem is the fused form of checkVectorMem followed by
// applyVectorMem; see commitVectorArith for what the fusion measures.
func (m *Machine) commitVectorMem(c *hwContext) (bool, Cycle) {
	d := c.head
	info := c.head
	now := m.now
	vl := int(d.VL)

	if m.ld.freeAt > now {
		return false, m.ld.freeAt
	}
	if pf := m.mem.PortFreeAt(info.Load); pf > now {
		return false, pf
	}

	for _, o := range [...]isa.Operand{d.Src1, d.Src2} {
		if o.Class == isa.ClassA {
			if ok, r := c.scalarReady(o, now); !ok {
				return false, r
			}
		}
	}

	srcs := c.head.VSrcs[:c.head.NVSrc]
	for _, r := range srcs {
		if ok, retry := chainReady(&c.vregs[r], now); !ok {
			return false, retry
		}
	}
	s := now

	var dv *vregState
	if info.Load {
		dv = &c.vregs[d.Dst.Reg]
		if ok, retry := destFree(dv, now); !ok {
			return false, retry
		}
	}

	start, firstData, busyFor := m.mem.ProbeVector(s, vl, d.Stride, info.Load)
	readEnd := start + busyFor
	var fw, lw Cycle
	if info.Load {
		fw = firstData + Cycle(m.lat.VectorStartup+m.lat.WriteXbar)
		lw = fw + busyFor - 1
	}

	if ok, retry := m.checkBankReads(c, srcs, start, readEnd); !ok {
		return false, retry
	}
	if info.Load {
		ok, retry := c.banks[m.bankOf[d.Dst.Reg]].writePortFree(fw, lw+1, m.bankWP)
		if !ok {
			return false, retry
		}
	}

	m.mem.ScheduleVector(s, vl, d.Stride, info.Load)
	m.ld.freeAt = start + busyFor
	m.tl.AddBusy(stats.UnitLD, start, start+busyFor)
	m.commitReads(c, srcs, start, readEnd, now)
	if info.Load {
		dv.wFirst, dv.wLast, dv.chainable = fw, lw, false
		bank := &c.banks[m.bankOf[d.Dst.Reg]]
		bank.prune(now)
		bank.writes = append(bank.writes, portWindow{fw, lw + 1})
	}
	m.vectorOps += int64(vl)
	return true, 0
}

func (m *Machine) applyVectorArith(c *hwContext) {
	d := c.head
	now := m.now
	vl := Cycle(d.VL)
	fu, unit, _ := m.pickVectorFU(c)

	s := now
	readEnd := s + vl
	fw := s + m.vecDepth[d.Op]
	lw := fw + vl - 1
	redDest := d.Dst.Class == isa.ClassS
	srcs := c.head.VSrcs[:c.head.NVSrc]

	fu.freeAt = s + vl
	m.tl.AddBusy(unit, s, s+vl)
	m.commitReads(c, srcs, s, readEnd, now)
	if redDest {
		c.setScalarReady(d.Dst, lw+1)
	} else {
		dv := &c.vregs[d.Dst.Reg]
		dv.wFirst, dv.wLast, dv.chainable = fw, lw, true
		bank := &c.banks[m.bankOf[d.Dst.Reg]]
		bank.prune(now)
		bank.writes = append(bank.writes, portWindow{fw, lw + 1})
	}
	m.vectorArithOps += int64(vl)
	m.vectorOps += int64(vl)
}

func (m *Machine) checkVectorMem(c *hwContext) (bool, Cycle) {
	d := c.head
	info := c.head
	now := m.now
	vl := int(d.VL)

	if m.ld.freeAt > now {
		return false, m.ld.freeAt
	}
	if pf := m.mem.PortFreeAt(info.Load); pf > now {
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
	srcs := c.head.VSrcs[:c.head.NVSrc]
	for _, r := range srcs {
		if ok, retry := chainReady(&c.vregs[r], now); !ok {
			return false, retry
		}
	}
	s := now

	if info.Load {
		if ok, retry := destFree(&c.vregs[d.Dst.Reg], now); !ok {
			return false, retry
		}
	}

	start, firstData, busyFor := m.mem.ProbeVector(s, vl, d.Stride, info.Load)
	readEnd := start + busyFor
	var fw, lw Cycle
	if info.Load {
		fw = firstData + Cycle(m.lat.VectorStartup+m.lat.WriteXbar)
		lw = fw + busyFor - 1
	}

	if ok, retry := m.checkBankReads(c, srcs, start, readEnd); !ok {
		return false, retry
	}
	if info.Load {
		ok, retry := c.banks[m.bankOf[d.Dst.Reg]].writePortFree(fw, lw+1, m.bankWP)
		if !ok {
			return false, retry
		}
	}
	return true, 0
}

func (m *Machine) applyVectorMem(c *hwContext) {
	d := c.head
	info := c.head
	now := m.now
	vl := int(d.VL)
	srcs := c.head.VSrcs[:c.head.NVSrc]

	start, firstData, busyFor := m.mem.ScheduleVector(now, vl, d.Stride, info.Load)
	readEnd := start + busyFor
	m.ld.freeAt = start + busyFor
	m.tl.AddBusy(stats.UnitLD, start, start+busyFor)
	m.commitReads(c, srcs, start, readEnd, now)
	if info.Load {
		fw := firstData + Cycle(m.lat.VectorStartup+m.lat.WriteXbar)
		lw := fw + busyFor - 1
		dv := &c.vregs[d.Dst.Reg]
		dv.wFirst, dv.wLast, dv.chainable = fw, lw, false
		bank := &c.banks[m.bankOf[d.Dst.Reg]]
		bank.prune(now)
		bank.writes = append(bank.writes, portWindow{fw, lw + 1})
	}
	m.vectorOps += int64(vl)
}
