package core

import (
	"mtvec/internal/isa"
	"mtvec/internal/prog"
)

// Cycle counts processor cycles.
type Cycle = int64

// vregState tracks the in-flight producer and consumers of one vector
// register. Times are inclusive element-write cycles for the writer and
// half-open read windows for readers.
type vregState struct {
	// Writer: the register is being written while now <= wLast. wFirst
	// is the cycle its first element lands (chaining point). Chainable
	// is false for memory loads — the paper's machine does not chain
	// loads into functional units because elements may return out of
	// order.
	wFirst    Cycle
	wLast     Cycle
	chainable bool

	// Active read windows [start, end); a slot is free when end <= now.
	readEnd [maxReaders]Cycle

	// maxReadEnd caches the maximum of readEnd so the hot activity
	// checks are a single comparison instead of a slot scan.
	maxReadEnd Cycle
}

// maxReaders bounds concurrent readers of one register: FU1, FU2, the
// store path and slack for back-to-back windows whose tails overlap.
const maxReaders = 6

func (v *vregState) writerActive(now Cycle) bool { return v.wLast >= now }

func (v *vregState) readersActive(now Cycle) bool { return v.maxReadEnd > now }

// lastReadEnd returns the latest active read window end (or now).
func (v *vregState) lastReadEnd(now Cycle) Cycle {
	if v.maxReadEnd > now {
		return v.maxReadEnd
	}
	return now
}

// addReader records a read window, reusing an expired slot.
func (v *vregState) addReader(now, end Cycle) bool {
	for i, e := range v.readEnd {
		if e <= now {
			v.readEnd[i] = end
			if end > v.maxReadEnd {
				v.maxReadEnd = end
			}
			return true
		}
	}
	return false
}

// portWindow is a busy window [S, E) on a register-bank port.
type portWindow struct{ S, E Cycle }

// bankWinReserve is the preallocated initial capacity of each bank's
// read and write window lists (see New). Pruning keeps the live window
// count near the in-flight instruction depth, so a small reserve covers
// the steady state without growth while keeping the block cheap.
const bankWinReserve = 4

// bankState tracks the port occupancy of one two-register bank: two read
// ports and one write port into the crossbars (Section 3).
type bankState struct {
	reads  []portWindow
	writes []portWindow
}

// prune drops expired windows.
func (b *bankState) prune(now Cycle) {
	keep := func(ws []portWindow) []portWindow {
		out := ws[:0]
		for _, w := range ws {
			if w.E > now {
				out = append(out, w)
			}
		}
		return out
	}
	b.reads = keep(b.reads)
	b.writes = keep(b.writes)
}

// writePortFree reports whether the bank has a write port free for the
// whole window [s, e); ports is the bank's write-port count from the
// machine shape. On failure it returns the earliest cycle the conflict
// could clear. (The read-port check goes through checkBankReads, which
// groups sources sharing a bank before calling portFree.)
func (b *bankState) writePortFree(s, e Cycle, ports int) (bool, Cycle) {
	return portFree(b.writes, s, e, ports)
}

// portFree counts the maximum overlap of existing windows with [s, e) and
// checks it stays below capacity. Window lists are tiny (a handful of
// in-flight instructions per context), so the quadratic sweep is cheap —
// and allocation-free: maximum overlap is attained at s or at some
// overlapping window's start, so each candidate point is evaluated with a
// rescan instead of materializing the overlap set.
func portFree(ws []portWindow, s, e Cycle, capacity int) (bool, Cycle) {
	if len(ws) < capacity {
		return true, 0 // fewer windows than ports: no conflict possible
	}
	overlapping := 0
	minEnd := Cycle(1<<62 - 1)
	for _, w := range ws {
		if w.S < e && w.E > s {
			overlapping++
			if w.E < minEnd {
				minEnd = w.E
			}
		}
	}
	if overlapping < capacity {
		return true, 0
	}
	// Count concurrency at each candidate point: s itself and every
	// overlapping window's start within (s, e).
	if countAt(ws, s, e, s) >= capacity {
		return false, minEnd
	}
	for _, w := range ws {
		if w.S > s && w.S < e && w.E > s {
			if countAt(ws, s, e, w.S) >= capacity {
				return false, minEnd
			}
		}
	}
	return true, 0
}

// countAt returns how many windows overlapping [s, e) contain point p.
func countAt(ws []portWindow, s, e, p Cycle) int {
	n := 0
	for _, w := range ws {
		if w.S < e && w.E > s && w.S <= p && p < w.E {
			n++
		}
	}
	return n
}

// numRegClasses covers isa.ClassNone..isa.ClassImm as scoreboard rows.
const numRegClasses = int(isa.ClassImm) + 1

// The flat scoreboard assumes the A and S register files are the same
// size; rows are sized by isa.NumA.
var _ [isa.NumA]struct{} = [isa.NumS]struct{}{}

// jobSource supplies a context's successive program runs.
type jobSource func() (*prog.Stream, string, bool)

// init resets a context to idle: no register has an in-flight writer
// (wLast = -1 marks the writer inactive from cycle 0 on) and no dispatch
// probe is memoized.
func (c *hwContext) init(id int) {
	c.id = id
	for i := range c.vregs {
		c.vregs[i].wFirst = -1
		c.vregs[i].wLast = -1
	}
	c.probeCyc = -1
}

// context is one hardware context: its registers, its instruction stream
// and its progress accounting.
type hwContext struct {
	id int

	// Architectural state timing. The scalar scoreboard is indexed by
	// operand class then register, so the ready check is unconditional
	// array math: rows ClassA and ClassS carry the A/S scoreboards, the
	// rows for ClassNone, ClassV and ClassImm are never written and read
	// as always-ready — exactly the branchy per-class semantics, minus
	// the branches. The vector register and bank state are sized by the
	// machine shape (arch.Derived) and slice into machine-wide backing
	// arrays (see New).
	scoreb [numRegClasses][isa.NumA]Cycle
	vregs  []vregState
	banks  []bankState

	// Instruction supply. head points at the stream's current decoded
	// instruction — shared immutable predecode entries for cached
	// replays, a stream-owned buffer otherwise — valid while headValid
	// and never written by the machine.
	stream    *prog.Stream
	next      jobSource
	head      *prog.DecodedInst
	headValid bool
	exhausted bool

	// Within-cycle dispatch memo (see Machine.tryDispatch): the outcome
	// of a walk of this context's head that booked nothing, at probeCyc
	// with machine booking sequence probeSeq. Valid only while both
	// match — any booking anywhere invalidates it — so a memoized answer
	// is exactly what recomputation would return.
	probeCyc  Cycle
	probeSeq  uint64
	probeOK   bool
	probeHint Cycle

	// Accounting.
	program     string
	completions int64
	dispatched  int64
	spanStart   Cycle
	spanOpen    bool
	err         error
}

// refill fetches the next head instruction, pulling a new job when the
// current stream ends. It reports whether the context has work.
// Exhaustion is permanent: per the JobSource contract, ok=false means the
// context has no further work, so an exhausted context is never probed
// again.
func (c *hwContext) refill(m *Machine) bool {
	if c.headValid {
		return true
	}
	if c.exhausted {
		return false
	}
	for {
		if c.stream != nil {
			if d := c.stream.NextDec(); d != nil {
				if d.Kind == isa.KindVector || d.Kind == isa.KindVectorMem {
					if err := m.checkShape(d); err != nil {
						if c.err == nil {
							c.err = err
						}
						c.markExhausted(m)
						return false
					}
				}
				c.head = d
				c.headValid = true
				return true
			}
		}
		if c.stream != nil {
			// Stream ended: account a completion and close the span.
			if err := c.stream.Err(); err != nil && c.err == nil {
				c.err = err
			}
			c.completions++
			m.closeSpan(c)
			c.stream = nil
		}
		if c.next == nil {
			c.markExhausted(m)
			return false
		}
		s, name, ok := c.next()
		if !ok {
			c.markExhausted(m)
			return false
		}
		c.stream = s
		c.program = name
		c.spanStart = m.now
		c.spanOpen = true
	}
}

// markExhausted records that the context has drained its job source.
// When that leaves a single context with work, it becomes the machine's
// sole context (see Machine.runSole).
func (c *hwContext) markExhausted(m *Machine) {
	if c.exhausted {
		return
	}
	c.exhausted = true
	m.exhaustedCtxs++
	if m.exhaustedCtxs == len(m.ctxs)-1 {
		for i := range m.ctxs {
			if !m.ctxs[i].exhausted {
				m.sole = i
			}
		}
	}
}

// partialInsts returns how far into the current (unfinished) run the
// context is, in dynamic instructions.
func (c *hwContext) partialInsts() int64 {
	if c.stream == nil {
		return 0
	}
	n := c.stream.Count()
	if c.headValid {
		// The head was pulled from the stream but not yet dispatched.
		n--
	}
	return n
}

// quiesce returns the cycle by which all of the context's in-flight
// register activity has drained.
func (c *hwContext) quiesce(now Cycle) Cycle {
	q := now
	for i := range c.vregs {
		v := &c.vregs[i]
		if v.wLast+1 > q {
			q = v.wLast + 1
		}
		if e := v.lastReadEnd(now); e > q {
			q = e
		}
	}
	for _, r := range c.scoreb[isa.ClassA] {
		if r > q {
			q = r
		}
	}
	for _, r := range c.scoreb[isa.ClassS] {
		if r > q {
			q = r
		}
	}
	return q
}
