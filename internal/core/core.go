// Package core implements the paper's contribution: a cycle-by-cycle
// model of a Convex C3400-class vector processor (the reference
// architecture) and its multithreaded extension with up to four hardware
// contexts sharing the fetch/decode unit, the two vector functional
// units, the memory pipe and the single address port (Section 3).
//
// The decode unit examines exactly one thread per cycle and dispatches at
// most one instruction; a thread runs until it blocks on a data
// dependence or resource conflict, then the switch logic picks another
// thread (policy-selectable, default the paper's "unfair" lowest-numbered
// scheme). Chaining is fully flexible between functional units and into
// the store path, but memory loads never chain into consumers. Vector
// register banks expose two read ports and one write port each, and the
// register-file crossbar latencies are configurable to reproduce the
// Section 8 study.
//
// The Fujitsu VP2000-style comparison machine of Section 9 (two scalar
// decode units sharing one vector facility) and the paper's future-work
// knobs (multi-thread issue, multiple memory ports via memsys) are
// included.
//
// # Concurrency and determinism
//
// A Machine is single-use and not safe for concurrent use, but a run is
// a pure function of its Config and input streams: the same inputs
// always produce the same Report, cycle for cycle. Distinct Machines
// share no mutable state: New clones Config.Policy (policies may carry
// per-run state), so one Config value can be reused across concurrent
// runs, and the session engine (internal/session, internal/runner)
// simulates many Machines in parallel and still gets byte-identical
// results at any worker count.
//
// RunContext plumbs context.Context cancellation into the simulation
// loop. The deadline is checked on a coarse iteration stride, so an
// uncancelled run is exactly as fast and exactly as deterministic as
// Run; a cancelled run returns ctx.Err() and no report.
package core

import (
	"context"
	"fmt"

	"mtvec/internal/arch"
	"mtvec/internal/isa"
	"mtvec/internal/memsys"
	"mtvec/internal/prog"
	"mtvec/internal/sched"
	"mtvec/internal/stats"
)

// Config selects a machine variant: a machine shape (the embedded
// arch.Spec — register file, functional-unit mix, latency table Lat,
// memory system Mem, default IssueWidth) plus the per-run knobs below.
// The zero Spec resolves to arch.ConvexC3400(), the paper's reference
// shape, so Config values that predate the arch layer keep their
// meaning.
type Config struct {
	// Contexts is the number of hardware contexts; 1 models the
	// reference architecture. The upper bound is the shape's
	// Spec.MaxContexts (8 on the reference machine).
	Contexts int

	// Spec is the machine shape. Its Lat, Mem and IssueWidth fields are
	// promoted, so cfg.Mem.Latency and friends read as they always did.
	arch.Spec

	// Policy is the thread-switch policy; nil selects the paper's
	// "unfair" scheme.
	Policy sched.Policy

	// DualScalar models the Fujitsu VP2000 Dual Scalar Processing
	// configuration of Section 9: one decode/scalar unit per context
	// (requires exactly 2 contexts), sharing the vector facility.
	DualScalar bool

	// Observers receive streaming run events (progress, thread
	// switches, program spans). Observers do not affect the simulated
	// outcome; see Observer for the determinism contract.
	Observers []Observer

	// ProgressStride is the simulated-cycle interval between
	// Observer.Progress events; 0 selects DefaultProgressStride.
	ProgressStride Cycle

	// DisableFastForward turns off the all-threads-blocked clock skip.
	// The skip is part of the engine's defined semantics: it is fully
	// deterministic, observation-invariant (attaching observers never
	// changes a run), and equivalent to cycle-by-cycle stepping on the
	// configurations the tests verify. Its retry hints may overshoot a
	// register-bank port conflict that a sliding dispatch window would
	// have escaped, so cycle-stepped runs can differ slightly — on
	// heterogeneous multi-context runs, and on single-context runs of
	// the Table 3 programs too (docs/PERF.md); the golden-output gate
	// (docs/GOLDEN.txt) pins the fast-forward behaviour byte-for-byte.
	// This knob exists for that verification and for debugging.
	DisableFastForward bool
}

// DefaultConfig returns the reference architecture at 50-cycle memory
// latency.
func DefaultConfig() Config {
	return Config{Contexts: 1, Spec: arch.ConvexC3400()}
}

// Normalized resolves the config's defaulting rules without running
// anything: a zero Spec becomes arch.ConvexC3400(), and a zero
// IssueWidth takes the shape's default. Validate, New and the session
// memo key all operate on the normalized form, so a defaulted config and
// its explicit spelling are the same machine.
func (c Config) Normalized() Config {
	c.Normalize()
	return c
}

// Normalize applies Normalized's defaulting rules in place.
func (c *Config) Normalize() {
	if c.Spec.IsZero() {
		c.Spec = arch.ConvexC3400()
	}
	if c.IssueWidth == 0 {
		c.IssueWidth = 1
	}
}

// Validate reports configuration errors of the normalized config. It
// runs the checks of New without resolving the engine tables, so a
// valid config validates without allocating.
func (c *Config) Validate() error {
	if c.Spec.IsZero() || c.IssueWidth == 0 {
		n := c.Normalized()
		return n.Validate()
	}
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if err := c.Spec.ValidateContexts(c.Contexts); err != nil {
		return err
	}
	return c.validateKnobs()
}

// validateKnobs runs the cross-knob checks that the shape's own
// validation cannot see.
func (c *Config) validateKnobs() error {
	if c.DualScalar && c.Contexts != 2 {
		return fmt.Errorf("core: dual-scalar mode requires exactly 2 contexts, have %d", c.Contexts)
	}
	if c.IssueWidth < 1 || c.IssueWidth > c.Contexts {
		return fmt.Errorf("core: issue width %d out of range 1..contexts", c.IssueWidth)
	}
	return nil
}

// JobSource supplies a context's successive program runs: each call
// returns the next program's dynamic stream and name, or ok=false when
// the context has no further work.
type JobSource func() (*prog.Stream, string, bool)

// fuState is one pipelined unit's availability.
type fuState struct{ freeAt Cycle }

// Machine is one simulation instance. Machines are single-use: configure
// threads, Run once, read the report.
type Machine struct {
	cfg Config
	lat isa.LatencyTable
	mem *memsys.System

	fu1, fu2 fuState // the default 1-restricted + 1-general FU pair
	ld       fuState
	// fus holds the lanes of a non-default mix (restricted lanes first);
	// nil when pairFU selects the devirtualized fu1/fu2 fast path.
	fus    []fuState
	pairFU bool

	// Machine-shape tables resolved from cfg.Spec (arch.Derived),
	// flattened into the machine for branch-free hot-path access.
	bankOf   [arch.MaxVRegs]uint8
	ctxVRegs int
	numBanks int
	bankRP   int
	bankWP   int
	vlMax    uint16
	fuRestr  int

	ctxs []hwContext // contiguous: one cache-friendly block

	now        Cycle
	cur        int
	curBlocked bool
	lastDisp   int // context of the previous dispatch (-1 at start)

	// Hot-path decode tables, flattened from the latency table and the
	// static opcode infos at construction so the dispatch path is pure
	// array indexing (no Info copies, no per-dispatch recomputation).
	scalarLat [isa.NumOps]Cycle // scalar-unit completion latency per op
	vecDepth  [isa.NumOps]Cycle // startup+read-xbar+FU+write-xbar per vector op

	// unfair devirtualizes the default thread-switch policy; dual caches
	// Config.DualScalar for the step dispatcher.
	unfair bool
	dual   bool

	// bookSeq increments on every resource booking (completeDispatch).
	// Together with the cycle number it keys the per-context dispatch
	// memo: a probe result is reused only while nothing has been booked
	// since, which makes the memo provably identical to recomputation.
	bookSeq uint64

	// exhaustedCtxs counts contexts that drained their job source;
	// needRefill flags that some context consumed its head this cycle.
	exhaustedCtxs int
	needRefill    bool

	// sole is the index of the only context that still has work, or -1
	// while two or more do. Exhaustion is permanent, so once set it
	// never goes stale. A lone thread is not scheduled: on the shared
	// decoder runLoop hands the rest of the run to runSole (see there
	// for why this is exact).
	sole int

	tl             stats.UnitTimeline
	lost           int64
	dispatched     int64
	vectorArithOps int64
	vectorOps      int64

	obs            []Observer
	hasObs         bool
	progressStride Cycle
	nextProgress   Cycle

	ran bool
}

// New builds a machine from cfg.
func New(cfg Config) (*Machine, error) {
	cfg = cfg.Normalized()
	// Derive runs the spec- and context-level validation; only the
	// cross-knob checks of Config.Validate remain.
	der, err := cfg.Spec.Derive(cfg.Contexts)
	if err != nil {
		return nil, err
	}
	if err := cfg.validateKnobs(); err != nil {
		return nil, err
	}
	mem, err := memsys.New(cfg.Mem)
	if err != nil {
		return nil, err
	}
	if cfg.Policy == nil {
		cfg.Policy = sched.Unfair{}
	}
	// Take ownership of the policy: cloning makes sharing one Config
	// (or one policy value) across concurrent runs safe by construction.
	cfg.Policy = cfg.Policy.Clone()
	m := &Machine{cfg: cfg, lat: cfg.Lat, mem: mem, cur: -1, lastDisp: -1, sole: -1}
	if cfg.Contexts == 1 {
		m.sole = 0
	}
	_, m.unfair = cfg.Policy.(sched.Unfair)
	m.dual = cfg.DualScalar
	m.bookSeq = 1
	for op := isa.Op(0); op < isa.NumOps; op++ {
		m.scalarLat[op] = Cycle(m.lat.Scalar(op))
		m.vecDepth[op] = Cycle(m.lat.VectorStartup + m.lat.ReadXbar + m.lat.VectorFU(op) + m.lat.WriteXbar)
	}

	// Machine-shape tables. The default 1-restricted + 1-general FU pair
	// keeps its devirtualized fu1/fu2 fast path; other mixes go through
	// the fus lane slice.
	m.bankOf = der.BankOf
	m.ctxVRegs = der.CtxVRegs
	m.numBanks = der.NumBanks
	m.bankRP = der.BankReadPorts
	m.bankWP = der.BankWritePorts
	m.vlMax = der.VLMax
	m.fuRestr = der.RestrictedFUs
	m.pairFU = der.RestrictedFUs == 1 && der.TotalFUs == 2
	if !m.pairFU {
		m.fus = make([]fuState, der.TotalFUs)
	}

	m.obs = append(m.obs, cfg.Observers...)
	m.hasObs = len(m.obs) > 0
	m.progressStride = cfg.ProgressStride
	if m.progressStride <= 0 {
		m.progressStride = DefaultProgressStride
	}
	m.nextProgress = m.progressStride

	// One contiguous block per state kind: the contexts themselves, then
	// every context's register and bank windows, sliced out of shared
	// backing arrays so multi-context scans stay cache-friendly.
	m.ctxs = make([]hwContext, cfg.Contexts)
	vregs := make([]vregState, cfg.Contexts*der.CtxVRegs)
	banks := make([]bankState, cfg.Contexts*der.NumBanks)
	wins := make([]portWindow, 2*bankWinReserve*cfg.Contexts*der.NumBanks)
	// Seed every bank's port-window lists with a preallocated reserve:
	// pruning keeps live windows to a few in-flight instructions, so
	// bankWinReserve covers the steady state and only a genuinely deep
	// window list spills to an append-grown heap slice. The chunks are
	// capacity-capped and disjoint, so an append never runs into a
	// neighbouring bank's windows.
	for i := range banks {
		o := 2 * bankWinReserve * i
		banks[i].reads = wins[o : o : o+bankWinReserve]
		banks[i].writes = wins[o+bankWinReserve : o+bankWinReserve : o+2*bankWinReserve]
	}
	for i := range m.ctxs {
		c := &m.ctxs[i]
		c.vregs = vregs[i*der.CtxVRegs : (i+1)*der.CtxVRegs : (i+1)*der.CtxVRegs]
		c.banks = banks[i*der.NumBanks : (i+1)*der.NumBanks : (i+1)*der.NumBanks]
		c.init(i)
	}
	return m, nil
}

// SetThread installs the job source of context id.
func (m *Machine) SetThread(id int, src JobSource) error {
	if id < 0 || id >= len(m.ctxs) {
		return fmt.Errorf("core: thread %d out of range", id)
	}
	m.ctxs[id].next = src
	return nil
}

// SetThreadStream installs a single-run stream on context id.
func (m *Machine) SetThreadStream(id int, name string, s *prog.Stream) error {
	done := false
	return m.SetThread(id, func() (*prog.Stream, string, bool) {
		if done {
			return nil, "", false
		}
		done = true
		return s, name, true
	})
}

// Repeat builds a JobSource that restarts the program indefinitely —
// the paper's companion-thread rule ("we restart them as many times as
// necessary").
func Repeat(name string, open func() *prog.Stream) JobSource {
	return func() (*prog.Stream, string, bool) {
		return open(), name, true
	}
}

// Queue builds a JobSource draining a shared job list; used by the
// Section 7 methodology where each finishing thread takes the next
// program from a fixed order.
type JobQueue struct {
	jobs []queuedJob
	next int
}

type queuedJob struct {
	name string
	open func() *prog.Stream
}

// NewJobQueue creates an empty queue.
func NewJobQueue() *JobQueue { return &JobQueue{} }

// Add appends a job.
func (q *JobQueue) Add(name string, open func() *prog.Stream) {
	q.jobs = append(q.jobs, queuedJob{name, open})
}

// Source returns the shared JobSource; attach it to every context.
func (q *JobQueue) Source() JobSource {
	return func() (*prog.Stream, string, bool) {
		if q.next >= len(q.jobs) {
			return nil, "", false
		}
		j := q.jobs[q.next]
		q.next++
		return j.open(), j.name, true
	}
}

// Stop tells Run when to finish.
type Stop struct {
	// Thread0Complete stops when context 0 exhausts its job source
	// (the grouped-run rule of Section 4.1).
	Thread0Complete bool

	// MaxThread0Insts stops once context 0 has dispatched this many
	// dynamic instructions (partial reference runs for the speedup
	// formula). 0 disables.
	MaxThread0Insts int64

	// MaxCycles is a safety bound; 0 disables.
	MaxCycles Cycle
}

// sched.MachineView implementation.

// NumThreads implements sched.MachineView.
func (m *Machine) NumThreads() int { return len(m.ctxs) }

// HasWork implements sched.MachineView.
func (m *Machine) HasWork(t int) bool { return m.ctxs[t].refill(m) }

// Dispatchable implements sched.MachineView.
func (m *Machine) Dispatchable(t int) bool {
	c := &m.ctxs[t]
	if !c.refill(m) {
		return false
	}
	ok, _ := m.tryDispatch(c, false)
	return ok
}

// Run simulates until the stop condition triggers or all work drains,
// returning the collected metrics.
func (m *Machine) Run(stop Stop) (*stats.Report, error) {
	return m.RunContext(context.Background(), stop)
}

// cancelCheckStride is how many simulated cycles pass between context
// checks. Coarse enough to cost nothing (one comparison per loop
// iteration, one ctx.Err() per stride), fine enough that a cancelled
// run stops within microseconds of wall time.
const cancelCheckStride Cycle = 1 << 12

// RunContext is Run with cancellation: when ctx is cancelled or its
// deadline passes, the run stops and returns ctx.Err() with no report.
// Cancellation never yields partial results — a Report always describes
// a run that reached its stop condition — and an uncancelled RunContext
// is byte-identical to Run.
func (m *Machine) RunContext(ctx context.Context, stop Stop) (*stats.Report, error) {
	if m.ran {
		return nil, fmt.Errorf("core: machine already ran; build a new one")
	}
	m.ran = true
	if err := m.runLoop(ctx, stop); err != nil {
		return nil, err
	}
	if err := m.streamErrors(); err != nil {
		return nil, err
	}
	return m.report(stop), nil
}

// runLoop is the simulation loop. It advances the machine from its
// first cycle until the stop condition triggers or all work drains, in
// one uninterrupted call; it returns an error only when ctx is
// cancelled.
//
// Each iteration steps one cycle of the whole machine: stepShared while
// two or more contexts have work, stepDualScalar on the dual-scalar
// machine. Once a single context has work on the shared decoder, the
// run continues in runSole, which steps that context alone.
func (m *Machine) runLoop(ctx context.Context, stop Stop) error {
	done := ctx.Done()
	if done != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	// Prime every context once; afterwards only contexts that consumed
	// their head (dispatched) are re-examined, flagged via needRefill.
	// A context's refill is a no-op while its head is pending and
	// permanent once its job source drains, so the incremental pass is
	// step-for-step identical to re-probing every context every cycle.
	for i := range m.ctxs {
		m.ctxs[i].refill(m)
	}
	var (
		nextCheck = m.now + cancelCheckStride
		maxCycles = stop.MaxCycles
		maxInsts  = stop.MaxThread0Insts
		t0done    = stop.Thread0Complete
		c0        = &m.ctxs[0]
		nctx      = len(m.ctxs)
	)
	for {
		if done != nil && m.now >= nextCheck {
			nextCheck = m.now + cancelCheckStride
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if maxCycles > 0 && m.now >= maxCycles {
			return nil
		}
		if t0done && c0.exhausted {
			return nil
		}
		if maxInsts > 0 && c0.dispatched >= maxInsts {
			return nil
		}

		if m.needRefill {
			m.needRefill = false
			for i := range m.ctxs {
				if c := &m.ctxs[i]; !c.headValid && !c.exhausted {
					c.refill(m)
				}
			}
			if t0done && c0.exhausted {
				return nil
			}
		}
		if m.exhaustedCtxs == nctx {
			return nil
		}

		if m.dual {
			m.stepDualScalar()
		} else if m.sole >= 0 {
			return m.runSole(ctx, stop, nextCheck)
		} else {
			m.stepShared()
		}
		m.now++
		if m.hasObs && m.nextProgress <= m.now {
			m.notifyProgress()
		}
	}
}

// runSole is runLoop for a shared-decoder machine on which only one
// context still has work (m.sole). runLoop hands over to it at the first
// cycle boundary where that holds — from the first cycle of a solo run,
// or for the drained tail of a job queue — and it keeps the run until
// the end, since exhaustion is permanent. Its result and per-iteration
// checks are runLoop's; nextCheck carries on runLoop's cancellation
// stride.
//
// A lone thread is not scheduled. Each cycle makes one booking
// dispatch attempt on its head: no switch policy, no dispatch memo, no
// scan of the other contexts. This is exact for every policy that
// keeps the sched.Policy contract: Pick returns a thread with work, and
// -1 only when none has one, so with one thread left it must return that
// thread; no other thread can fill an extra issue slot or shorten the
// skip-ahead hint; and a stateful policy's history (LRU) is never read
// again, because the decode unit never has a choice to make again. The
// memo is never read again either: nothing probes a head twice in one
// cycle from here on. Observer events (switches, progress, spans) are
// the ones stepShared would emit.
func (m *Machine) runSole(ctx context.Context, stop Stop, nextCheck Cycle) error {
	var (
		done      = ctx.Done()
		maxCycles = stop.MaxCycles
		maxInsts  = stop.MaxThread0Insts
		c0        = &m.ctxs[0]
		th        = m.sole
		c         = &m.ctxs[th]
		ff        = !m.cfg.DisableFastForward
	)
	for {
		if done != nil && m.now >= nextCheck {
			nextCheck = m.now + cancelCheckStride
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if maxCycles > 0 && m.now >= maxCycles {
			return nil
		}
		if maxInsts > 0 && c0.dispatched >= maxInsts {
			return nil
		}
		// Thread0Complete needs no check of its own: runLoop checked it
		// just before the hand-off, so when it is set the lone context
		// is context 0, whose exhaustion ends the run right here.
		if !c.headValid && !c.refill(m) {
			return nil // the lone context drained: no work is left
		}

		if ok, hint := m.dispatch(c, true); ok {
			if th != m.lastDisp {
				if m.hasObs {
					m.notifySwitch(m.lastDisp, th)
				}
				m.lastDisp = th
			}
			c.headValid = false
			c.dispatched++
			m.dispatched++
		} else {
			m.lost++
			if ff {
				m.skipTo(hint, 1)
			}
		}
		m.now++
		if m.hasObs && m.nextProgress <= m.now {
			m.notifyProgress()
		}
	}
}

// stepShared is the paper's machine: one decode unit, one thread
// examined per cycle, IssueWidth extra slots for the future-work
// simultaneous-issue study. It runs while two or more contexts have
// work; runSole takes over once only one does.
func (m *Machine) stepShared() {
	var (
		th     int
		booked bool
	)
	if m.unfair {
		th, booked = m.pickUnfair()
	} else {
		th = m.cfg.Policy.Pick(m, m.cur, m.curBlocked)
	}
	if th < 0 {
		return
	}
	c := &m.ctxs[th]
	ok, hint := booked, Cycle(0)
	if !booked {
		ok, hint = m.tryDispatch(c, true)
	}
	if ok {
		if th != m.lastDisp {
			if m.hasObs {
				m.notifySwitch(m.lastDisp, th)
			}
			m.lastDisp = th
		}
		m.completeDispatch(c)
		m.cur, m.curBlocked = th, false
	} else {
		m.lost++
		m.cur, m.curBlocked = th, true
		m.maybeSkipAhead(th, hint)
		return
	}
	// Extra issue slots from other threads (extension; IssueWidth=1 on
	// the paper's machine): each goes to the lowest-numbered other
	// thread whose head dispatches.
	for w := 1; w < m.cfg.IssueWidth; w++ {
		picked := false
		for t := 0; t < len(m.ctxs); t++ {
			if t == th || !m.ctxs[t].refill(m) {
				continue
			}
			if ok, _ := m.tryDispatch(&m.ctxs[t], true); ok {
				m.completeDispatch(&m.ctxs[t])
				picked = true
				break
			}
		}
		if !picked {
			break
		}
	}
}

// pickUnfair is the devirtualized fast path for the paper's default
// policy: it makes exactly the picks sched.Unfair.Pick makes (run the
// current thread until it blocks, then switch to the lowest-numbered
// thread known not to be blocked) without the MachineView indirection.
// Where Unfair probes each thread and the caller then books its pick,
// the scan here books the first thread that passes in the same walk
// (booked=true); a failed booking attempt books nothing and is memoized
// like a probe, so the picks are unchanged. It serves only cycles where
// two or more contexts have work (runSole runs a lone context) and still
// pays there: calling sched.Unfair.Pick instead made engine/4threads
// 1.11x slower (median of 8 alternating 2 s samples, slower in 7; 2-vCPU
// Xeon, Go 1.24).
func (m *Machine) pickUnfair() (th int, booked bool) {
	if cur := m.cur; cur >= 0 && !m.curBlocked {
		if c := &m.ctxs[cur]; c.headValid || c.refill(m) {
			return cur, false
		}
	}
	first := -1
	for t := range m.ctxs {
		c := &m.ctxs[t]
		if !c.headValid && !c.refill(m) {
			continue
		}
		if first < 0 {
			first = t
		}
		if ok, _ := m.tryDispatch(c, true); ok {
			return t, true
		}
	}
	return first, false // everyone blocked (or no work): attempt the lowest
}

// stepDualScalar is the Fujitsu VP2000 mode: each context has its own
// decode/scalar unit; both attempt a dispatch every cycle, sharing the
// vector units and memory port (lower context wins ties by going first).
func (m *Machine) stepDualScalar() {
	blockedAll := true
	blocked := int64(0)
	minHint := Cycle(1<<62 - 1)
	for i := range m.ctxs {
		c := &m.ctxs[i]
		if !c.refill(m) {
			continue
		}
		if ok, hint := m.tryDispatch(c, true); ok {
			m.completeDispatch(c)
			blockedAll = false
		} else {
			m.lost++
			blocked++
			if hint < minHint {
				minHint = hint
			}
		}
	}
	if blockedAll && minHint < 1<<61 && !m.cfg.DisableFastForward {
		m.skipTo(minHint, blocked)
	}
}

// completeDispatch consumes the head instruction after a successful
// dispatch. Bumping bookSeq invalidates every memoized probe (resources
// were just booked); needRefill schedules the head re-pull for the top of
// the next cycle, exactly when the eager engine would have pulled it.
func (m *Machine) completeDispatch(c *hwContext) {
	c.headValid = false
	c.dispatched++
	m.dispatched++
	m.bookSeq++
	m.needRefill = true
}

// maybeSkipAhead fast-forwards the clock when every thread with work is
// blocked: no dispatch can happen before the earliest retry hint, so the
// intermediate cycles are all lost decode cycles. This changes nothing
// observable — interval-based accounting covers the gap. The retry hints
// were almost always just computed by the policy's scan this same cycle,
// so the probes below are memo hits (see tryDispatch), not recomputation.
func (m *Machine) maybeSkipAhead(failed int, hint Cycle) {
	if m.cfg.DisableFastForward {
		return
	}
	minHint := hint
	for t := range m.ctxs {
		c := &m.ctxs[t]
		if t == failed || !c.refill(m) {
			continue
		}
		ok, h := m.tryDispatch(c, false)
		if ok {
			return // someone can dispatch next cycle; no skip
		}
		if h < minHint {
			minHint = h
		}
	}
	m.skipTo(minHint, 1)
}

// skipTo advances the clock so the next loop iteration lands on target.
// lostPerCycle is the number of decode slots each skipped cycle would
// have wasted (1 for the shared decoder, one per blocked unit in
// dual-scalar mode), keeping the lost-decode counter identical to
// cycle-by-cycle stepping.
func (m *Machine) skipTo(target Cycle, lostPerCycle int64) {
	if target <= m.now+1 {
		return
	}
	skipped := target - m.now - 1
	m.lost += skipped * lostPerCycle
	m.now += skipped
}

// closeSpan records the end of a context's current program segment and
// streams it to the observers.
func (m *Machine) closeSpan(c *hwContext) {
	if !c.spanOpen {
		return
	}
	c.spanOpen = false
	if len(m.obs) == 0 {
		return
	}
	s := stats.Span{Thread: c.id, Program: c.program, Start: c.spanStart, End: m.now}
	for _, o := range m.obs {
		o.Span(s)
	}
}

// streamErrors surfaces trace replay failures.
func (m *Machine) streamErrors() error {
	for i := range m.ctxs {
		c := &m.ctxs[i]
		if c.err != nil {
			return fmt.Errorf("core: thread %d: %w", c.id, c.err)
		}
		if c.stream != nil {
			if err := c.stream.Err(); err != nil {
				return fmt.Errorf("core: thread %d: %w", c.id, err)
			}
		}
	}
	return nil
}

// report assembles the run's metrics.
func (m *Machine) report(stop Stop) *stats.Report {
	cycles := m.now
	switch {
	case stop.MaxThread0Insts > 0:
		// Partial runs measure to the dispatch point.
	case stop.Thread0Complete:
		if q := m.ctxs[0].quiesce(m.now); q > cycles {
			cycles = q
		}
	default:
		for i := range m.ctxs {
			if q := m.ctxs[i].quiesce(m.now); q > cycles {
				cycles = q
			}
		}
	}

	rep := &stats.Report{
		Cycles:         cycles,
		Breakdown:      m.tl.Sweep(cycles),
		MemBusyCycles:  m.mem.BusyCycles(),
		MemRequests:    m.mem.Requests(),
		MemPorts:       m.mem.Ports(),
		VectorArithOps: m.vectorArithOps,
		VectorOps:      m.vectorOps,
		Insts:          m.dispatched,
		LostDecode:     m.lost,
	}
	for i := range m.ctxs {
		c := &m.ctxs[i]
		m.closeSpan(c)
		rep.Threads = append(rep.Threads, stats.ThreadReport{
			Program:      c.program,
			Completions:  c.completions,
			PartialInsts: c.partialInsts(),
			Dispatched:   c.dispatched,
		})
	}
	return rep
}

// IdealCycles merges workload demand statistics and returns the paper's
// IDEAL execution-time lower bound (Figure 10): the busy time of the most
// saturated resource, with all dependences and latencies removed.
func IdealCycles(all ...prog.Stats) int64 {
	var merged prog.Stats
	for i := range all {
		merged.Merge(&all[i])
	}
	return merged.IdealCycles()
}
