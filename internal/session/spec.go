package session

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"mtvec/internal/arch"
	"mtvec/internal/core"
	"mtvec/internal/memsys"
	"mtvec/internal/sched"
	"mtvec/internal/workload"
)

// Mode selects a run's methodology: which paper section's setup the
// machine's contexts are fed with.
type Mode int

const (
	// ModeSolo runs one workload to completion on thread 0 — the
	// reference methodology.
	ModeSolo Mode = iota + 1
	// ModeGroup runs a primary on thread 0 while companions restart
	// until it completes (Section 4.1).
	ModeGroup
	// ModeQueue drains a fixed job list with every context (Section 7).
	ModeQueue
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeSolo:
		return "solo"
	case ModeGroup:
		return "group"
	case ModeQueue:
		return "queue"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// RunSpec declares one simulation point: a mode, its workloads, and the
// machine options that build the core.Config. Specs are values — build
// one with Solo, Group or Queue, derive variants with With — and are
// validated when run (or eagerly via Validate).
type RunSpec struct {
	mode      Mode
	workloads []*workload.Workload
	// opts is consumed into the plan before any key is computed; every
	// option's effect lands in a field appendMachineBin and
	// appendMachineKey already encode.
	//mtvlint:allow keycomplete -- options are resolved into plan/cfg fields that the key functions encode
	opts []Option
}

// Solo declares a reference run: w alone on thread 0, to completion.
func Solo(w *workload.Workload, opts ...Option) RunSpec {
	return RunSpec{mode: ModeSolo, workloads: []*workload.Workload{w}, opts: opts}
}

// Group declares a Section 4.1 grouped run: primary on thread 0,
// companions restarting until it completes. When WithContexts is not
// given, the context count defaults to 1+len(companions).
func Group(primary *workload.Workload, companions []*workload.Workload, opts ...Option) RunSpec {
	ws := append([]*workload.Workload{primary}, companions...)
	return RunSpec{mode: ModeGroup, workloads: ws, opts: opts}
}

// Queue declares a Section 7 job-queue run: ws in order, drained by all
// contexts, ending when every job is done.
func Queue(ws []*workload.Workload, opts ...Option) RunSpec {
	return RunSpec{mode: ModeQueue, workloads: append([]*workload.Workload(nil), ws...), opts: opts}
}

// With returns a copy of the spec with more options appended; later
// options win.
func (s RunSpec) With(opts ...Option) RunSpec {
	s.opts = append(append([]Option(nil), s.opts...), opts...)
	return s
}

// Mode returns the spec's methodology.
func (s RunSpec) Mode() Mode { return s.mode }

// Validate reports every diagnosable problem with the spec — invalid
// options, invalid option combinations, and mode-level inconsistencies —
// without running anything.
func (s RunSpec) Validate() error {
	_, err := s.prepare()
	return err
}

// build accumulates the machine configuration as options apply.
type build struct {
	cfg core.Config
	// contextsSet records an explicit WithContexts/WithConfig so group
	// mode can distinguish "defaulted" from "mismatched".
	contextsSet bool
	// Policy identity for the memo key: named policies share by name;
	// custom instances share by session-registry identity, which is
	// conservative (no cross-instance sharing) but never wrong.
	policyName string
	policyInst sched.Policy
	stop       core.Stop
	observers  []core.Observer
	spans      bool // WithSpans: capture spans into Report.Spans
	errs       []error
}

// Option configures one aspect of a run's machine or stop rule. Options
// apply in order; later options win. An invalid option records a
// diagnostic that surfaces — joined with every other diagnostic — when
// the spec is validated or run. An option takes the build by value and
// returns it: no pointer into prepare's frame reaches a callee escape
// analysis cannot see, so the build stays on prepare's stack.
type Option func(build) build

func (b *build) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// WithConfig replaces the base configuration wholesale, and turns off
// an earlier WithSpans. Options given after it still apply on top. Most
// callers should prefer the granular options; WithConfig exists for
// knobs without a dedicated option (DisableFastForward, custom
// latency tables).
func WithConfig(cfg core.Config) Option {
	return func(b build) build {
		b.cfg = cfg
		b.spans = false
		b.contextsSet = true
		b.policyName, b.policyInst = "", cfg.Policy
		if len(cfg.Observers) > 0 {
			b.observers = append(b.observers, cfg.Observers...)
			b.cfg.Observers = nil
		}
		return b
	}
}

// WithContexts sets the number of hardware contexts. The upper bound is
// the machine shape's MaxContexts (8 on the reference architecture),
// checked when the spec validates — after every option, including a
// later WithArch, has applied.
func WithContexts(n int) Option {
	return func(b build) build {
		if n < 1 {
			b.errf("session: contexts %d out of range (need at least 1)", n)
			return b
		}
		b.cfg.Contexts = n
		b.contextsSet = true
		return b
	}
}

// WithArch replaces the whole machine shape — register file, functional
// unit mix, latency table and memory system — with the given spec
// (usually a preset: arch.ConvexC3400, arch.VP2000, arch.CrayLikePorts,
// or a modified copy). Granular options given after it still apply on
// top, so WithArch(spec) + WithMemLatency(80) is the spec at 80-cycle
// memory.
func WithArch(spec arch.Spec) Option {
	return func(b build) build {
		if spec.IsZero() {
			b.errf("session: zero arch spec (start from a preset like arch.ConvexC3400)")
			return b
		}
		b.cfg.Spec = spec
		return b
	}
}

// WithRegFile sets the vector register file organization (count, length,
// banking, ports, partitioning) while keeping the rest of the machine
// shape. Workloads must be built for the same compiler-visible
// organization (BuildWorkloadsRegFile / vcomp.Options.RegFile) when it
// changes the register count or length.
func WithRegFile(rf arch.RegFile) Option {
	return func(b build) build {
		if rf.IsZero() {
			b.errf("session: zero register-file organization")
			return b
		}
		b.cfg.RegFile = rf
		return b
	}
}

// WithVLen sets the vector register length in elements (the Section 8
// study's central register-file axis), keeping the rest of the
// organization.
func WithVLen(n int) Option {
	return func(b build) build {
		if n < 1 {
			b.errf("session: vector length %d < 1", n)
			return b
		}
		b.cfg.RegFile = b.cfg.RegFile.Normalize()
		b.cfg.VLen = n
		return b
	}
}

// WithBankPorts sets each register bank's read and write ports into the
// crossbars (the reference machine has 2 read, 1 write).
func WithBankPorts(read, write int) Option {
	return func(b build) build {
		if read < 1 || write < 1 {
			b.errf("session: bank ports need at least 1 read and 1 write, have %d/%d", read, write)
			return b
		}
		b.cfg.RegFile = b.cfg.RegFile.Normalize()
		b.cfg.BankReadPorts, b.cfg.BankWritePorts = read, write
		return b
	}
}

// WithMemLatency sets the main-memory latency in cycles (the paper's
// central parameter; it varies 1..100).
func WithMemLatency(cycles int) Option {
	return func(b build) build {
		if cycles < 1 {
			b.errf("session: memory latency %d < 1", cycles)
			return b
		}
		b.cfg.Mem.Latency = cycles
		return b
	}
}

// WithScalarLatency sets the scalar-access completion latency (the
// Convex scalar cache); 0 means "same as main memory".
func WithScalarLatency(cycles int) Option {
	return func(b build) build {
		if cycles < 0 {
			b.errf("session: negative scalar latency %d", cycles)
			return b
		}
		b.cfg.Mem.ScalarLatency = cycles
		return b
	}
}

// WithXbar sets both register-file crossbar latencies (Section 8 charges
// the multithreaded machine 3 cycles instead of the reference 2).
func WithXbar(cycles int) Option {
	return func(b build) build {
		if cycles < 1 {
			b.errf("session: crossbar latency %d < 1", cycles)
			return b
		}
		b.cfg.Lat.ReadXbar, b.cfg.Lat.WriteXbar = cycles, cycles
		return b
	}
}

// WithPolicy selects a thread-switch policy by name (sched.Names).
func WithPolicy(name string) Option {
	return func(b build) build {
		p := sched.ByName(name)
		if p == nil {
			b.errf("session: unknown policy %q (have %s)", name, strings.Join(sched.Names(), ", "))
			return b
		}
		b.cfg.Policy = p
		b.policyName, b.policyInst = name, nil
		return b
	}
}

// WithPolicyInstance installs a custom policy value. The machine clones
// it per run (sched.Policy.Clone), so the instance may be shared across
// specs. The policy is consulted only while two or more threads have
// work; a lone thread is dispatched without calling Pick.
func WithPolicyInstance(p sched.Policy) Option {
	return func(b build) build {
		if p == nil {
			b.errf("session: nil policy instance")
			return b
		}
		b.cfg.Policy = p
		b.policyName, b.policyInst = "", p
		return b
	}
}

// WithDualScalar toggles the Fujitsu VP2000 dual-scalar mode of
// Section 9 (requires exactly 2 contexts).
func WithDualScalar(enabled bool) Option {
	return func(b build) build {
		b.cfg.DualScalar = enabled
		return b
	}
}

// WithIssueWidth sets the decode slots per cycle (the paper's
// future-work simultaneous-issue study; 1 is the paper's machine).
func WithIssueWidth(n int) Option {
	return func(b build) build {
		if n < 1 {
			b.errf("session: issue width %d < 1", n)
			return b
		}
		b.cfg.IssueWidth = n
		return b
	}
}

// WithMemPorts replaces the single general-purpose address port with
// dedicated load and store ports — the Cray-like extension of
// Section 10. Like the ablation it reproduces, it also disables the
// scalar cache (scalar accesses pay full memory latency); banking set
// by WithMemBanks is preserved. Apply after WithMemLatency.
func WithMemPorts(load, store int) Option {
	return func(b build) build {
		if load < 1 || store < 1 {
			b.errf("session: dedicated ports need at least 1 load and 1 store, have %d/%d", load, store)
			return b
		}
		b.cfg.Mem = memsys.Config{
			Latency:    b.cfg.Mem.Latency,
			LoadPorts:  load,
			StorePorts: store,
			Banks:      b.cfg.Mem.Banks,
			BankBusy:   b.cfg.Mem.BankBusy,
		}
		return b
	}
}

// WithMemBanks enables the banked-conflict memory model: banks must be a
// power of two, busy is the bank recovery time in cycles. busy must be
// at least 1 — a zero recovery time would make the conflict model a
// silent no-op (memsys.Config.Validate rejects that shape too); busy 1
// is the explicit "banked but conflict-free" spelling.
func WithMemBanks(banks, busy int) Option {
	return func(b build) build {
		if banks < 1 {
			b.errf("session: bank count %d < 1 (use the zero config, not WithMemBanks, for conflict-free memory)", banks)
			return b
		}
		if busy < 1 {
			b.errf("session: bank busy time %d < 1 would silently disable the %d-bank conflict model (busy 1 means a bank recovers by the next cycle)", busy, banks)
			return b
		}
		b.cfg.Mem.Banks, b.cfg.Mem.BankBusy = banks, busy
		return b
	}
}

// WithSpans enables Figure 9 execution-profile capture into
// Report.Spans (a built-in SpanRecorder observer; unlike WithObserver
// the captured spans are part of the memoized Report).
func WithSpans() Option {
	return func(b build) build {
		b.spans = true
		return b
	}
}

// WithObserver attaches streaming run observers (progress, thread
// switches, spans). Observation is a side effect, so a spec carrying
// observers is never served from the session's memo cache — every Run
// simulates.
func WithObserver(obs ...core.Observer) Option {
	return func(b build) build {
		for _, o := range obs {
			if o == nil {
				b.errf("session: nil observer")
				return b
			}
		}
		b.observers = append(b.observers, obs...)
		return b
	}
}

// WithProgressStride sets the simulated-cycle interval between
// Observer.Progress events; 0 selects core.DefaultProgressStride.
func WithProgressStride(cycles core.Cycle) Option {
	return func(b build) build {
		if cycles < 0 {
			b.errf("session: negative progress stride %d", cycles)
			return b
		}
		b.cfg.ProgressStride = cycles
		return b
	}
}

// WithMaxCycles bounds the run to the given cycle count (a safety stop;
// 0 disables).
func WithMaxCycles(n core.Cycle) Option {
	return func(b build) build {
		if n < 0 {
			b.errf("session: negative cycle bound %d", n)
			return b
		}
		b.stop.MaxCycles = n
		return b
	}
}

// WithMaxThread0Insts stops the run once thread 0 has dispatched n
// dynamic instructions — the partial reference runs of the Section 4.1
// speedup formula. 0 disables.
func WithMaxThread0Insts(n int64) Option {
	return func(b build) build {
		if n < 0 {
			b.errf("session: negative instruction bound %d", n)
			return b
		}
		b.stop.MaxThread0Insts = n
		return b
	}
}

// plan is a validated, runnable form of a RunSpec.
type plan struct {
	cfg  core.Config
	stop core.Stop
	// memoizable is false when the run carries observers — observation
	// is a side effect a cache hit would skip.
	memoizable bool
	// spans attaches a SpanRecorder whose spans become Report.Spans.
	spans bool
	// Policy identity for the memo key (see build).
	policyName string
	policyInst sched.Policy
}

// defaultConfig is the base configuration options apply to: one
// resolved reference shape, copied per spec instead of rebuilt.
var defaultConfig = core.DefaultConfig()

// prepare applies the options to a copy of defaultConfig, normalizes
// the result in place and runs every validation layer, joining all
// diagnostics so a caller sees the full list at once. A valid spec
// prepares without allocating: the build and the plan stay on the
// caller's stack. Keys are computed from the plan afterwards.
func (s RunSpec) prepare() (plan, error) {
	b := build{cfg: defaultConfig}
	for _, opt := range s.opts {
		if opt == nil {
			b.errf("session: nil option")
			continue
		}
		b = opt(b)
	}

	switch s.mode {
	case ModeSolo:
		if len(s.workloads) != 1 || s.workloads[0] == nil {
			b.errf("session: solo mode needs exactly one workload")
		}
	case ModeGroup:
		if len(s.workloads) == 0 || s.workloads[0] == nil {
			b.errf("session: group mode needs a primary workload")
		}
		for i, w := range s.workloads[1:] {
			if w == nil {
				b.errf("session: group mode: companion %d is nil", i)
			}
		}
		if !b.contextsSet {
			b.cfg.Contexts = len(s.workloads)
		} else if b.cfg.Contexts != len(s.workloads) {
			b.errf("session: group mode: %d contexts for %d programs (leave WithContexts unset to default)",
				b.cfg.Contexts, len(s.workloads))
		}
		b.stop.Thread0Complete = true
	case ModeQueue:
		if len(s.workloads) == 0 {
			b.errf("session: queue mode needs at least one workload")
		}
		for i, w := range s.workloads {
			if w == nil {
				b.errf("session: queue mode: workload %d is nil", i)
			}
		}
	default:
		b.errf("session: spec has no mode; build it with Solo, Group or Queue")
	}

	// Normalize before validating and keying: a defaulted shape and its
	// explicit arch.ConvexC3400() spelling are the same machine, so they
	// must share a memo entry.
	b.cfg.Normalize()
	if len(b.errs) == 0 {
		if err := b.cfg.Validate(); err != nil {
			b.errs = append(b.errs, err)
		}
	}
	if len(b.errs) > 0 {
		return plan{}, errors.Join(b.errs...)
	}

	b.cfg.Observers = b.observers
	return plan{
		cfg:        b.cfg,
		stop:       b.stop,
		memoizable: len(b.observers) == 0,
		spans:      b.spans,
		policyName: b.policyName,
		policyInst: b.policyInst,
	}, nil
}

// memoKeyCap sizes memoKey's stack buffer: a single-workload point
// encodes in under 64 bytes, and a longer key only moves the buffer to
// the heap.
const memoKeyCap = 192

// memoKey encodes everything a run's Report depends on in a fixed
// binary layout: the mode, the artifact identities, the policy identity
// and the machine tail (appendMachineBin). The key never leaves the
// process, so it needs only to be injective, not readable or stable
// across builds: integers are varints, which no varint is a prefix of;
// the workload list and the policy name carry their lengths; and a
// kind byte leads the policy. Workloads and custom policy instances are
// identified by the session's identity table, which retains the
// artifact, so a recycled allocation can never collide with a cached
// key: two specs share a simulation only when they share the built
// artifacts — exactly the invariant the experiment Env maintains. The
// table's lock is taken once per key.
func (s RunSpec) memoKey(p *plan, ids *idTable) string {
	var buf [memoKeyCap]byte
	b := binary.AppendUvarint(buf[:0], uint64(s.mode))
	ids.mu.Lock()
	b = binary.AppendUvarint(b, uint64(len(s.workloads)))
	for _, w := range s.workloads {
		b = binary.AppendUvarint(b, ids.id(w))
	}
	switch {
	case p.policyName != "":
		b = append(b, 1)
		b = binary.AppendUvarint(b, uint64(len(p.policyName)))
		b = append(b, p.policyName...)
	case p.policyInst != nil:
		b = append(b, 2)
		b = binary.AppendUvarint(b, ids.id(p.policyInst))
	default:
		b = append(b, 0)
	}
	ids.mu.Unlock()
	b = appendMachineBin(b, p)
	return string(b)
}

// appendMachineBin is appendMachineKey's binary twin for the memo key:
// the same fields, each a varint, with the partition bit and the four
// flags packed into one byte. Every field has a fixed place, so the
// tail is injective on its own.
func appendMachineBin(b []byte, p *plan) []byte {
	b = binary.AppendVarint(b, int64(p.cfg.Contexts))
	rf := &p.cfg.RegFile
	b = binary.AppendVarint(b, int64(rf.VRegs))
	b = binary.AppendVarint(b, int64(rf.VLen))
	b = binary.AppendVarint(b, int64(rf.VRegsPerBank))
	b = binary.AppendVarint(b, int64(rf.BankReadPorts))
	b = binary.AppendVarint(b, int64(rf.BankWritePorts))
	b = binary.AppendVarint(b, int64(p.cfg.RestrictedFUs))
	b = binary.AppendVarint(b, int64(p.cfg.GeneralFUs))
	b = binary.AppendVarint(b, int64(p.cfg.MaxContexts))
	lat := &p.cfg.Lat
	for _, v := range lat.ScalarInt {
		b = binary.AppendVarint(b, int64(v))
	}
	for _, v := range lat.ScalarFP {
		b = binary.AppendVarint(b, int64(v))
	}
	for _, v := range lat.Vector {
		b = binary.AppendVarint(b, int64(v))
	}
	b = binary.AppendVarint(b, int64(lat.VectorStartup))
	b = binary.AppendVarint(b, int64(lat.ReadXbar))
	b = binary.AppendVarint(b, int64(lat.WriteXbar))
	mem := &p.cfg.Mem
	b = binary.AppendVarint(b, int64(mem.Latency))
	b = binary.AppendVarint(b, int64(mem.ScalarLatency))
	b = binary.AppendVarint(b, int64(mem.GeneralPorts))
	b = binary.AppendVarint(b, int64(mem.LoadPorts))
	b = binary.AppendVarint(b, int64(mem.StorePorts))
	b = binary.AppendVarint(b, int64(mem.Banks))
	b = binary.AppendVarint(b, int64(mem.BankBusy))
	var flags byte
	for i, f := range [...]bool{rf.PartitionPerContext, p.cfg.DualScalar, p.spans, p.cfg.DisableFastForward, p.stop.Thread0Complete} {
		if f {
			flags |= 1 << i
		}
	}
	b = append(b, flags)
	b = binary.AppendVarint(b, int64(p.cfg.IssueWidth))
	b = binary.AppendVarint(b, p.stop.MaxThread0Insts)
	return binary.AppendVarint(b, p.stop.MaxCycles)
}

// persistKeyCap is the stack buffer a persist key is built in: it holds
// every key of the experiment suite, the longest of which (a queue of
// all ten Table 3 programs) is about 500 bytes, so building one
// allocates only the returned string.
const persistKeyCap = 1024

// persistKey canonically encodes the spec for the on-disk result store,
// where keys must be stable across processes: run artifacts are
// identified by build provenance (catalog program, scale, compiler
// options) instead of in-memory identity. ok is false when some
// artifact has no such stable identity — custom policy instances, or
// workloads outside the catalog (user-compiled kernels, imported traces,
// hand-assembled workloads) — in which case the run is memoized in
// memory only, never persisted.
func (s RunSpec) persistKey(p *plan) (string, bool) {
	if p.policyInst != nil {
		return "", false
	}
	b := make([]byte, 0, persistKeyCap)
	b = append(b, "mode="...)
	b = appendNum(b, int64(s.mode))
	b = append(b, "|ws="...)
	for _, w := range s.workloads {
		if w == nil {
			return "", false
		}
		id, ok := w.PersistID()
		if !ok {
			return "", false
		}
		b = append(b, id...)
		b = append(b, ',')
	}
	b = append(b, "|policy="...)
	if p.policyName != "" {
		b = append(b, "name:"...)
		b = append(b, p.policyName...)
	} else {
		b = append(b, "default"...)
	}
	b = appendMachineKey(b, p)
	return string(b), true
}

// appendNum is the persist key's integer encoding.
func appendNum(b []byte, v int64) []byte {
	b = strconv.AppendInt(b, v, 10)
	return append(b, ',')
}

// appendMachineKey encodes the machine-shape and stop-rule dimensions a
// run's Report depends on — contexts, the full register-file
// organization (arch/VLen dims), FU mix, latency tables, memory system,
// flags, issue width and stop bounds — as the persist key's text tail,
// whose bytes address every stored record. appendMachineBin encodes the
// same fields for the memo key; keycomplete checks each against the
// machine shape.
func appendMachineKey(b []byte, p *plan) []byte {
	b = append(b, "|ctx="...)
	b = appendNum(b, int64(p.cfg.Contexts))
	b = append(b, "|rf="...)
	rf := &p.cfg.RegFile
	b = appendNum(b, int64(rf.VRegs))
	b = appendNum(b, int64(rf.VLen))
	b = appendNum(b, int64(rf.VRegsPerBank))
	b = appendNum(b, int64(rf.BankReadPorts))
	b = appendNum(b, int64(rf.BankWritePorts))
	if rf.PartitionPerContext {
		b = append(b, 'p')
	}
	b = append(b, "|fu="...)
	b = appendNum(b, int64(p.cfg.RestrictedFUs))
	b = appendNum(b, int64(p.cfg.GeneralFUs))
	b = appendNum(b, int64(p.cfg.MaxContexts))
	b = append(b, "|lat="...)
	lat := &p.cfg.Lat
	for _, tab := range [][]int{lat.ScalarInt[:], lat.ScalarFP[:], lat.Vector[:]} {
		for _, v := range tab {
			b = appendNum(b, int64(v))
		}
		b = append(b, ';')
	}
	b = appendNum(b, int64(lat.VectorStartup))
	b = appendNum(b, int64(lat.ReadXbar))
	b = appendNum(b, int64(lat.WriteXbar))
	b = append(b, "|mem="...)
	mem := &p.cfg.Mem
	b = appendNum(b, int64(mem.Latency))
	b = appendNum(b, int64(mem.ScalarLatency))
	b = appendNum(b, int64(mem.GeneralPorts))
	b = appendNum(b, int64(mem.LoadPorts))
	b = appendNum(b, int64(mem.StorePorts))
	b = appendNum(b, int64(mem.Banks))
	b = appendNum(b, int64(mem.BankBusy))
	b = append(b, "|flags="...)
	for _, f := range [...]bool{p.cfg.DualScalar, p.spans, p.cfg.DisableFastForward, p.stop.Thread0Complete} {
		if f {
			b = append(b, 't')
		} else {
			b = append(b, 'f')
		}
	}
	b = append(b, "|iw="...)
	b = appendNum(b, int64(p.cfg.IssueWidth))
	b = append(b, "|stop="...)
	b = appendNum(b, p.stop.MaxThread0Insts)
	b = appendNum(b, p.stop.MaxCycles)
	return b
}
