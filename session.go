package mtvec

import (
	"mtvec/internal/core"
	"mtvec/internal/runner"
	"mtvec/internal/session"
	"mtvec/internal/store"
)

// Unified run API: Session + RunSpec + functional options.
//
// A Session is the one entry point for every simulation methodology:
//
//	ses := mtvec.NewSession()
//	rep, err := ses.Run(ctx, mtvec.Solo(w, mtvec.WithMemLatency(100)))
//
// Sessions memoize: identical memoizable specs simulate exactly once,
// concurrent requesters share the result, and RunAll fans sweeps out
// over a bounded worker gate with deterministic collection order.

// Session executes RunSpecs with memoization, a global concurrency
// bound, and context cancellation. See internal/session for the full
// concurrency and determinism contract.
type Session = session.Session

// SessionOption configures NewSession.
type SessionOption = session.SessionOption

// RunSpec declares one simulation point: mode, workloads, and machine
// options. Build one with Solo, Group or Queue.
type RunSpec = session.RunSpec

// RunMode is a RunSpec's methodology.
type RunMode = session.Mode

// Run modes.
const (
	ModeSolo  = session.ModeSolo
	ModeGroup = session.ModeGroup
	ModeQueue = session.ModeQueue
)

// RunOption configures a RunSpec's machine or stop rule.
type RunOption = session.Option

// Observer receives streaming run events: coarse-stride progress,
// decode thread switches, and program spans (the Figure 9 events).
type Observer = core.Observer

// SpanRecorder is the built-in execution-profile observer.
type SpanRecorder = core.SpanRecorder

// ProgressFunc adapts a function to a progress-only Observer.
type ProgressFunc = core.ProgressFunc

// SwitchCounter is a built-in observer counting decode thread switches.
type SwitchCounter = core.SwitchCounter

// Store is a persistent, content-addressed on-disk result store — the
// second cache tier under a Session's in-memory memo. Records carry
// integrity hashes and a format version; corrupt or stale entries are
// recomputed, never trusted, and cross-process single-flight (lock
// files) lets any number of processes share one store directory while
// simulating each distinct point once. See docs/API.md.
type Store = store.Dir

// StoreBackend is the interface behind a Session's persistent tier,
// implemented by the on-disk Store.
type StoreBackend = store.Backend

// StoreStats is a snapshot of a backend's hit/miss/write/corrupt
// counters.
type StoreStats = store.Stats

// StoreOptions tunes an on-disk store (the lock waiters' poll
// interval); the zero value selects every default.
type StoreOptions = store.Options

// OpenStore creates (if needed) and opens the result store rooted at
// dir. Attach it with WithStore, Session.SetStore or Env.SetStore.
func OpenStore(dir string) (*Store, error) { return store.Open(dir) }

// OpenStoreOptions is OpenStore with explicit tuning.
func OpenStoreOptions(dir string, o StoreOptions) (*Store, error) {
	return store.OpenOptions(dir, o)
}

// RunSource names the cache tier that answered a Session.RunTracked
// call: a fresh simulation, the in-memory memo, or the persistent
// store.
type RunSource = session.Source

// Run sources.
const (
	RunFromSim   = session.SourceSim
	RunFromMemo  = session.SourceMemo
	RunFromStore = session.SourceStore
)

// NewSession creates a run session. Memoization is on by default
// (disable with WithoutMemo); the simulation concurrency bound defaults
// to runtime.NumCPU() (change with WithJobs or Session.SetJobs).
func NewSession(opts ...SessionOption) *Session { return session.New(opts...) }

// WithJobs bounds a new session's concurrent simulations; n <= 0
// selects runtime.NumCPU().
func WithJobs(n int) SessionOption { return session.WithJobs(n) }

// WithoutMemo disables a new session's run cache: every Run simulates.
func WithoutMemo() SessionOption { return session.WithoutMemo() }

// RunResult is one Session.RunAllTracked point: the Report (nil on
// error), the cache tier that answered, the point's wall time inside
// the call — including any wait for a gate slot — and the point's
// error.
type RunResult = session.Result

// WithStore attaches a persistent result backend to a new session; runs
// with stable content identities are then served from and written
// through to it.
func WithStore(st StoreBackend) SessionOption { return session.WithStore(st) }

// Solo declares a reference run: w alone on thread 0, to completion.
func Solo(w *Workload, opts ...RunOption) RunSpec { return session.Solo(w, opts...) }

// Group declares a Section 4.1 grouped run: primary on thread 0 while
// companions restart until it completes. Contexts default to
// 1+len(companions) when WithContexts is not given.
func Group(primary *Workload, companions []*Workload, opts ...RunOption) RunSpec {
	return session.Group(primary, companions, opts...)
}

// Queue declares a Section 7 job-queue run: ws in order, drained by all
// contexts.
func Queue(ws []*Workload, opts ...RunOption) RunSpec { return session.Queue(ws, opts...) }

// Machine options. Options apply in order (later wins) and validate
// eagerly: every invalid option or combination surfaces as one joined
// diagnostic error from Session.Run or RunSpec.Validate.

// WithConfig replaces the spec's base configuration wholesale, and
// turns off an earlier WithSpans; options given after it still apply on
// top.
func WithConfig(cfg Config) RunOption { return session.WithConfig(cfg) }

// WithContexts sets the hardware context count (the upper bound is the
// machine shape's MaxContexts; 8 on the reference architecture).
func WithContexts(n int) RunOption { return session.WithContexts(n) }

// WithArch replaces the whole machine shape with the given spec (a
// preset like ArchConvexC3400/ArchVP2000/ArchCrayLikePorts, or a
// modified copy). Granular options given after it still apply on top.
func WithArch(spec ArchSpec) RunOption { return session.WithArch(spec) }

// WithRegFile sets the vector register file organization; build the
// workloads for the same organization (BuildWorkloadsRegFile) when it
// changes the register count or length.
func WithRegFile(rf RegFile) RunOption { return session.WithRegFile(rf) }

// WithVLen sets the vector register length in elements (the Section 8
// register-file study's central axis).
func WithVLen(n int) RunOption { return session.WithVLen(n) }

// WithBankPorts sets each register bank's read and write ports into the
// crossbars (the reference machine has 2 read, 1 write).
func WithBankPorts(read, write int) RunOption { return session.WithBankPorts(read, write) }

// WithMemLatency sets the main-memory latency in cycles.
func WithMemLatency(cycles int) RunOption { return session.WithMemLatency(cycles) }

// WithScalarLatency sets the scalar-cache latency; 0 disables the cache.
func WithScalarLatency(cycles int) RunOption { return session.WithScalarLatency(cycles) }

// WithXbar sets both register-file crossbar latencies (Section 8).
func WithXbar(cycles int) RunOption { return session.WithXbar(cycles) }

// WithPolicy selects a thread-switch policy by name (PolicyNames).
func WithPolicy(name string) RunOption { return session.WithPolicy(name) }

// WithPolicyInstance installs a custom policy value; machines clone it
// per run, so the instance may be shared across specs. The policy is
// consulted only when it has a choice: while two or more threads have
// work. A lone thread is dispatched without calling Pick, so a Solo run
// never calls it.
func WithPolicyInstance(p Policy) RunOption { return session.WithPolicyInstance(p) }

// WithDualScalar toggles the Section 9 Fujitsu VP2000 dual-scalar mode
// (requires exactly 2 contexts).
func WithDualScalar(enabled bool) RunOption { return session.WithDualScalar(enabled) }

// WithIssueWidth sets decode slots per cycle (1 is the paper's machine).
func WithIssueWidth(n int) RunOption { return session.WithIssueWidth(n) }

// WithMemPorts switches to dedicated load/store address ports (the
// Cray-like Section 10 extension; also disables the scalar cache, like
// the ablation it reproduces). Apply after WithMemLatency.
func WithMemPorts(load, store int) RunOption { return session.WithMemPorts(load, store) }

// WithMemBanks enables the banked-conflict memory model.
func WithMemBanks(banks, busy int) RunOption { return session.WithMemBanks(banks, busy) }

// WithSpans captures the Figure 9 execution profile into Report.Spans.
func WithSpans() RunOption { return session.WithSpans() }

// WithObserver attaches streaming observers; a spec carrying observers
// is never served from the memo cache.
func WithObserver(obs ...Observer) RunOption { return session.WithObserver(obs...) }

// WithProgressStride sets the simulated-cycle interval between
// Observer.Progress events; 0 selects the default (65536 cycles).
func WithProgressStride(cycles int64) RunOption { return session.WithProgressStride(cycles) }

// WithMaxCycles bounds the run's cycle count (safety stop; 0 disables).
func WithMaxCycles(n int64) RunOption { return session.WithMaxCycles(n) }

// WithMaxThread0Insts stops once thread 0 has dispatched n dynamic
// instructions (the Section 4.1 partial reference runs; 0 disables).
func WithMaxThread0Insts(n int64) RunOption { return session.WithMaxThread0Insts(n) }

// IsContextErr reports whether err came from a cancelled or expired
// context — the one error class Session.Run never memoizes. Useful for
// distinguishing "the run was aborted" from "the spec or simulation
// failed".
func IsContextErr(err error) bool { return runner.IsContextErr(err) }
