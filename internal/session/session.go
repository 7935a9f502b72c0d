// Package session is the unified run engine behind the public API: one
// composable entry point for every simulation methodology the paper
// uses (solo reference runs, Section 4.1 grouped runs and Section 7 job
// queues), over any workload: a catalog build, an imported trace or a
// user-compiled kernel.
//
// A Session owns a concurrency-safe, singleflight-memoized run cache —
// the generalization of the experiment Env's per-table memo maps to any
// run request — plus the worker gate that bounds how many simulations
// execute at once across every layer of a nested orchestration. A
// RunSpec declares a simulation point (mode, workloads, machine
// options); Session.Run simulates it under a context.Context, and
// Session.RunAll fans a sweep of points out over the gate with
// deterministic collection order.
//
// # Concurrency and determinism
//
// All Session methods are safe for concurrent use. Each distinct
// memoizable spec simulates exactly once per session no matter how many
// goroutines request it, and concurrent requesters share the same
// *stats.Report. Because every simulation is a pure function of its
// spec, results are byte-identical at any jobs value, including 1.
//
// # Cancellation
//
// Run honors ctx cancellation and deadlines: a cancelled run returns
// ctx.Err() and never a partial Report. A memoized run joined by
// several callers executes under the first caller's context; if that
// run is cancelled the session forgets the cache entry, and waiters
// whose own context is still live retry it, so one caller's deadline
// never poisons the cache for the others.
//
// # Persistence
//
// SetStore (or WithStore) attaches an on-disk result store as a second
// cache tier below the in-memory memo: a run whose spec has a stable
// content identity (catalog workloads, named policies — see
// RunSpec.persistKey) is looked up on disk before simulating and
// written through after. The store obeys the same cancellation rule —
// a cancelled run is never persisted — and adds cross-process
// single-flight, so any number of processes sharing one store
// directory simulate each distinct point once between them. Unlike the
// memo tier, the store also serves observer-carrying specs: a
// persisted result returns immediately and the observers see no
// events, because no simulation runs (RunTracked reports which tier
// answered).
package session

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mtvec/internal/core"
	"mtvec/internal/prog"
	"mtvec/internal/runner"
	"mtvec/internal/stats"
	"mtvec/internal/store"
)

// Session executes RunSpecs: it memoizes results, bounds concurrency,
// and plumbs cancellation into the simulator. The zero value is not
// usable; construct with New.
type Session struct {
	jobs atomic.Int64 // concurrency bound, mirrored into gate
	sims atomic.Int64 // machine runs actually executed
	memo bool

	// st boxes the optional persistent second cache tier (nil box or nil
	// backend = none); storeHits counts runs this session served from it.
	// The pointer-to-box indirection exists because atomic.Value cannot
	// swap between distinct concrete Backend types.
	st        atomic.Pointer[backendBox]
	storeHits atomic.Int64

	// gate admits at most Jobs() concurrent leaf sections (machine runs
	// and, via Do, workload builds). Orchestration layers above may
	// spawn freely; parked goroutines hold no slot, so the bound holds
	// across nested fan-outs.
	gate *runner.Gate
	runs runner.Cache[string, *stats.Report]

	// ids assigns session-stable identities to run artifacts for memo
	// keys.
	ids idTable
}

// idTable assigns session-stable identities to run artifacts
// (workloads and policy instances). Retaining the reference here is
// deliberate: the artifact's address can never be recycled by the GC
// into a colliding key while a cached result still depends on it. A
// key encoder holds mu across all of its lookups.
type idTable struct {
	mu sync.Mutex
	m  map[any]uint64
}

// id returns x's identity, assigning the next one on first sight. The
// caller holds t.mu.
func (t *idTable) id(x any) uint64 {
	if t.m == nil {
		t.m = make(map[any]uint64)
	}
	id, ok := t.m[x]
	if !ok {
		id = uint64(len(t.m)) + 1
		t.m[x] = id
	}
	return id
}

// SessionOption configures a new Session.
type SessionOption func(*Session)

// WithJobs bounds how many simulations may execute concurrently;
// n <= 0 selects runtime.NumCPU(). Results never depend on the setting.
func WithJobs(n int) SessionOption {
	return func(s *Session) { s.SetJobs(n) }
}

// WithoutMemo disables the run cache: every Run simulates, and repeated
// identical specs return fresh Reports. Benchmarks that time the
// simulation itself use a memo-less session. An attached store is
// unaffected — persistence is orthogonal to the in-memory memo tier.
func WithoutMemo() SessionOption {
	return func(s *Session) { s.memo = false }
}

// WithoutBatching does nothing: RunAll resolves every point through
// the per-point path, so there is no batching to turn off. It remains
// only because repobench's reference checks still call it.
//
// Deprecated: RunAll no longer batches; the option is a no-op.
func WithoutBatching() SessionOption { return func(*Session) {} }

// backendBox wraps a store.Backend for atomic swapping.
type backendBox struct{ b store.Backend }

// WithStore attaches a persistent result backend to a new session (see
// Session.SetStore).
func WithStore(st store.Backend) SessionOption {
	return func(s *Session) { s.SetStore(st) }
}

// New creates a session. Memoization is on by default; the simulation
// concurrency bound defaults to runtime.NumCPU().
func New(opts ...SessionOption) *Session {
	s := &Session{gate: runner.NewGate(0), memo: true}
	s.SetJobs(0)
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// SetJobs changes the simulation concurrency bound; n <= 0 selects
// runtime.NumCPU().
func (s *Session) SetJobs(n int) {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	s.jobs.Store(int64(n))
	s.gate.SetLimit(n)
}

// Jobs returns the session's simulation concurrency bound.
func (s *Session) Jobs() int { return int(s.jobs.Load()) }

// Simulations returns how many machine runs this session has executed —
// cache misses, not requests; the quantity memoization exists to bound.
func (s *Session) Simulations() int64 { return s.sims.Load() }

// SetStore attaches (or, with nil, detaches) a persistent result
// backend: stable specs are served from it when a prior process
// simulated them and written through when this one does. Any
// store.Backend works: an on-disk store.Dir, or a wrapper around one.
// Safe to call concurrently with runs; in-flight runs keep the backend
// they started with.
func (s *Session) SetStore(st store.Backend) {
	if st == nil {
		s.st.Store(nil)
		return
	}
	s.st.Store(&backendBox{b: st})
}

// Store returns the attached persistent backend, or nil.
func (s *Session) Store() store.Backend { return s.backend() }

// backend unwraps the attached backend (nil when detached).
func (s *Session) backend() store.Backend {
	if box := s.st.Load(); box != nil {
		return box.b
	}
	return nil
}

// StoreHits returns how many runs this session served from the
// persistent store — work some earlier process (or session) paid for.
func (s *Session) StoreHits() int64 { return s.storeHits.Load() }

// Active returns how many gated leaf sections (simulations, Do work)
// are executing right now — instantaneous gate occupancy in [0, Jobs()].
func (s *Session) Active() int { return s.gate.Active() }

// PersistKey returns the spec's store persist key — its process-stable
// content identity — and whether it has one. Specs without stable
// identities (workloads outside the catalog, custom policy instances)
// are not persistable and therefore not shardable by key.
// The cluster coordinator hashes this key to route sweep points.
func (s *Session) PersistKey(spec RunSpec) (string, bool) {
	p, err := spec.prepare()
	if err != nil {
		return "", false
	}
	return spec.persistKey(&p)
}

// Busy returns the cumulative wall time spent inside gated sections
// (simulations and Do work) — the serial-equivalent cost of the
// session's work.
func (s *Session) Busy() time.Duration { return s.gate.Busy() }

// Do runs fn under the session's worker gate, so non-simulation leaf
// work (workload builds, trace generation) counts against the same
// global concurrency bound as the simulations themselves.
func (s *Session) Do(fn func()) { s.gate.Do(fn) }

// Source names the cache tier that answered a run.
type Source int

const (
	// SourceSim: the session executed the simulation.
	SourceSim Source = iota
	// SourceMemo: served from the in-memory memo cache (including
	// joining an in-flight computation).
	SourceMemo
	// SourceStore: served from the persistent store.
	SourceStore
)

// String names the source ("sim", "memo", "store").
func (s Source) String() string {
	switch s {
	case SourceSim:
		return "sim"
	case SourceMemo:
		return "memo"
	case SourceStore:
		return "store"
	}
	return "unknown"
}

// storeHit counts a run served from the persistent store and returns
// its source.
func (s *Session) storeHit() Source {
	s.storeHits.Add(1)
	return SourceStore
}

// Run simulates the spec and returns its Report. Identical memoizable
// specs simulate once and share the result; specs carrying observers
// always simulate unless a persistent store already holds the result.
// A nil ctx means context.Background().
func (s *Session) Run(ctx context.Context, spec RunSpec) (*stats.Report, error) {
	rep, _, err := s.RunTracked(ctx, spec)
	return rep, err
}

// RunTracked is Run plus cache metadata: which tier produced the Report
// — a fresh simulation, the in-memory memo, or the persistent store.
// Waiters that join another caller's in-flight simulation report
// SourceMemo (they did not run it).
func (s *Session) RunTracked(ctx context.Context, spec RunSpec) (*stats.Report, Source, error) {
	return s.runTracked(ctx, spec, false)
}

// runTracked is RunTracked for a single run or, with sweep set, for a
// RunAllTracked point, which resolves a store miss through claimDo
// instead of the backend's Do.
func (s *Session) runTracked(ctx context.Context, spec RunSpec, sweep bool) (*stats.Report, Source, error) {
	p, err := spec.prepare()
	if err != nil {
		return nil, SourceSim, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	key := ""
	if s.memo {
		key = spec.memoKey(&p, &s.ids)
		if p.memoizable {
			// A completed entry answers before any closure is built, so
			// a hit costs the key and one lookup.
			if rep, ok := s.runs.Peek(key); ok {
				return rep, SourceMemo, nil
			}
			return s.runMemo(ctx, spec, p, key, sweep)
		}
	}
	// Memo-less path (session-wide or observer-carrying spec): the store
	// still applies when the spec is persistable. A store hit skips the
	// simulation, so attached observers see no events.
	st := s.backend()
	pkey, persistable := "", false
	if st != nil {
		pkey, persistable = spec.persistKey(&p)
	}
	if persistable {
		if rep, tier := st.Get(pkey); tier.Hit() {
			if s.memo {
				// Promote to the memo tier: repeated requests for a hot
				// point should not re-read and re-verify the disk record
				// every time.
				s.runs.Add(key, rep)
			}
			return rep, s.storeHit(), nil
		}
	}
	rep, err := s.simulate(ctx, spec, p)
	if err == nil {
		if persistable {
			// Write-through is best-effort: a full disk degrades the
			// store to a miss next time, never the run itself.
			_ = st.Put(pkey, rep)
		}
		if s.memo {
			// Reports are observation-invariant, so an observer run's
			// result is exactly what a plain Run of the same spec would
			// memoize — install it (the memo key ignores observers) and
			// let future plain or Cached requests hit. Observer-carrying
			// requests still always reach this branch and simulate.
			s.runs.Add(key, rep)
		}
	}
	return rep, SourceSim, err
}

// runMemo resolves a memoizable point the memo does not hold yet:
// singleflight on its memo key, then the store, then a simulation. The
// store takes a compute closure, which escapes through the Backend
// interface; it captures the spec, not the plan, and prepares the plan
// again if it runs, so a store hit leaves the plan on the stack and
// only a simulation moves one to the heap (prepare allocates nothing).
func (s *Session) runMemo(ctx context.Context, spec RunSpec, p plan, key string, sweep bool) (*stats.Report, Source, error) {
	st := s.backend()
	src := SourceMemo // overwritten iff this caller computes
	rep, err := s.runs.DoContext(ctx, key, func() (*stats.Report, error) {
		if st != nil {
			if key, ok := spec.persistKey(&p); ok {
				compute := func() (*stats.Report, error) {
					p, err := spec.prepare()
					if err != nil {
						return nil, err
					}
					return s.simulate(ctx, spec, p)
				}
				var rep *stats.Report
				var tier store.Tier
				var err error
				if sweep {
					rep, tier, err = claimDo(ctx, st, key, compute)
				} else {
					rep, tier, err = st.Do(ctx, key, compute)
				}
				if tier.Hit() {
					src = s.storeHit()
				} else if err == nil {
					src = SourceSim
				}
				return rep, err
			}
		}
		src = SourceSim
		return s.simulate(ctx, spec, p)
	})
	return rep, src, err
}

// claimDo is Do's protocol spelled out through a lockable backend's
// own methods (store.TryLocker): look the key up, claim its lock
// without waiting, compute and write through. A key whose lock another
// process holds, or a backend that cannot lock, goes through Do, which
// waits for the holder's record. Sweep points take this path, so a
// wrapped backend sees each step: repobench's traced sweep times the
// lookup, lock and write separately. The lock stays advisory: a holder
// that finishes between the lookup and the claim costs a duplicate
// simulation, never a wrong record.
func claimDo(ctx context.Context, st store.Backend, key string, compute func() (*stats.Report, error)) (*stats.Report, store.Tier, error) {
	tl, ok := st.(store.TryLocker)
	if !ok {
		return st.Do(ctx, key, compute)
	}
	if rep, tier := st.Get(key); tier.Hit() {
		return rep, tier, nil
	}
	release := tl.TryLock(key)
	if release == nil {
		return st.Do(ctx, key, compute)
	}
	defer release()
	rep, err := compute()
	if err != nil {
		return nil, store.TierMiss, err
	}
	// Write-through is best-effort, as in Do.
	_ = st.Put(key, rep)
	return rep, store.TierMiss, nil
}

// Cached returns the spec's Report if some cache tier already holds it
// — the in-memory memo (completed entries only; it never blocks on an
// in-flight run) or the persistent store — without ever simulating.
// Because Cached never runs anything, it answers for observer-carrying
// specs too (the memo key ignores observers; no events fire either
// way). Invalid specs report a miss.
func (s *Session) Cached(spec RunSpec) (*stats.Report, Source, bool) {
	p, err := spec.prepare()
	if err != nil {
		return nil, SourceSim, false
	}
	key := ""
	if s.memo {
		key = spec.memoKey(&p, &s.ids)
		if rep, ok := s.runs.Peek(key); ok {
			return rep, SourceMemo, true
		}
	}
	if st := s.backend(); st != nil {
		if pkey, ok := spec.persistKey(&p); ok {
			if rep, tier := st.Get(pkey); tier.Hit() {
				if s.memo {
					// Promote to the memo tier (see RunTracked): the
					// next lookup answers from memory.
					s.runs.Add(key, rep)
				}
				return rep, s.storeHit(), true
			}
		}
	}
	return nil, SourceSim, false
}

// RunAll simulates the specs concurrently under the session's jobs
// bound and returns the Reports pinned to input order — slot i is
// specs[i]'s Report (or nil on its error) no matter in which order the
// points complete or get cancelled. Every spec runs even if an earlier
// one fails; errors are joined in input order, so both results and
// error text are independent of scheduling. Each point resolves as
// RunTracked resolves it (see RunAllTracked).
func (s *Session) RunAll(ctx context.Context, specs ...RunSpec) ([]*stats.Report, error) {
	results := s.RunAllTracked(ctx, specs...)
	reps := make([]*stats.Report, len(results))
	errs := make([]error, len(results))
	for i := range results {
		reps[i], errs[i] = results[i].Report, results[i].Err
	}
	return reps, errors.Join(errs...)
}

// Result is one RunAllTracked point: the Report (nil on error), which
// cache tier answered, the wall time the point took inside RunAll —
// from when a pool worker picked it up, so waiting for a gate slot
// counts — and the point's error, if any.
type Result struct {
	Report  *stats.Report
	Source  Source
	Elapsed time.Duration
	Err     error
}

// RunAllTracked is RunAll plus per-point metadata: for each spec, the
// Report, the cache tier that answered, the point's wall time inside
// the call, and its error. Results are pinned to input order no matter
// how the points are scheduled or cancelled. Every point resolves
// exactly as RunTracked resolves it — memo singleflight, then the
// store, then a simulation under the gate. Points that replay one
// workload share its trace, synthesized by the first of them to
// simulate.
func (s *Session) RunAllTracked(ctx context.Context, specs ...RunSpec) []Result {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(specs))
	// The pool only orchestrates: simulations admit through the
	// session's gate, so width beyond Jobs() keeps gate slots fed while
	// some points read the store or park on shared singleflight entries.
	pool := runner.New(4 * s.Jobs())
	_ = pool.Map(len(specs), func(i int) error {
		start := time.Now()
		r := &results[i]
		r.Report, r.Source, r.Err = s.runTracked(ctx, specs[i], true)
		r.Elapsed = time.Since(start)
		return nil
	})
	return results
}

// simulate executes one machine run under the gate.
func (s *Session) simulate(ctx context.Context, spec RunSpec, p plan) (rep *stats.Report, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Synthesize and predecode the supplies before taking a gate slot:
	// a built workload's trace is deferred, so its first replay pays for
	// synthesis, and points waiting on a synthesis another point started
	// must not hold slots while they wait.
	for _, w := range spec.workloads {
		w.Trace.Decoded()
	}
	s.gate.Do(func() {
		// Re-check after possibly parking on the gate.
		if err = ctx.Err(); err != nil {
			return
		}
		cfg := p.cfg
		var spans *core.SpanRecorder
		if p.spans {
			spans = &core.SpanRecorder{}
			cfg.Observers = append(slices.Clip(cfg.Observers), spans)
		}
		var m *core.Machine
		if m, err = core.New(cfg); err != nil {
			return
		}
		defer m.Release()
		if err = attachThreads(m, spec, cfg); err != nil {
			return
		}
		s.sims.Add(1)
		if rep, err = m.RunContext(ctx, p.stop); err == nil && spans != nil {
			rep.Spans = spans.Spans
		}
	})
	return rep, err
}

// attachThreads feeds the machine's contexts according to the spec's
// mode: solo, Section 4.1 grouped or Section 7 job queue.
func attachThreads(m *core.Machine, spec RunSpec, cfg core.Config) error {
	switch spec.mode {
	case ModeSolo:
		w := spec.workloads[0]
		return m.SetThreadStream(0, w.Spec.Short, w.Stream())
	case ModeGroup:
		primary := spec.workloads[0]
		if err := m.SetThreadStream(0, primary.Spec.Short, primary.Stream()); err != nil {
			return err
		}
		for i, comp := range spec.workloads[1:] {
			comp := comp
			err := m.SetThread(i+1, core.Repeat(comp.Spec.Short, func() *prog.Stream { return comp.Stream() }))
			if err != nil {
				return err
			}
		}
		return nil
	case ModeQueue:
		q := core.NewJobQueue()
		for _, w := range spec.workloads {
			w := w
			q.Add(w.Spec.Short, func() *prog.Stream { return w.Stream() })
		}
		src := q.Source()
		for i := 0; i < cfg.Contexts; i++ {
			if err := m.SetThread(i, src); err != nil {
				return err
			}
		}
		return nil
	}
	return errors.New("session: spec has no mode")
}
