package session

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"mtvec/internal/core"
	"mtvec/internal/sched"
	"mtvec/internal/stats"
	"mtvec/internal/store"
	"mtvec/internal/vcomp"
	"mtvec/internal/workload"
)

func openStore(t *testing.T) *store.Dir {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func reportJSON(t *testing.T, rep *stats.Report) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStoreSecondSessionZeroSimulations is the tentpole acceptance
// check at session level: a fresh session (modelling a new process)
// over a warm store reproduces byte-identical Reports with zero
// simulations.
func TestStoreSecondSessionZeroSimulations(t *testing.T) {
	w := testWorkload(t)
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	specs := []RunSpec{
		Solo(w),
		Solo(w, WithMemLatency(80)),
		Group(w, []*workload.Workload{w}, WithMemLatency(80)),
		Queue([]*workload.Workload{w, w}, WithContexts(2)),
		Solo(w, WithSpans()),
	}

	s1 := New(WithStore(st1))
	var want []string
	for _, spec := range specs {
		rep, src, err := s1.RunTracked(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if src != SourceSim {
			t.Fatalf("cold run source = %v, want sim", src)
		}
		want = append(want, reportJSON(t, rep))
	}
	if s1.Simulations() != int64(len(specs)) {
		t.Fatalf("cold session simulations = %d, want %d", s1.Simulations(), len(specs))
	}

	// New session, new store handle: nothing in memory survives.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(WithStore(st2))
	for i, spec := range specs {
		rep, src, err := s2.RunTracked(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if src != SourceStore {
			t.Fatalf("spec %d: warm run source = %v, want store", i, src)
		}
		if got := reportJSON(t, rep); got != want[i] {
			t.Fatalf("spec %d: warm report differs from cold:\ngot  %s\nwant %s", i, got, want[i])
		}
	}
	if s2.Simulations() != 0 {
		t.Fatalf("warm session simulations = %d, want 0", s2.Simulations())
	}
	if s2.StoreHits() != int64(len(specs)) {
		t.Fatalf("warm session store hits = %d, want %d", s2.StoreHits(), len(specs))
	}
}

// TestStoreKeyStability pins the persist key's shape: a rebuilt (but
// identical) workload in a different process must map to the same key,
// while every content dimension must change it.
func TestStoreKeyStability(t *testing.T) {
	w := testWorkload(t)
	// A second build of the same (spec, scale, opts) — a new object, as
	// a fresh process would hold.
	w2, err := workload.ByShort("tf").Build(testScale)
	if err != nil {
		t.Fatal(err)
	}
	pkey := func(spec RunSpec) string {
		t.Helper()
		p, err := spec.prepare()
		if err != nil {
			t.Fatal(err)
		}
		key, ok := spec.persistKey(&p)
		if !ok {
			t.Fatal("spec unexpectedly unpersistable")
		}
		return key
	}
	if pkey(Solo(w)) != pkey(Solo(w2)) {
		t.Fatal("identical rebuilt workloads keyed differently")
	}
	keys := map[string]string{
		"base":    pkey(Solo(w)),
		"latency": pkey(Solo(w, WithMemLatency(80))),
		"policy":  pkey(Solo(w, WithPolicy("roundrobin"))),
		"vlen":    pkey(Solo(w, WithVLen(64))),
		"banks":   pkey(Solo(w, WithMemBanks(64, 8))),
		"spans":   pkey(Solo(w, WithSpans())),
		"queue":   pkey(Queue([]*workload.Workload{w})),
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Errorf("specs %q and %q share persist key %s", name, prev, k)
		}
		seen[k] = name
	}

	// Different build provenance must not share a key.
	wn, err := workload.ByShort("tf").BuildOpts(testScale, vcomp.Options{NoHoist: true})
	if err != nil {
		t.Fatal(err)
	}
	if pkey(Solo(w)) == pkey(Solo(wn)) {
		t.Fatal("hoisting and no-hoist builds share a persist key")
	}
	wscale, err := workload.ByShort("tf").Build(testScale / 2)
	if err != nil {
		t.Fatal(err)
	}
	if pkey(Solo(w)) == pkey(Solo(wscale)) {
		t.Fatal("different scales share a persist key")
	}
}

// TestStoreUnstableSpecsNotPersisted: artifacts without content
// identity (hand-rolled workloads, custom policies) must bypass the
// store entirely.
func TestStoreUnstableSpecsNotPersisted(t *testing.T) {
	w := testWorkload(t)
	handRolled := &workload.Workload{Spec: &workload.Spec{Name: "custom"}, Scale: 1, Trace: w.Trace}

	for name, spec := range map[string]RunSpec{
		"hand-rolled workload": Solo(handRolled),
		"custom policy":        Solo(w, WithPolicyInstance(sched.ByName("unfair").Clone())),
	} {
		p, err := spec.prepare()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if key, ok := spec.persistKey(&p); ok {
			t.Errorf("%s: unexpectedly persistable as %q", name, key)
		}
	}

	// And running one against a store leaves the store empty.
	st := openStore(t)
	s := New(WithStore(st))
	if _, src, err := s.RunTracked(context.Background(), Solo(handRolled)); err != nil || src != SourceSim {
		t.Fatalf("hand-rolled run: src=%v err=%v", src, err)
	}
	if st.Stats().Writes != 0 {
		t.Fatalf("unstable spec written to store: %+v", st.Stats())
	}
}

// TestStoreServesObserverSpecs: a persisted result answers an
// observer-carrying spec without simulating (so no events fire), while
// a cold store still simulates it with events.
func TestStoreServesObserverSpecs(t *testing.T) {
	w := testWorkload(t)
	st := openStore(t)
	s := New(WithStore(st))

	var events int64
	obs := core.ProgressFunc(func(now core.Cycle, insts int64) { events++ })
	spec := Solo(w, WithObserver(obs), WithProgressStride(64))

	rep1, src, err := s.RunTracked(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceSim {
		t.Fatalf("cold observer run source = %v, want sim", src)
	}
	if events == 0 {
		t.Fatal("cold observer run emitted no events")
	}

	// Same spec again: the write-through result now answers from disk,
	// and the observer sees nothing.
	events = 0
	rep2, src, err := s.RunTracked(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceStore {
		t.Fatalf("warm observer run source = %v, want store", src)
	}
	if events != 0 {
		t.Fatalf("store-served run emitted %d events", events)
	}
	if reportJSON(t, rep1) != reportJSON(t, rep2) {
		t.Fatal("store-served observer report differs")
	}
}

// TestStoreForgetOnCancel: a cancelled run must leave nothing on disk.
func TestStoreForgetOnCancel(t *testing.T) {
	w := testWorkload(t)
	st := openStore(t)
	s := New(WithStore(st))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.RunTracked(ctx, Solo(w)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	if stats := st.Stats(); stats.Writes != 0 {
		t.Fatalf("cancelled run persisted: %+v", stats)
	}
	// The key is free: a live context simulates and persists.
	if _, src, err := s.RunTracked(context.Background(), Solo(w)); err != nil || src != SourceSim {
		t.Fatalf("post-cancel run: src=%v err=%v", src, err)
	}
	if stats := st.Stats(); stats.Writes != 1 {
		t.Fatalf("post-cancel run not persisted: %+v", stats)
	}
}

// TestCachedNeverSimulates covers the non-blocking lookup used by the
// serving layer.
func TestCachedNeverSimulates(t *testing.T) {
	w := testWorkload(t)
	st := openStore(t)
	s := New(WithStore(st))
	spec := Solo(w)

	if _, _, ok := s.Cached(spec); ok {
		t.Fatal("cold Cached hit")
	}
	if s.Simulations() != 0 {
		t.Fatal("Cached simulated")
	}
	if _, err := s.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	rep, src, ok := s.Cached(spec)
	if !ok || rep == nil {
		t.Fatal("warm Cached miss")
	}
	if src != SourceMemo {
		t.Fatalf("Cached source = %v, want memo", src)
	}
	// A fresh session over the same store answers from disk.
	s2 := New(WithStore(st))
	if _, src, ok := s2.Cached(spec); !ok || src != SourceStore {
		t.Fatalf("fresh-session Cached: ok=%v src=%v, want store hit", ok, src)
	}
	// Observer specs are served too — Cached never runs, so no event
	// obligations arise.
	if _, _, ok := s2.Cached(Solo(w, WithObserver(&core.SwitchCounter{}))); !ok {
		t.Fatal("Cached refused an observer spec")
	}
	if s2.Simulations() != 0 {
		t.Fatal("Cached simulated in fresh session")
	}
}

// TestBankNoOpRejectedThroughSession proves the conflict model can
// never be silently disabled through the option path: the joined
// diagnostic names the hole.
func TestBankNoOpRejectedThroughSession(t *testing.T) {
	w := testWorkload(t)
	err := Solo(w, WithMemBanks(64, 0)).Validate()
	if err == nil {
		t.Fatal("WithMemBanks(64, 0) validated")
	}
	// And the raw-config route (WithConfig) is caught by memsys.Validate.
	cfg := core.DefaultConfig()
	cfg.Mem.Banks = 64
	if err := Solo(w, WithConfig(cfg)).Validate(); err == nil {
		t.Fatal("WithConfig with BankBusy 0 validated")
	}
}

// TestPersistKeyPublic pins the public sharding handle the cluster
// coordinator uses: stable specs expose a key, unstable ones do not,
// and the key matches the internal one the store tier uses.
func TestPersistKeyPublic(t *testing.T) {
	w := testWorkload(t)
	s := New()
	key, ok := s.PersistKey(Solo(w))
	if !ok || key == "" {
		t.Fatalf("PersistKey = (%q, %v), want a stable key", key, ok)
	}
	spec := Solo(w)
	p, err := spec.prepare()
	if err != nil {
		t.Fatal(err)
	}
	internal, _ := spec.persistKey(&p)
	if key != internal {
		t.Fatalf("public key %q != internal key %q", key, internal)
	}
	handRolled := &workload.Workload{Spec: &workload.Spec{Name: "custom"}, Scale: 1, Trace: w.Trace}
	if _, ok := s.PersistKey(Solo(handRolled)); ok {
		t.Fatal("unstable spec reported a persist key")
	}
	if _, ok := s.PersistKey(RunSpec{}); ok {
		t.Fatal("invalid spec reported a persist key")
	}
}

// TestStoreHitAllocs pins what a Run answered by a Dir hit allocates on
// a fresh session: the memo key and its cache entry, the persist key,
// the compute closure the store's Do takes, and the record's read. The
// plan stays on the stack: only a simulation moves anything to the
// heap for it.
func TestStoreHitAllocs(t *testing.T) {
	w := testWorkload(t)
	st := openStore(t)
	spec := Solo(w, WithMemLatency(50))
	ctx := context.Background()
	if _, err := New(WithStore(st)).Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun calls the function once more than it measures.
	const runs = 50
	sessions := make([]*Session, runs+1)
	for i := range sessions {
		sessions[i] = New(WithStore(st))
	}
	next := 0
	n := testing.AllocsPerRun(runs, func() {
		_, src, err := sessions[next].RunTracked(ctx, spec)
		next++
		if err != nil || src != SourceStore {
			t.Fatalf("store hit: src=%v err=%v", src, err)
		}
	})
	// 12 on Go 1.24. Moving the plan to the heap adds one, and a record
	// path built as a string that the open call copies again adds two.
	const pinned = 12
	if n > pinned {
		t.Errorf("a store hit allocates %.0f times, want at most %d", n, pinned)
	}
}
