package main

import (
	"context"
	"sync/atomic"

	"mtvec/internal/stats"
	"mtvec/internal/store"
)

// timedStore records a span around every call the session makes into a
// store.Backend. It forwards store.TryLocker too: the session asserts
// that interface before a batched sweep claims its lanes' lock files,
// so a wrapper without it would silently turn the locks off.
type timedStore struct {
	inner store.Backend
	tr    *tracer
	// Lookups and hits while tracing is on, for store.hit_ratio.
	lookups, hits atomic.Int64
}

var (
	_ store.Backend   = (*timedStore)(nil)
	_ store.TryLocker = (*timedStore)(nil)
)

func (s *timedStore) Get(key string) (*stats.Report, store.Tier) {
	if !s.tr.on() {
		return s.inner.Get(key)
	}
	ref := s.tr.currentRef()
	id, start := s.tr.begin()
	rep, tier := s.inner.Get(key)
	s.tr.finish(id, ref.id, ref.req, "store.get", start)
	s.count(tier)
	return rep, tier
}

func (s *timedStore) Put(key string, rep *stats.Report) error {
	if !s.tr.on() {
		return s.inner.Put(key, rep)
	}
	ref := s.tr.currentRef()
	id, start := s.tr.begin()
	err := s.inner.Put(key, rep)
	s.tr.finish(id, ref.id, ref.req, "store.put", start)
	return err
}

// Do records the compute callback as a child span, so the store's own
// cost is Do minus the simulation it wraps.
func (s *timedStore) Do(ctx context.Context, key string, compute func() (*stats.Report, error)) (*stats.Report, store.Tier, error) {
	if !s.tr.on() {
		return s.inner.Do(ctx, key, compute)
	}
	ref := s.tr.parentOf(ctx)
	id, start := s.tr.begin()
	rep, tier, err := s.inner.Do(ctx, key, func() (*stats.Report, error) {
		cid, cstart := s.tr.begin()
		defer s.tr.finish(cid, id, ref.req, "store.compute", cstart)
		return compute()
	})
	s.tr.finish(id, ref.id, ref.req, "store.do", start)
	s.count(tier)
	return rep, tier, err
}

func (s *timedStore) Stats() store.Stats { return s.inner.Stats() }

func (s *timedStore) TryLock(key string) (release func()) {
	tl, ok := s.inner.(store.TryLocker)
	if !ok {
		return nil
	}
	if !s.tr.on() {
		return tl.TryLock(key)
	}
	ref := s.tr.currentRef()
	id, start := s.tr.begin()
	release = tl.TryLock(key)
	s.tr.finish(id, ref.id, ref.req, "store.trylock", start)
	return release
}

func (s *timedStore) count(t store.Tier) {
	s.lookups.Add(1)
	if t.Hit() {
		s.hits.Add(1)
	}
}

// wrapStore returns st behind a timedStore, or st itself when the run
// is not traced.
func wrapStore(st store.Backend, tr *tracer) (store.Backend, *timedStore) {
	if tr == nil {
		return st, nil
	}
	ts := &timedStore{inner: st, tr: tr}
	return ts, ts
}
