package store

import (
	"context"

	"mtvec/internal/stats"
)

// Tier identifies which side of a backend served a lookup.
type Tier int

const (
	// TierMiss: the backend did not serve the result (absent, or Do
	// computed it fresh).
	TierMiss Tier = iota
	// TierLocal: served from this process's on-disk tier.
	TierLocal
)

// Hit reports whether the tier represents a served result.
func (t Tier) Hit() bool { return t != TierMiss }

// String names the tier ("miss", "local").
func (t Tier) String() string {
	switch t {
	case TierMiss:
		return "miss"
	case TierLocal:
		return "local"
	}
	return "unknown"
}

// Backend is a persistent result tier the session engine can sit on: a
// content-addressed table of verified Reports. Implementations must be
// safe for concurrent use and must never serve a record that fails
// verification — a corrupt or stale entry is a miss, recomputed rather
// than trusted.
//
// The package provides one implementation, Dir (on-disk, with
// cross-process single-flight), checked by the conformance suite in
// conformance_test.go. The interface lets a caller wrap it, for
// example to time each call.
type Backend interface {
	// Get returns the verified report for key and the tier that served
	// it, or (nil, TierMiss).
	Get(key string) (*stats.Report, Tier)
	// Put persists the report under key. Writers of one key all write
	// identical bytes (simulations are pure functions of their key), so
	// concurrent Puts are harmless.
	Put(key string, rep *stats.Report) error
	// Do returns the report for key, computing and persisting it with
	// compute on a verified miss; the tier is TierMiss when compute ran.
	// Concurrent Do calls for one key on one backend compute at most
	// once (and at most once per process fleet, for backends with
	// cross-process single-flight). Do returns an error only from ctx
	// or compute, never from storage I/O.
	Do(ctx context.Context, key string, compute func() (*stats.Report, error)) (*stats.Report, Tier, error)
	// Stats snapshots the backend's process-local counters.
	Stats() Stats
}

// Compile-time checks: Dir is a lockable Backend.
var (
	_ Backend   = (*Dir)(nil)
	_ TryLocker = (*Dir)(nil)
)
