package runner

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Cache is a concurrency-safe memoization table with singleflight
// semantics: for each key the compute function runs exactly once, while
// concurrent requesters for the same key block until that one execution
// finishes and then share its result. Errors are memoized too — the
// simulations this engine caches are deterministic, so a failed compute
// would fail identically on retry.
//
// The zero Cache is ready to use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*cacheEntry[V]
	misses  atomic.Int64
}

type cacheEntry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do returns the memoized value for key, computing it with fn on the
// first request. fn must not call Do with the same key (it would
// deadlock on itself).
func (c *Cache[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[K]*cacheEntry[V])
	}
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.done
		return e.val, e.err
	}
	e := &cacheEntry[V]{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	c.misses.Add(1)
	e.val, e.err = fn()
	close(e.done)
	return e.val, e.err
}

// forgetEntry removes key only if it still maps to e, so a retry never
// evicts a newer (good or in-flight) entry another caller installed.
func (c *Cache[K, V]) forgetEntry(key K, e *cacheEntry[V]) {
	c.mu.Lock()
	if cur, ok := c.entries[key]; ok && cur == e {
		delete(c.entries, key)
	}
	c.mu.Unlock()
}

// IsContextErr reports a cancelled or expired context — the one error
// class the engine never memoizes, because it would not fail
// identically on retry. The session engine and the CLIs share this
// single predicate.
func IsContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// DoContext is Do with cancellation discipline: entries whose compute
// failed with a context error are forgotten (never memoized), the
// computing caller returns its own cancellation, a parked waiter stays
// responsive to its own ctx (it unblocks with ctx.Err() while the
// leader's computation continues for the others), and a waiter that
// observes another caller's cancellation retries the computation under
// its own still-live ctx. The single-computation guarantee holds for
// every entry that does not end in a cancellation.
func (c *Cache[K, V]) DoContext(ctx context.Context, key K, fn func() (V, error)) (V, error) {
	for {
		c.mu.Lock()
		if c.entries == nil {
			c.entries = make(map[K]*cacheEntry[V])
		}
		if e, ok := c.entries[key]; ok {
			c.mu.Unlock()
			select {
			case <-e.done:
			case <-ctx.Done():
				var zero V
				return zero, ctx.Err()
			}
			if e.err == nil || !IsContextErr(e.err) {
				return e.val, e.err
			}
			// The computing caller was cancelled. Drop the poisoned
			// entry (only if it is still the installed one); if our own
			// context is live the cancellation was not ours, so retry.
			c.forgetEntry(key, e)
			if err := ctx.Err(); err != nil {
				var zero V
				return zero, err
			}
			continue
		}
		e := &cacheEntry[V]{done: make(chan struct{})}
		c.entries[key] = e
		c.mu.Unlock()

		c.misses.Add(1)
		e.val, e.err = fn()
		close(e.done)
		if e.err != nil && IsContextErr(e.err) {
			c.forgetEntry(key, e)
		}
		return e.val, e.err
	}
}

// Add installs an externally-computed value for key if the cache has no
// entry for it (in-flight or done), reporting whether it was installed.
// It never disturbs an existing entry, so the single-computation
// guarantee for Do callers is unaffected.
func (c *Cache[K, V]) Add(key K, val V) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = make(map[K]*cacheEntry[V])
	}
	if _, ok := c.entries[key]; ok {
		return false
	}
	e := &cacheEntry[V]{done: make(chan struct{}), val: val}
	close(e.done)
	c.entries[key] = e
	return true
}

// Peek returns key's value if its computation has finished
// successfully. It never blocks: in-flight entries, errored entries and
// absent keys all report ok=false.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	var zero V
	if !ok {
		return zero, false
	}
	select {
	case <-e.done:
	default:
		return zero, false
	}
	if e.err != nil {
		return zero, false
	}
	return e.val, true
}

// Misses returns how many times a compute function actually ran — the
// number of distinct keys ever requested.
func (c *Cache[K, V]) Misses() int64 { return c.misses.Load() }

// Len returns the number of cached keys (including in-flight ones).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
