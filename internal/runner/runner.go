// Package runner is the concurrent execution engine behind the
// experiment harness: a bounded worker pool that fans independent
// simulation points out over the machine's cores, a singleflight
// memoization cache that guarantees each distinct (workload, config)
// simulation runs exactly once no matter how many goroutines request
// it, and a Gate that bounds how many simulations execute at once
// across every layer of a nested orchestration.
//
// # Concurrency model
//
// A Pool runs at most Jobs() tasks at a time. Tasks must be independent
// of one another; they may share data only through concurrency-safe
// structures such as Cache. Map always executes every index and joins
// the errors in index order, so the outcome of a run — results and
// error text alike — is identical for any worker count, including 1.
// Pools bound only their own tasks; when fan-outs nest (a pool task
// that itself fans out), the global "at most N simulations in flight"
// contract is enforced by a shared Gate around the leaf work instead.
//
// # Determinism
//
// The engine parallelizes only work whose result is a pure function of
// its key: simulations here are deterministic, so a value computed by
// one worker is byte-for-byte the value any other schedule would have
// produced. Callers keep aggregation deterministic by collecting into
// index-addressed slots (as Map does) rather than in completion order.
package runner

import (
	"errors"
	"runtime"
	"sync"
)

// Pool executes independent tasks on a bounded set of workers.
type Pool struct {
	jobs int
}

// New creates a pool running at most jobs tasks concurrently; jobs <= 0
// selects runtime.NumCPU().
func New(jobs int) *Pool {
	if jobs <= 0 {
		jobs = runtime.NumCPU()
	}
	return &Pool{jobs: jobs}
}

// Jobs returns the pool's concurrency bound.
func (p *Pool) Jobs() int { return p.jobs }

// Map runs fn(0) .. fn(n-1) on up to Jobs() workers. Every index runs
// even if an earlier one fails; the errors are joined in index order, so
// the returned error does not depend on scheduling.
func (p *Pool) Map(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	if p.jobs == 1 || n == 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
		return errors.Join(errs...)
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	workers := p.jobs
	if workers > n {
		workers = n
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return errors.Join(errs...)
}
