package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapRunsEveryIndex(t *testing.T) {
	for _, jobs := range []int{1, 2, 8, 33} {
		var hits [100]atomic.Int32
		p := New(jobs)
		if err := p.Map(len(hits), func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("jobs=%d: index %d ran %d times", jobs, i, n)
			}
		}
	}
}

func TestMapJoinsErrorsInIndexOrder(t *testing.T) {
	fail := map[int]bool{3: true, 7: true, 11: true}
	want := "task 3\ntask 7\ntask 11"
	for _, jobs := range []int{1, 4} {
		p := New(jobs)
		err := p.Map(16, func(i int) error {
			if fail[i] {
				return fmt.Errorf("task %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != want {
			t.Fatalf("jobs=%d: err = %q, want %q", jobs, err, want)
		}
	}
}

func TestMapContinuesPastFailures(t *testing.T) {
	var ran atomic.Int32
	p := New(2)
	err := p.Map(20, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("early failure")
		}
		return nil
	})
	if err == nil {
		t.Fatal("error lost")
	}
	if n := ran.Load(); n != 20 {
		t.Fatalf("ran %d of 20 tasks after a failure", n)
	}
}

func TestNewDefaultsAndBusy(t *testing.T) {
	if New(0).Jobs() < 1 {
		t.Fatal("default pool has no workers")
	}
	if New(-3).Jobs() < 1 {
		t.Fatal("negative jobs not defaulted")
	}
	p := New(4)
	if p.Jobs() != 4 {
		t.Fatalf("Jobs() = %d", p.Jobs())
	}
	if err := p.Map(0, nil); err != nil {
		t.Fatal("empty Map should be a no-op")
	}
}

func TestCacheSingleflight(t *testing.T) {
	var c Cache[string, int]
	var executions atomic.Int32
	var wg sync.WaitGroup
	const goroutines = 64
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := c.Do("k", func() (int, error) {
				executions.Add(1)
				time.Sleep(2 * time.Millisecond) // widen the race window
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := executions.Load(); n != 1 {
		t.Fatalf("compute ran %d times for one key", n)
	}
	if c.Misses() != 1 || c.Len() != 1 {
		t.Fatalf("misses=%d len=%d, want 1/1", c.Misses(), c.Len())
	}
}

func TestCacheDistinctKeys(t *testing.T) {
	var c Cache[int, int]
	p := New(8)
	if err := p.Map(256, func(i int) error {
		v, err := c.Do(i%16, func() (int, error) { return i % 16, nil })
		if err != nil || v != i%16 {
			return fmt.Errorf("key %d: got %d, %v", i%16, v, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if c.Misses() != 16 {
		t.Fatalf("misses = %d, want 16", c.Misses())
	}
}

func TestCacheMemoizesErrors(t *testing.T) {
	var c Cache[string, int]
	var executions atomic.Int32
	boom := func() (int, error) {
		executions.Add(1)
		return 0, errors.New("boom")
	}
	if _, err := c.Do("k", boom); err == nil {
		t.Fatal("error swallowed")
	}
	_, err := c.Do("k", boom)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("memoized err = %v", err)
	}
	if executions.Load() != 1 {
		t.Fatal("failing compute retried; deterministic failures must be memoized")
	}
}

func TestGateBoundsConcurrency(t *testing.T) {
	g := NewGate(3)
	if !admits(g, 3) {
		t.Fatal("a 3-slot gate did not admit 3 sections at once")
	}
	var in, max atomic.Int32
	p := New(16)
	if err := p.Map(64, func(int) error {
		g.Do(func() {
			n := in.Add(1)
			for {
				m := max.Load()
				if n <= m || max.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			in.Add(-1)
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if m := max.Load(); m > 3 {
		t.Fatalf("%d sections inside a 3-slot gate", m)
	}
	if g.Busy() <= 0 {
		t.Fatal("gate busy time not accumulated")
	}
	if !admits(NewGate(0), runtime.NumCPU()) {
		t.Fatalf("a default gate did not admit runtime.NumCPU() = %d sections at once", runtime.NumCPU())
	}
}

// admits reports whether g lets n sections in at once: n goroutines
// park inside Do until all n are in, or until a deadline passes.
func admits(g *Gate, n int) bool {
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Do(func() { <-release })
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.Active() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ok := g.Active() == n
	close(release)
	wg.Wait()
	return ok
}

// TestDoContextCancelledLeaderWaiterRetries: a waiter that observes the
// singleflight leader's cancellation recomputes under its own live
// context, and the poisoned entry is never memoized.
func TestDoContextCancelledLeaderWaiterRetries(t *testing.T) {
	var c Cache[string, int]
	leaderStarted := make(chan struct{})
	release := make(chan struct{})
	lctx, lcancel := context.WithCancel(context.Background())

	var wg sync.WaitGroup
	var leaderErr, waiterErr error
	var waiterVal int
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, leaderErr = c.DoContext(lctx, "k", func() (int, error) {
			close(leaderStarted)
			<-release
			return 0, lctx.Err()
		})
	}()
	<-leaderStarted
	wg.Add(1)
	go func() {
		defer wg.Done()
		waiterVal, waiterErr = c.DoContext(context.Background(), "k", func() (int, error) {
			return 42, nil
		})
	}()
	lcancel()
	close(release)
	wg.Wait()

	if !errors.Is(leaderErr, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", leaderErr)
	}
	if waiterErr != nil || waiterVal != 42 {
		t.Fatalf("waiter got %d/%v, want 42/nil", waiterVal, waiterErr)
	}
	// The good recomputation is memoized; the cancellation is not.
	if v, err := c.DoContext(context.Background(), "k", func() (int, error) {
		t.Error("good entry was evicted")
		return -1, nil
	}); v != 42 || err != nil {
		t.Fatalf("memoized value = %d/%v", v, err)
	}
}

// TestDoContextCancelledCallerNotMemoized: a compute that fails with the
// caller's own cancellation leaves no entry behind.
func TestDoContextCancelledCallerNotMemoized(t *testing.T) {
	var c Cache[string, int]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.DoContext(ctx, "k", func() (int, error) { return 0, ctx.Err() }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("cancelled compute left %d entries", n)
	}
	if v, err := c.DoContext(context.Background(), "k", func() (int, error) { return 7, nil }); v != 7 || err != nil {
		t.Fatalf("retry = %d/%v", v, err)
	}
}

// TestDoContextWaiterRespondsToOwnCancellation: a waiter parked on an
// in-flight entry unblocks with its own ctx.Err() without waiting for
// the leader, and the leader's result is still memoized.
func TestDoContextWaiterRespondsToOwnCancellation(t *testing.T) {
	var c Cache[string, int]
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err := c.DoContext(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			return 42, nil
		})
		if v != 42 || err != nil {
			t.Errorf("leader got %d/%v", v, err)
		}
	}()
	<-started

	wctx, wcancel := context.WithCancel(context.Background())
	wcancel()
	if _, err := c.DoContext(wctx, "k", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("parked waiter err = %v, want context.Canceled", err)
	}

	close(release)
	<-done
	if v, err := c.DoContext(context.Background(), "k", nil); v != 42 || err != nil {
		t.Fatalf("memoized = %d/%v", v, err)
	}
	if n := c.Misses(); n != 1 {
		t.Fatalf("misses = %d, want 1", n)
	}
}
