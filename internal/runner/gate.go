package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Gate bounds how many goroutines are inside leaf work sections at
// once. Unlike a Pool — which bounds its own tasks only — one Gate can
// be shared by every layer of an orchestration: outer fan-outs spawn
// freely and block cheaply, while the Gate keeps the number of
// simulations actually executing at the limit. Guard only leaf
// sections: code inside Do must not call Do on the same Gate, or it can
// deadlock holding the slot it waits for.
type Gate struct {
	mu    sync.Mutex
	cond  *sync.Cond
	limit int
	in    int
	busy  atomic.Int64 // cumulative nanoseconds inside Do
}

// NewGate creates a gate admitting at most limit concurrent sections;
// limit <= 0 selects runtime.NumCPU().
func NewGate(limit int) *Gate {
	g := &Gate{}
	g.cond = sync.NewCond(&g.mu)
	g.SetLimit(limit)
	return g
}

// SetLimit changes the admission limit; limit <= 0 selects
// runtime.NumCPU(). Sections already admitted are unaffected.
func (g *Gate) SetLimit(limit int) {
	if limit <= 0 {
		limit = runtime.NumCPU()
	}
	g.mu.Lock()
	g.limit = limit
	g.mu.Unlock()
	g.cond.Broadcast()
}

// Do runs fn once a slot is free.
func (g *Gate) Do(fn func()) {
	g.mu.Lock()
	for g.in >= g.limit {
		g.cond.Wait()
	}
	g.in++
	g.mu.Unlock()

	start := time.Now()
	fn()
	g.busy.Add(int64(time.Since(start)))

	g.mu.Lock()
	g.in--
	g.mu.Unlock()
	// One exit frees one slot; SetLimit broadcasts for bulk changes.
	g.cond.Signal()
}

// Busy returns the cumulative wall time spent inside gated sections —
// the serial-equivalent cost of the guarded work.
func (g *Gate) Busy() time.Duration { return time.Duration(g.busy.Load()) }

// Active returns how many sections are inside the gate right now —
// instantaneous occupancy, between 0 and the admission limit.
func (g *Gate) Active() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.in
}
