package core

import (
	"context"
	"fmt"

	"mtvec/internal/stats"
)

// batchWindow is how many dynamic instructions one lane dispatches
// before the batch moves on to the next lane.
const batchWindow = 2048

// Batch advances N independently configured machines ("lanes") in
// turn, one window of dispatched instructions per lane per round, over
// their instruction streams. Lanes share no mutable state — each is a
// complete Machine built by New — so every lane's Report is
// byte-identical to the same configuration run solo, by construction:
// a lane pauses only between cycles and resumes from exactly the state
// it paused in.
//
// The session layer runs every point on its own Machine; Batch remains
// as the differential check that pausing and resuming a run is
// invisible in its results.
//
// A Batch is single-use, like the machines it owns: build it, attach
// each lane's threads through Machine(i), run once, read the per-lane
// results. Batches are not safe for concurrent use.
type Batch struct {
	lanes []*Machine
	ran   bool
}

// NewBatch builds one machine per config. Any invalid config fails the
// whole batch.
func NewBatch(cfgs []Config) (*Batch, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("core: batch needs at least one lane config")
	}
	b := &Batch{lanes: make([]*Machine, len(cfgs))}
	for i := range cfgs {
		m, err := New(cfgs[i])
		if err != nil {
			return nil, fmt.Errorf("core: batch lane %d: %w", i, err)
		}
		b.lanes[i] = m
	}
	return b, nil
}

// Machine returns lane i's machine for thread attachment (SetThread,
// SetThreadStream). Do not call its Run methods — the batch drives it.
func (b *Batch) Machine(i int) *Machine { return b.lanes[i] }

// Run advances all lanes to completion and returns the per-lane reports
// and errors (one entry per lane; exactly one of reps[i], errs[i] is
// non-nil). stops[i] is lane i's stop rule.
func (b *Batch) Run(stops []Stop) ([]*stats.Report, []error) {
	n := len(b.lanes)
	reps := make([]*stats.Report, n)
	errs := make([]error, n)
	fail := func(err error) ([]*stats.Report, []error) {
		for i := range errs {
			errs[i] = err
		}
		return reps, errs
	}
	if len(stops) != n {
		return fail(fmt.Errorf("core: batch has %d lanes, got %d stops", n, len(stops)))
	}
	if b.ran {
		return fail(fmt.Errorf("core: batch already ran; build a new one"))
	}
	b.ran = true

	active := make([]bool, n)
	live := 0
	for i, m := range b.lanes {
		if err := m.begin(); err != nil {
			errs[i] = err
			continue
		}
		active[i] = true
		live++
	}
	for target := int64(batchWindow); live > 0; target += batchWindow {
		for i, m := range b.lanes {
			if !active[i] {
				continue
			}
			finished, err := m.runLoop(context.Background(), stops[i], target)
			if err != nil {
				errs[i], active[i] = err, false
				live--
				continue
			}
			if finished {
				reps[i], errs[i] = m.finish(stops[i])
				active[i] = false
				live--
			}
		}
	}
	return reps, errs
}
