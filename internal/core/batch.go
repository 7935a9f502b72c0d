package core

import (
	"fmt"

	"mtvec/internal/stats"
)

// Batch runs N independently configured machines ("lanes") one after
// another, each from its first cycle to its last. Lanes share no mutable
// state — each is a complete Machine built by New — so every lane's
// Report is the same configuration's Report run on its own.
//
// Deprecated: a Batch is eight plain runs in a loop and nothing in the
// engine uses it. It stays only because repobench's core.batch8_gain
// micro-case calls NewBatch, Machine and Run; ROADMAP item 2's benchmark
// PR schedules its removal.
type Batch struct {
	lanes []*Machine
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
// SetThreadStream). Do not call its Run methods — the batch runs it.
func (b *Batch) Machine(i int) *Machine { return b.lanes[i] }

// Run runs every lane to completion and returns the per-lane reports
// and errors (one entry per lane; exactly one of reps[i], errs[i] is
// non-nil). stops[i] is lane i's stop rule. Like its machines, a Batch
// runs once: a second Run fails every lane.
func (b *Batch) Run(stops []Stop) ([]*stats.Report, []error) {
	n := len(b.lanes)
	reps := make([]*stats.Report, n)
	errs := make([]error, n)
	if len(stops) != n {
		err := fmt.Errorf("core: batch has %d lanes, got %d stops", n, len(stops))
		for i := range errs {
			errs[i] = err
		}
		return reps, errs
	}
	for i, lane := range b.lanes {
		reps[i], errs[i] = lane.Run(stops[i])
	}
	return reps, errs
}
