// Package stats computes the paper's evaluation metrics: the eight-state
// functional-unit occupancy breakdown of Figure 4, memory-port occupation
// (Figures 5 and 7), vector operations per cycle (Figure 8) and the
// weighted-work speedup of Section 4.1.
package stats

import (
	"fmt"
	"sync/atomic"
)

// Cycle counts processor cycles.
type Cycle = int64

// Unit indices for the three vector-side units of the machine state
// 3-tuple ⟨FU2, FU1, LD⟩.
const (
	UnitLD = iota
	UnitFU1
	UnitFU2
	NumUnits
)

// State is a bitmask over the three units; 8 possible machine states.
type State uint8

const NumStates = 8

// StateName renders a state in the paper's ⟨FU2,FU1,LD⟩ notation.
func StateName(s State) string {
	part := func(bit int, name string) string {
		if s&(1<<bit) != 0 {
			return name
		}
		return ""
	}
	return fmt.Sprintf("<%s,%s,%s>", part(UnitFU2, "FU2"), part(UnitFU1, "FU1"), part(UnitLD, "LD"))
}

// Breakdown is the cycles spent in each of the eight states.
type Breakdown [NumStates]Cycle

// Total returns the cycles accounted for.
func (b *Breakdown) Total() Cycle {
	var t Cycle
	for _, c := range b {
		t += c
	}
	return t
}

// MemIdle returns the cycles in the four states where the LD unit (and
// hence the memory port's master) is idle — the paper's Figure 5
// numerator.
func (b *Breakdown) MemIdle() Cycle {
	var t Cycle
	for s := 0; s < NumStates; s++ {
		if s&(1<<UnitLD) == 0 {
			t += b[s]
		}
	}
	return t
}

// UnitTimeline books per-unit busy intervals into the state breakdown
// as a run goes, and keeps no list of them. Intervals must arrive in
// non-decreasing start order across all units, not only per unit:
// dispatch books every interval at the cycle it issues, and the clock
// never runs backwards. So no later interval can change a cycle before
// the latest start, the mark; AddBusy settles each new stretch up to its
// start as it arrives. An interval that overlaps its unit's busy time —
// two lanes of one functional-unit class busy at once — merges into it,
// so a unit is busy over the union of its intervals.
type UnitTimeline struct {
	settled Breakdown
	// mark is the latest start: every cycle before it is in settled.
	mark Cycle
	// end[u] is where unit u's busy time past the mark ends; the unit
	// is busy over [mark, end[u]) and idle from there on.
	end [NumUnits]Cycle
}

// timelineViolations counts, process-wide, the intervals and sweeps a
// timeline was handed out of start order (see TimelineViolations). It is global, not
// per timeline, so a test can check every run of a package or of the
// whole suite without reaching into each machine.
var timelineViolations atomic.Int64

// TimelineViolations returns how many busy intervals, across every
// timeline in the process, started before an earlier interval on any
// unit, plus how many sweeps ended before the latest start. Dispatch
// order makes both impossible, so a nonzero count is an engine bug; the
// engine and golden-suite tests assert it stays zero. AddBusy books only
// the part of such an interval from the latest start on, and such a
// Sweep returns the breakdown settled so far.
func TimelineViolations() int64 { return timelineViolations.Load() }

// AddBusy records that unit was busy over [start, end). Empty and
// inverted intervals are ignored. One that starts before the latest
// start is counted as a violation (see TimelineViolations) and clipped
// to it.
func (tl *UnitTimeline) AddBusy(unit int, start, end Cycle) {
	if end <= start {
		return
	}
	if start > tl.mark {
		tl.settle(&tl.settled, start)
		tl.mark = start
	} else if start < tl.mark {
		timelineViolations.Add(1)
	}
	if end > tl.end[unit] {
		tl.end[unit] = end
	}
}

// Sweep returns the state breakdown over [0, total). It leaves the
// timeline as it was, so later intervals may still be added. A total
// below the latest start is counted as a violation, and the breakdown
// settled so far, over [0, latest start), is returned.
func (tl *UnitTimeline) Sweep(total Cycle) Breakdown {
	b := tl.settled
	if total < tl.mark {
		timelineViolations.Add(1)
		return b
	}
	tl.settle(&b, total)
	return b
}

// settle books [mark, to) into b. Each unit is busy from the mark until
// its end, so the stretch splits into at most NumUnits+1 states.
func (tl *UnitTimeline) settle(b *Breakdown, to Cycle) {
	for t := tl.mark; t < to; {
		state, next := State(0), to
		for u, e := range tl.end {
			if e > t {
				state |= 1 << u
				next = min(next, e)
			}
		}
		b[state] += next - t
		t = next
	}
}

// ThreadReport describes one hardware context's progress at run end.
type ThreadReport struct {
	Program      string
	Completions  int64 // full program runs finished
	PartialInsts int64 // dynamic instructions into the unfinished run
	Dispatched   int64 // total instructions dispatched by this context
}

// Span is one segment of Figure 9's execution profile: program occupying
// a context over a cycle range.
type Span struct {
	Thread  int
	Program string
	Start   Cycle
	End     Cycle
}

// Report carries every metric of one simulation run.
type Report struct {
	Cycles    Cycle
	Breakdown Breakdown

	MemBusyCycles int64 // address-port busy cycles
	MemRequests   int64 // requests sent on the address bus
	MemPorts      int   // number of address ports

	VectorArithOps int64 // operations executed on FU1+FU2
	VectorOps      int64 // including memory elements
	Insts          int64 // instructions dispatched
	LostDecode     int64 // decode cycles without a dispatch

	Threads []ThreadReport
	Spans   []Span
}

// MemOccupation is requests over cycles per port (0..1).
func (r *Report) MemOccupation() float64 {
	if r.Cycles <= 0 || r.MemPorts <= 0 {
		return 0
	}
	return float64(r.MemBusyCycles) / float64(r.Cycles) / float64(r.MemPorts)
}

// MemIdleFraction is the paper's Figure 5 metric.
func (r *Report) MemIdleFraction() float64 {
	if r.Cycles <= 0 {
		return 0
	}
	return float64(r.Breakdown.MemIdle()) / float64(r.Cycles)
}

// VOPC is vector arithmetic operations per cycle (0..2 with two vector
// units).
func (r *Report) VOPC() float64 {
	if r.Cycles <= 0 {
		return 0
	}
	return float64(r.VectorArithOps) / float64(r.Cycles)
}

// Speedup implements Section 4.1: reference cycles for the same amount of
// work divided by the multithreaded run's cycles.
func Speedup(referenceWork, multithreadedCycles Cycle) float64 {
	if multithreadedCycles <= 0 {
		return 0
	}
	return float64(referenceWork) / float64(multithreadedCycles)
}
