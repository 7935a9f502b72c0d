// Package stats computes the paper's evaluation metrics: the eight-state
// functional-unit occupancy breakdown of Figure 4, memory-port occupation
// (Figures 5 and 7), vector operations per cycle (Figure 8) and the
// weighted-work speedup of Section 4.1.
package stats

import (
	"fmt"
	"sync"
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

// AllIdle returns the cycles where no vector unit is working.
func (b *Breakdown) AllIdle() Cycle { return b[0] }

// interval is a half-open busy window [S, E).
type interval struct{ S, E Cycle }

// UnitTimeline accumulates per-unit busy intervals during a run and
// sweeps them into a state breakdown afterwards. Intervals must be added
// per unit in non-decreasing start order, which dispatch order
// guarantees. An interval that overlaps the unit's previous one — two
// lanes of one functional-unit class busy at once — merges into it, so
// each unit's list is the union of its busy time.
type UnitTimeline struct {
	busy [NumUnits][]interval
	// box, when non-nil, is the pooled storage AcquireBacking borrowed;
	// ReleaseBacking hands the (possibly regrown) lists back through it.
	box *[NumUnits][]interval
}

// timelineViolations counts, process-wide, the intervals AddBusy was
// handed out of start order (see TimelineViolations). It is global, not
// per timeline, so a test can check every run of a package or of the
// whole suite without reaching into each machine.
var timelineViolations atomic.Int64

// TimelineViolations returns how many busy intervals, across every
// timeline in the process, started before the previous interval on
// their unit. Dispatch order makes that impossible, so a nonzero count
// is an engine bug; the engine and golden-suite tests assert it stays
// zero. AddBusy merges such an interval like an overlapping one: only
// its part past the end of the previous interval counts as busy.
func TimelineViolations() int64 { return timelineViolations.Load() }

// timelineBacking recycles per-unit interval storage across runs. The
// lists are the dominant per-lane transient of a simulation — without
// reuse every lane regrows them from nil through repeated doubling —
// and their needed capacity is unknowable ahead of time (adjacent busy
// windows merge at a workload-dependent rate), so pooling beats any
// static presize: capacities converge to the high-water mark of what
// runs actually needed. Entries are pointer-free, so pooled garbage
// costs the collector nothing to scan.
var timelineBacking = sync.Pool{New: func() any { return new([NumUnits][]interval) }}

// AcquireBacking equips the timeline with pooled per-unit storage.
// Optional: a timeline works without it, allocating as it grows.
func (tl *UnitTimeline) AcquireBacking() {
	box := timelineBacking.Get().(*[NumUnits][]interval)
	for u := range box {
		tl.busy[u] = box[u][:0]
	}
	tl.box = box
}

// HasBacking reports whether the timeline currently holds pooled
// storage — acquired and not yet released. Lets owners assert the
// acquire/release pairing on error paths.
func (tl *UnitTimeline) HasBacking() bool { return tl.box != nil }

// ReleaseBacking returns pooled storage for reuse by a later timeline.
// Call once, after the final Sweep/BusyCycles; the timeline reads as
// empty afterwards. No-op when AcquireBacking was never called.
func (tl *UnitTimeline) ReleaseBacking() {
	if tl.box == nil {
		return
	}
	*tl.box = tl.busy
	tl.busy = [NumUnits][]interval{}
	timelineBacking.Put(tl.box)
	tl.box = nil
}

// AddBusy records that unit was busy over [start, end). An interval
// that starts at or before the end of the unit's previous one extends
// it; one that starts before the previous one began is counted as a
// violation (see TimelineViolations) and merged the same way.
func (tl *UnitTimeline) AddBusy(unit int, start, end Cycle) {
	if end <= start {
		return
	}
	list := tl.busy[unit]
	if n := len(list); n > 0 && start <= list[n-1].E {
		last := &list[n-1]
		if start < last.S {
			timelineViolations.Add(1)
		}
		if end > last.E {
			last.E = end
		}
		return
	}
	tl.busy[unit] = append(list, interval{start, end})
}

// BusyCycles returns the total busy cycles of one unit (clipped to total).
func (tl *UnitTimeline) BusyCycles(unit int, total Cycle) Cycle {
	var sum Cycle
	for _, iv := range tl.busy[unit] {
		s, e := iv.S, iv.E
		if s >= total {
			break
		}
		if e > total {
			e = total
		}
		sum += e - s
	}
	return sum
}

// Sweep computes the state breakdown over [0, total).
func (tl *UnitTimeline) Sweep(total Cycle) Breakdown {
	var b Breakdown
	var idx [NumUnits]int
	t := Cycle(0)
	for t < total {
		state := State(0)
		next := total
		for u := 0; u < NumUnits; u++ {
			list := tl.busy[u]
			// Advance past intervals that ended at or before t.
			for idx[u] < len(list) && list[idx[u]].E <= t {
				idx[u]++
			}
			if idx[u] >= len(list) {
				continue
			}
			iv := list[idx[u]]
			if iv.S <= t {
				state |= 1 << u
				if iv.E < next {
					next = iv.E
				}
			} else if iv.S < next {
				next = iv.S
			}
		}
		if next <= t {
			next = t + 1
		}
		b[state] += next - t
		t = next
	}
	return b
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
