package stats

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestStateName(t *testing.T) {
	if got := StateName(0); got != "<,,>" {
		t.Errorf("empty state = %q", got)
	}
	full := State(1<<UnitFU2 | 1<<UnitFU1 | 1<<UnitLD)
	if got := StateName(full); got != "<FU2,FU1,LD>" {
		t.Errorf("full state = %q", got)
	}
	if got := StateName(1 << UnitLD); !strings.Contains(got, "LD") || strings.Contains(got, "FU") {
		t.Errorf("LD-only state = %q", got)
	}
}

func TestSweepSimple(t *testing.T) {
	var tl UnitTimeline
	tl.AddBusy(UnitLD, 0, 10)   // LD busy [0,10)
	tl.AddBusy(UnitFU1, 5, 15)  // FU1 busy [5,15)
	tl.AddBusy(UnitFU2, 20, 25) // FU2 busy [20,25)
	b := tl.Sweep(30)

	if b.Total() != 30 {
		t.Fatalf("total = %d, want 30", b.Total())
	}
	if got := b[1<<UnitLD]; got != 5 { // [0,5): LD only
		t.Errorf("LD-only = %d, want 5", got)
	}
	if got := b[1<<UnitLD|1<<UnitFU1]; got != 5 { // [5,10)
		t.Errorf("LD+FU1 = %d, want 5", got)
	}
	if got := b[1<<UnitFU1]; got != 5 { // [10,15)
		t.Errorf("FU1-only = %d, want 5", got)
	}
	if got := b[0]; got != 10 { // [15,20) and [25,30)
		t.Errorf("idle = %d, want 10", got)
	}
	if got := b[1<<UnitFU2]; got != 5 { // [20,25)
		t.Errorf("FU2-only = %d, want 5", got)
	}
}

func TestSweepClipsToTotal(t *testing.T) {
	var tl UnitTimeline
	tl.AddBusy(UnitLD, 5, 100)
	b := tl.Sweep(10)
	if b.Total() != 10 {
		t.Fatalf("total = %d, want 10", b.Total())
	}
	if b[1<<UnitLD] != 5 || b[0] != 5 {
		t.Fatalf("breakdown = %+v", b)
	}
	if got := unitBusy(b, UnitLD); got != 5 {
		t.Fatalf("LD busy clipped = %d, want 5", got)
	}
}

func TestAddBusyMergesAdjacent(t *testing.T) {
	var tl UnitTimeline
	before := TimelineViolations()
	tl.AddBusy(UnitFU1, 0, 5)
	tl.AddBusy(UnitFU1, 5, 10)  // adjacent: merged into [0,10)
	tl.AddBusy(UnitFU1, 5, 12)  // overlapping, same start: extends to 12
	tl.AddBusy(UnitFU1, 20, 20) // empty: ignored
	if got := TimelineViolations() - before; got != 0 {
		t.Fatalf("in-order intervals counted %d violation(s)", got)
	}
	b := tl.Sweep(20)
	if b[1<<UnitFU1] != 12 || b[0] != 8 || b.Total() != 20 {
		t.Fatalf("breakdown = %v, want FU1 12 and idle 8", b)
	}
}

// TestAddBusyCountsOutOfOrder: an interval starting before the latest
// start is counted as a violation and booked only from that start on;
// an in-order overlap (two lanes of one unit class) is not a violation.
func TestAddBusyCountsOutOfOrder(t *testing.T) {
	var tl UnitTimeline
	before := TimelineViolations()
	tl.AddBusy(UnitFU2, 10, 20)
	tl.AddBusy(UnitFU2, 15, 25) // in order, overlapping: merged
	if got := TimelineViolations() - before; got != 0 {
		t.Fatalf("in-order overlap counted %d violation(s)", got)
	}
	tl.AddBusy(UnitFU2, 5, 30) // starts before the latest start, 15
	if got := TimelineViolations() - before; got != 1 {
		t.Fatalf("out-of-order interval counted %d violation(s), want 1", got)
	}
	tl.AddBusy(UnitFU2, 1, 4) // out of order and nothing past the mark
	if got := TimelineViolations() - before; got != 2 {
		t.Fatalf("second out-of-order interval: count %d, want 2", got)
	}
	if got := unitBusy(tl.Sweep(100), UnitFU2); got != 20 {
		t.Fatalf("busy = %d, want 20 ([10,30))", got)
	}
}

// TestAddBusyCountsCrossUnitOutOfOrder: start order is global. An
// interval on one unit that starts before an earlier start on another
// unit is a violation, even though it is its own unit's first, and only
// its part from the latest start on is booked.
func TestAddBusyCountsCrossUnitOutOfOrder(t *testing.T) {
	var tl UnitTimeline
	before := TimelineViolations()
	tl.AddBusy(UnitLD, 10, 20)
	tl.AddBusy(UnitFU1, 5, 15)
	if got := TimelineViolations() - before; got != 1 {
		t.Fatalf("cross-unit out-of-order interval counted %d violation(s), want 1", got)
	}
	b := tl.Sweep(20)
	if got := unitBusy(b, UnitFU1); got != 5 {
		t.Fatalf("FU1 busy = %d, want 5 ([10,15))", got)
	}
	if b[0] != 10 || b[1<<UnitLD|1<<UnitFU1] != 5 || b[1<<UnitLD] != 5 {
		t.Fatalf("breakdown = %v", b)
	}
}

// TestSweepBelowMarkCounts: a horizon before the latest start cannot be
// swept any more, since those cycles are already settled. It counts one
// violation and returns the breakdown settled so far.
func TestSweepBelowMarkCounts(t *testing.T) {
	var tl UnitTimeline
	tl.AddBusy(UnitFU1, 2, 4)
	tl.AddBusy(UnitFU2, 90, 95)
	before := TimelineViolations()
	b := tl.Sweep(10)
	if got := TimelineViolations() - before; got != 1 {
		t.Fatalf("sweep below the mark counted %d violation(s), want 1", got)
	}
	if b.Total() != 90 || b[1<<UnitFU1] != 2 || b[0] != 88 {
		t.Fatalf("breakdown = %v, want [0,90) settled: FU1 2, idle 88", b)
	}
	tl.Sweep(89) // one cycle short
	tl.Sweep(90) // at the mark: fine
	if got := TimelineViolations() - before; got != 2 {
		t.Fatalf("sweeps at 89 and 90 counted %d violation(s) in all, want 2", got)
	}
}

// sink keeps the alloc-counted timeline's result alive.
var sink Breakdown

// TestAddBusyAllocatesNothing: the timeline is a fixed-size value, so
// booking any number of intervals allocates nothing.
func TestAddBusyAllocatesNothing(t *testing.T) {
	before := TimelineViolations()
	allocs := testing.AllocsPerRun(3, func() {
		var tl UnitTimeline
		for i := 0; i < 100_000; i++ {
			s := Cycle(i) * 3
			tl.AddBusy(i%NumUnits, s, s+Cycle(i%7+1))
		}
		sink = tl.Sweep(300_000)
	})
	if allocs != 0 {
		t.Fatalf("100k AddBusy calls allocated %v times per run, want 0", allocs)
	}
	if got := TimelineViolations() - before; got != 0 {
		t.Fatalf("in-order stream counted %d violation(s)", got)
	}
}

func TestMemIdle(t *testing.T) {
	var b Breakdown
	b[0] = 10                   // all idle
	b[1<<UnitFU1] = 7           // FU1 only: LD idle
	b[1<<UnitLD] = 20           // LD busy
	b[1<<UnitLD|1<<UnitFU2] = 3 // LD busy
	if got := b.MemIdle(); got != 17 {
		t.Fatalf("MemIdle = %d, want 17", got)
	}
}

func TestSweepPropertyTotalAndBusy(t *testing.T) {
	// Property: the breakdown always covers exactly `total` cycles, and
	// each unit's busy count from the breakdown matches a cycle-by-cycle
	// bitmap of its intervals.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const total = 150
		var tl UnitTimeline
		var busy [NumUnits][total]bool
		for s := Cycle(0); s < total; s += Cycle(r.Intn(4)) {
			u := r.Intn(NumUnits)
			e := s + Cycle(r.Intn(15))
			tl.AddBusy(u, s, e)
			for c := s; c < e && c < total; c++ {
				busy[u][c] = true
			}
		}
		b := tl.Sweep(total)
		if b.Total() != total {
			return false
		}
		for u := 0; u < NumUnits; u++ {
			var want Cycle
			for _, on := range busy[u] {
				if on {
					want++
				}
			}
			if unitBusy(b, u) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReportMetrics(t *testing.T) {
	r := Report{
		Cycles:         1000,
		MemBusyCycles:  800,
		MemPorts:       1,
		VectorArithOps: 1500,
	}
	r.Breakdown[0] = 300
	r.Breakdown[1<<UnitLD] = 700
	if got := r.MemOccupation(); got != 0.8 {
		t.Errorf("occupation = %f", got)
	}
	if got := r.VOPC(); got != 1.5 {
		t.Errorf("VOPC = %f", got)
	}
	if got := r.MemIdleFraction(); got != 0.3 {
		t.Errorf("idle fraction = %f", got)
	}
	var empty Report
	if empty.MemOccupation() != 0 || empty.VOPC() != 0 || empty.MemIdleFraction() != 0 {
		t.Error("empty report should yield zeros")
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(1400, 1000); got != 1.4 {
		t.Errorf("speedup = %f", got)
	}
	if Speedup(100, 0) != 0 {
		t.Error("zero-cycle speedup should be 0")
	}
}
