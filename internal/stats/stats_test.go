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
	if tl.BusyCycles(UnitLD, 10) != 5 {
		t.Fatalf("BusyCycles clipped = %d", tl.BusyCycles(UnitLD, 10))
	}
}

func TestAddBusyMergesAdjacent(t *testing.T) {
	var tl UnitTimeline
	tl.AddBusy(UnitFU1, 0, 5)
	tl.AddBusy(UnitFU1, 5, 10)
	if len(tl.busy[UnitFU1]) != 1 {
		t.Fatalf("adjacent intervals not merged: %v", tl.busy[UnitFU1])
	}
	tl.AddBusy(UnitFU1, 3, 12) // overlapping: clamped to [10,12)
	if got := tl.BusyCycles(UnitFU1, 100); got != 12 {
		t.Fatalf("busy = %d, want 12", got)
	}
	tl.AddBusy(UnitFU1, 20, 20) // empty: ignored
	if got := tl.BusyCycles(UnitFU1, 100); got != 12 {
		t.Fatalf("busy after empty add = %d", got)
	}
}

// TestAddBusyCountsOutOfOrder: an interval starting before its unit's
// previous one is counted as a violation and still merged as before; an
// in-order overlap (two lanes of one unit class) is not a violation.
func TestAddBusyCountsOutOfOrder(t *testing.T) {
	var tl UnitTimeline
	before := TimelineViolations()
	tl.AddBusy(UnitFU2, 10, 20)
	tl.AddBusy(UnitFU2, 15, 25) // in order, overlapping: merged
	if got := TimelineViolations() - before; got != 0 {
		t.Fatalf("in-order overlap counted %d violation(s)", got)
	}
	tl.AddBusy(UnitFU2, 5, 30) // starts before the interval it follows
	if got := TimelineViolations() - before; got != 1 {
		t.Fatalf("out-of-order interval counted %d violation(s), want 1", got)
	}
	if got := tl.busy[UnitFU2]; len(got) != 1 || got[0] != (interval{10, 30}) {
		t.Fatalf("intervals = %v, want [{10 30}]", got)
	}
	tl.AddBusy(UnitFU2, 1, 4) // out of order and inside nothing new
	if got := TimelineViolations() - before; got != 2 {
		t.Fatalf("second out-of-order interval: count %d, want 2", got)
	}
	if got := tl.BusyCycles(UnitFU2, 100); got != 20 {
		t.Fatalf("busy = %d, want 20", got)
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
	if b.AllIdle() != 10 {
		t.Fatalf("AllIdle = %d", b.AllIdle())
	}
}

func TestSweepPropertyTotalAndBusy(t *testing.T) {
	// Property: the breakdown always covers exactly `total` cycles, and
	// per-unit busy counts from the breakdown match BusyCycles.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var tl UnitTimeline
		for u := 0; u < NumUnits; u++ {
			t := Cycle(0)
			for i := 0; i < 20; i++ {
				t += Cycle(r.Intn(10))
				e := t + Cycle(r.Intn(15))
				tl.AddBusy(u, t, e)
				t = e
			}
		}
		total := Cycle(150)
		b := tl.Sweep(total)
		if b.Total() != total {
			return false
		}
		for u := 0; u < NumUnits; u++ {
			var fromBreakdown Cycle
			for s := 0; s < NumStates; s++ {
				if s&(1<<u) != 0 {
					fromBreakdown += b[s]
				}
			}
			if fromBreakdown != tl.BusyCycles(u, total) {
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

// TestBackingPoolRoundTrip exercises the pooled timeline storage
// in-package: acquire attaches reusable per-unit lists, release hands
// them back (idempotently) and leaves the timeline empty, and a backed
// timeline sweeps identically to a plain one.
func TestBackingPoolRoundTrip(t *testing.T) {
	var tl UnitTimeline
	if tl.HasBacking() {
		t.Fatal("fresh timeline claims pooled backing")
	}
	tl.ReleaseBacking() // no-op without backing

	tl.AcquireBacking()
	if !tl.HasBacking() {
		t.Fatal("AcquireBacking did not attach backing")
	}
	tl.AddBusy(UnitLD, 0, 10)
	tl.AddBusy(UnitFU1, 5, 15)
	var plain UnitTimeline
	plain.AddBusy(UnitLD, 0, 10)
	plain.AddBusy(UnitFU1, 5, 15)
	if got, want := tl.Sweep(20), plain.Sweep(20); got != want {
		t.Fatalf("backed sweep %v != plain sweep %v", got, want)
	}

	tl.ReleaseBacking()
	if tl.HasBacking() {
		t.Fatal("ReleaseBacking left backing attached")
	}
	if got := tl.Sweep(20); got[0] != 20 {
		t.Fatalf("released timeline not empty: %v", got)
	}
	tl.ReleaseBacking() // second release is a no-op

	// Re-acquire: pooled or fresh, the timeline must come back empty.
	tl.AcquireBacking()
	defer tl.ReleaseBacking()
	if got := tl.Sweep(20); got[0] != 20 {
		t.Fatalf("re-acquired timeline not empty: %v", got)
	}
}
