package stats

import "testing"

// TestAddBusyClampsOverlap: an interval starting inside its unit's
// busy time adds only its part past that busy time, and one fully
// contained adds nothing.
func TestAddBusyClampsOverlap(t *testing.T) {
	var tl UnitTimeline
	tl.AddBusy(UnitLD, 0, 10)
	tl.AddBusy(UnitLD, 5, 8) // fully inside [0,10): adds nothing
	if got := unitBusy(tl.Sweep(100), UnitLD); got != 10 {
		t.Errorf("contained overlap changed busy cycles: %d, want 10", got)
	}
	tl.AddBusy(UnitLD, 5, 14) // only [10,14) is new
	if got := unitBusy(tl.Sweep(100), UnitLD); got != 14 {
		t.Errorf("clamped overlap busy cycles = %d, want 14", got)
	}
	tl.AddBusy(UnitLD, 14, 14) // empty: no-op
	tl.AddBusy(UnitLD, 20, 6)  // inverted: no-op
	b := tl.Sweep(20)
	if got := unitBusy(b, UnitLD); got != 14 {
		t.Errorf("degenerate intervals changed busy cycles: %d, want 14", got)
	}
	if busy := b.Total() - b[0]; busy != 14 {
		t.Errorf("sweep busy = %d, want 14", busy)
	}
}

// TestBusyCyclesClipsAndStops: a unit's busy cycles, read off the
// breakdown, stop at the horizon; an interval the horizon cuts counts
// only up to it.
func TestBusyCyclesClipsAndStops(t *testing.T) {
	var tl UnitTimeline
	tl.AddBusy(UnitFU2, 0, 5)
	tl.AddBusy(UnitFU2, 6, 20)
	tl.AddBusy(UnitFU2, 30, 40)
	for _, tc := range []struct{ total, want Cycle }{
		{30, 19}, // horizon at the last start: [30,40) adds nothing
		{35, 24}, // cuts [30,40)
		{50, 29},
	} {
		if got := unitBusy(tl.Sweep(tc.total), UnitFU2); got != tc.want {
			t.Errorf("busy over [0,%d) = %d, want %d", tc.total, got, tc.want)
		}
	}
}

// TestSweepZeroTotal: an empty horizon yields an all-zero breakdown.
func TestSweepZeroTotal(t *testing.T) {
	var tl UnitTimeline
	tl.AddBusy(UnitFU1, 0, 5)
	b := tl.Sweep(0)
	if b.Total() != 0 {
		t.Errorf("zero-horizon breakdown totals %d cycles", b.Total())
	}
}

// TestSweepIntervalPastHorizon: an interval that starts at the horizon
// contributes nothing and does not shorten the idle tail.
func TestSweepIntervalPastHorizon(t *testing.T) {
	var tl UnitTimeline
	tl.AddBusy(UnitFU1, 2, 4)
	tl.AddBusy(UnitFU2, 10, 15)
	b := tl.Sweep(10)
	if b.Total() != 10 {
		t.Errorf("total = %d, want 10", b.Total())
	}
	if b[0] != 8 {
		t.Errorf("idle = %d, want 8", b[0])
	}
	if got := b[1<<UnitFU1]; got != 2 {
		t.Errorf("FU1-only cycles = %d, want 2", got)
	}
}
