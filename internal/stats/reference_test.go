package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// listTimeline is the reference UnitTimeline: it keeps every busy
// interval, merged per unit, and sweeps the lists into a breakdown at
// the end. UnitTimeline settles as it goes instead; on any stream in
// global start order the two must agree.
type listTimeline struct {
	busy [NumUnits][]struct{ S, E Cycle }
}

func (tl *listTimeline) AddBusy(unit int, start, end Cycle) {
	if end <= start {
		return
	}
	list := tl.busy[unit]
	if n := len(list); n > 0 && start <= list[n-1].E {
		list[n-1].E = max(list[n-1].E, end)
		return
	}
	tl.busy[unit] = append(list, struct{ S, E Cycle }{start, end})
}

// Sweep computes the state breakdown over [0, total) from the lists.
func (tl *listTimeline) Sweep(total Cycle) Breakdown {
	var b Breakdown
	var idx [NumUnits]int
	for t := Cycle(0); t < total; {
		state := State(0)
		next := total
		for u := 0; u < NumUnits; u++ {
			list := tl.busy[u]
			for idx[u] < len(list) && list[idx[u]].E <= t {
				idx[u]++
			}
			if idx[u] >= len(list) {
				continue
			}
			iv := list[idx[u]]
			if iv.S <= t {
				state |= 1 << u
				next = min(next, iv.E)
			} else {
				next = min(next, iv.S)
			}
		}
		b[state] += next - t
		t = next
	}
	return b
}

// unitBusy returns the cycles unit u was busy, read off a breakdown.
func unitBusy(b Breakdown, u int) Cycle {
	var busy Cycle
	for s := 0; s < NumStates; s++ {
		if s&(1<<u) != 0 {
			busy += b[s]
		}
	}
	return busy
}

// TestSweepMatchesListReference: on random interval streams in global
// start order the settled breakdown equals the list-based sweep's, at
// every horizon at or above the latest start, with no violation. The
// streams mix same-unit overlaps (two lanes of one unit class), equal
// starts across units, empty and inverted intervals, and horizons that
// cut open intervals; sweeps taken mid-stream must not disturb the
// intervals added after them.
func TestSweepMatchesListReference(t *testing.T) {
	before := TimelineViolations()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var got UnitTimeline
		var want listTimeline
		s := Cycle(0)
		for i, n := 0, 1+r.Intn(80); i < n; i++ {
			s += Cycle(r.Intn(4))
			u := r.Intn(NumUnits)
			e := s + Cycle(r.Intn(24)-4) // some empty or inverted
			got.AddBusy(u, s, e)
			want.AddBusy(u, s, e)
			if r.Intn(8) == 0 {
				h := s + Cycle(r.Intn(10))
				if got.Sweep(h) != want.Sweep(h) {
					t.Logf("seed %d: mid-stream horizon %d differs", seed, h)
					return false
				}
			}
		}
		for _, h := range []Cycle{s, s + 1, s + Cycle(r.Intn(30)), s + 100} {
			if g, w := got.Sweep(h), want.Sweep(h); g != w {
				t.Logf("seed %d: horizon %d: settled %v, reference %v", seed, h, g, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if got := TimelineViolations() - before; got != 0 {
		t.Fatalf("in-order streams counted %d violation(s)", got)
	}
}
