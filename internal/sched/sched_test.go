package sched

import (
	"math/rand"
	"testing"
)

// fakeView is a scriptable MachineView.
type fakeView struct {
	work         []bool
	dispatchable []bool
}

func (f *fakeView) NumThreads() int         { return len(f.work) }
func (f *fakeView) HasWork(t int) bool      { return f.work[t] }
func (f *fakeView) Dispatchable(t int) bool { return f.dispatchable[t] }

func TestUnfairKeepsRunningThread(t *testing.T) {
	v := &fakeView{work: []bool{true, true, true}, dispatchable: []bool{true, true, true}}
	p := Unfair{}
	if got := p.Pick(v, 2, false); got != 2 {
		t.Fatalf("unblocked current thread not kept: %d", got)
	}
}

func TestUnfairSwitchesToLowestUnblocked(t *testing.T) {
	v := &fakeView{work: []bool{true, true, true}, dispatchable: []bool{false, true, true}}
	p := Unfair{}
	if got := p.Pick(v, 0, true); got != 1 {
		t.Fatalf("switch target = %d, want 1", got)
	}
	// Thread 0 regains priority the moment it is dispatchable.
	v.dispatchable[0] = true
	if got := p.Pick(v, 2, true); got != 0 {
		t.Fatalf("switch target = %d, want 0 (lowest)", got)
	}
}

func TestUnfairAllBlockedAttemptsLowest(t *testing.T) {
	v := &fakeView{work: []bool{false, true, true}, dispatchable: []bool{false, false, false}}
	p := Unfair{}
	if got := p.Pick(v, 1, true); got != 1 {
		t.Fatalf("all-blocked pick = %d, want 1 (lowest with work)", got)
	}
}

func TestUnfairNoWork(t *testing.T) {
	v := &fakeView{work: []bool{false, false}, dispatchable: []bool{false, false}}
	p := Unfair{}
	if got := p.Pick(v, 0, true); got != -1 {
		t.Fatalf("pick with no work = %d, want -1", got)
	}
}

func TestUnfairSkipsFinishedCurrent(t *testing.T) {
	v := &fakeView{work: []bool{false, true}, dispatchable: []bool{false, true}}
	p := Unfair{}
	if got := p.Pick(v, 0, false); got != 1 {
		t.Fatalf("finished current not abandoned: %d", got)
	}
}

func TestRoundRobinStartsAfterCurrent(t *testing.T) {
	v := &fakeView{work: []bool{true, true, true}, dispatchable: []bool{true, false, true}}
	p := RoundRobin{}
	if got := p.Pick(v, 0, true); got != 2 {
		t.Fatalf("round-robin pick = %d, want 2 (1 blocked)", got)
	}
	if got := p.Pick(v, 2, true); got != 0 {
		t.Fatalf("round-robin wrap = %d, want 0", got)
	}
	// Unblocked current stays.
	if got := p.Pick(v, 0, false); got != 0 {
		t.Fatalf("round-robin kept = %d, want 0", got)
	}
}

func TestEveryCycleRotates(t *testing.T) {
	v := &fakeView{work: []bool{true, true, true}, dispatchable: []bool{true, true, true}}
	p := EveryCycle{}
	if got := p.Pick(v, 0, false); got != 1 {
		t.Fatalf("every-cycle pick = %d, want 1", got)
	}
	if got := p.Pick(v, 2, false); got != 0 {
		t.Fatalf("every-cycle wrap = %d, want 0", got)
	}
}

func TestLRUEqualizes(t *testing.T) {
	v := &fakeView{work: []bool{true, true, true}, dispatchable: []bool{true, true, true}}
	p := &LRU{}
	// Thread 0 runs a while.
	for i := 0; i < 5; i++ {
		if got := p.Pick(v, 0, false); got != 0 {
			t.Fatalf("LRU kept = %d", got)
		}
	}
	// On block, least recently run (1 or 2, both never) wins; ties by
	// scan order give 1, then 2.
	if got := p.Pick(v, 0, true); got != 1 {
		t.Fatalf("LRU pick = %d, want 1", got)
	}
	if got := p.Pick(v, 1, true); got != 2 {
		t.Fatalf("LRU pick = %d, want 2", got)
	}
	// Now thread 0 is the stalest.
	if got := p.Pick(v, 2, true); got != 0 {
		t.Fatalf("LRU pick = %d, want 0", got)
	}
}

func TestByNameAndNames(t *testing.T) {
	for _, n := range Names() {
		p := ByName(n)
		if p == nil || p.Name() != n {
			t.Errorf("ByName(%q) broken", n)
		}
	}
	if ByName("nope") != nil {
		t.Error("unknown policy should be nil")
	}
}

func TestCloneReturnsUsableInstances(t *testing.T) {
	for _, name := range Names() {
		p := ByName(name)
		c := p.Clone()
		if c == nil || c.Name() != name {
			t.Fatalf("%s: Clone() = %v", name, c)
		}
	}
}

// TestLRUCloneDropsState: a cloned LRU must not inherit the original's
// recency history, so one Config can back many machines.
func TestLRUCloneDropsState(t *testing.T) {
	p := &LRU{}
	v := &fakeView{work: []bool{true, true, true}, dispatchable: []bool{true, true, true}}
	// Bias the original: run thread 2 so it becomes most-recent.
	p.Pick(v, 2, false)
	p.Pick(v, 2, false)

	c := p.Clone().(*LRU)
	if c.lastRun != nil || c.tick != 0 {
		t.Fatalf("clone inherited state: lastRun=%v tick=%d", c.lastRun, c.tick)
	}
	// A fresh instance and the clone make the same first pick; the
	// original, carrying history, must not be affected by the clone.
	fresh := &LRU{}
	if got, want := c.Pick(v, 0, true), fresh.Pick(v, 0, true); got != want {
		t.Fatalf("clone pick %d != fresh pick %d", got, want)
	}
	if p.lastRun == nil {
		t.Fatal("original lost its state after Clone")
	}
}

// TestPickLoneThread is the lemma the decode unit's lone-thread fast path
// rests on: when exactly one thread has work, every built-in policy picks
// it, whatever the current thread, whether it blocked, whether the lone
// thread is dispatchable, and (for LRU) whatever pick history came first.
func TestPickLoneThread(t *testing.T) {
	const n = 4
	rng := rand.New(rand.NewSource(1))
	for _, name := range Names() {
		// Pick histories replayed before the lone-thread pick: random
		// views and arguments, so LRU's recency state is arbitrary. The
		// stateless policies need only the empty history.
		histories := [][]func(Policy){nil}
		for h := 0; name == "lru" && h < 20; h++ {
			var hist []func(Policy)
			for k := rng.Intn(30); k > 0; k-- {
				v := &fakeView{work: make([]bool, n), dispatchable: make([]bool, n)}
				for th := range v.work {
					v.work[th] = rng.Intn(4) > 0
					v.dispatchable[th] = v.work[th] && rng.Intn(2) == 0
				}
				cur, blocked := rng.Intn(n+1)-1, rng.Intn(2) == 0
				hist = append(hist, func(p Policy) { p.Pick(v, cur, blocked) })
			}
			histories = append(histories, hist)
		}
		for hi, hist := range histories {
			for lone := 0; lone < n; lone++ {
				for cur := -1; cur < n; cur++ {
					for _, blocked := range []bool{false, true} {
						for _, disp := range []bool{false, true} {
							p := ByName(name)
							for _, pick := range hist {
								pick(p)
							}
							v := &fakeView{work: make([]bool, n), dispatchable: make([]bool, n)}
							v.work[lone], v.dispatchable[lone] = true, disp
							if got := p.Pick(v, cur, blocked); got != lone {
								t.Errorf("%s history %d: Pick(current=%d, blocked=%t) with only thread %d (dispatchable=%t) = %d",
									name, hi, cur, blocked, lone, disp, got)
							}
						}
					}
				}
			}
		}
	}
}
