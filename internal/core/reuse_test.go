package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// reuse_test.go is the differential gate for machine recycling: a point
// built on a machine that already ran and was reset (what New takes
// from the pool) must produce the Report, error and event stream the
// same point produces on new(Machine).

// runOn builds pt on m and runs it, with an event log attached when
// observed. A config that fails to build is an outcome too.
func runOn(t testing.TB, m *Machine, pt diffPoint, observed bool) loneOutcome {
	t.Helper()
	cfg := pt.cfg
	var log *eventLog
	if observed {
		log = &eventLog{}
		cfg.Observers = append(append([]Observer(nil), cfg.Observers...), log)
	}
	if err := m.build(cfg); err != nil {
		return loneOutcome{err: err}
	}
	if err := pt.attach(m); err != nil {
		t.Fatalf("%s: attach: %v", pt.name, err)
	}
	rep, err := runGuarded(t, pt.name, pt.stop, m.Run)
	return loneOutcome{rep: rep, log: log, err: err}
}

// recycle resets m as Release does, and fails the test if the reset
// machine still references anything of its run.
func recycle(t testing.TB, m *Machine) {
	t.Helper()
	m.reset()
	if !reflect.ValueOf(m.cfg).IsZero() {
		t.Fatalf("a reset machine keeps its config: %+v", m.cfg)
	}
	for i, c := range m.ctxs[:cap(m.ctxs)] {
		if !reflect.ValueOf(c).IsZero() {
			t.Fatalf("a reset machine keeps context %d: %+v", i, c)
		}
	}
	for i, o := range m.obs[:cap(m.obs)] {
		if o != nil {
			t.Fatalf("a reset machine keeps observer %d", i)
		}
	}
}

// checkReuse runs pt on m, which may hold an earlier run's state once
// reset, and on a new machine, and fails if the outcomes differ. It
// leaves m reset.
func checkReuse(t testing.TB, m *Machine, pt diffPoint, observed bool) {
	t.Helper()
	got := runOn(t, m, pt, observed)
	recycle(t, m)
	want := runOn(t, new(Machine), pt, observed)
	if d := sameOutcome(got, want); d != "" {
		t.Errorf("%s/observed=%t on a recycled machine: %s", pt.name, observed, d)
	}
}

// TestMachineReuse runs the first 208 generator points (randPoint) in a
// shuffled order on one recycled machine, observed or not at random,
// and compares each with the point on a new machine. The sequence
// includes out-of-shape error points, multi-context, dual-scalar and
// issue-width-2 points, so every shape grows or shrinks the recycled
// machine's state after some other shape ran on it.
func TestMachineReuse(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	seeds := r.Perm(208)
	var outOfShape, multi, dual, wide int
	m := new(Machine)
	for _, seed := range seeds {
		pt := randPoint(int64(seed))
		if pt.cfg.VLen == 64 {
			outOfShape++
		}
		if pt.cfg.Contexts > 1 {
			multi++
		}
		if pt.cfg.DualScalar {
			dual++
		}
		if pt.cfg.IssueWidth > 1 {
			wide++
		}
		checkReuse(t, m, pt, r.Intn(2) == 0)
	}
	if outOfShape == 0 || multi == 0 || dual == 0 || wide == 0 {
		t.Fatalf("sequence lacks a kind of point: %d out of shape, %d multi-context, %d dual-scalar, %d issue width 2",
			outOfShape, multi, dual, wide)
	}
}

// TestReleaseTwice: a second Release of one machine is a no-op, so the
// pool never hands the same machine to two callers.
func TestReleaseTwice(t *testing.T) {
	m, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	m.Release()
	m.Release()
	a, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("New returned one machine twice after a double Release")
	}
}

// FuzzMachineReuse runs fuzzed seed pairs through one machine (point a,
// then point b on the recycled machine) and compares b with b on a new
// machine. Run longer with:
//
//	go test -run=NONE -fuzz=FuzzMachineReuse ./internal/core
func FuzzMachineReuse(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, 15-seed, seed%2 == 0)
	}
	f.Fuzz(func(t *testing.T, a, b int64, observed bool) {
		m := new(Machine)
		checkReuse(t, m, randPoint(a), !observed)
		checkReuse(t, m, randPoint(b), observed)
	})
}
