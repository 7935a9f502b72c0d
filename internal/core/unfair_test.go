package core

import (
	"strings"
	"testing"

	"mtvec/internal/sched"
)

// unfair_test.go pins the devirtualized default policy to the generic
// one. A machine given sched.Unfair{} picks through pickUnfair, which
// books the first thread that passes in the scan's own walk. The same
// policy behind a type the machine does not recognise runs the generic
// path: Policy.Pick probes threads through Dispatchable, and stepShared
// books the pick afterwards, walking a passing head a second time. Both
// must produce field-identical Reports and observer event streams.

// hiddenUnfair is sched.Unfair under another type, so New does not
// devirtualize it.
type hiddenUnfair struct{ sched.Unfair }

// Clone keeps the wrapper; the embedded Clone would unwrap it.
func (p hiddenUnfair) Clone() sched.Policy { return p }

// unfairPathPoint is randPoint(seed) under the Unfair policy, or false
// when the point has a single context or dual-scalar decode, where no
// policy is consulted.
func unfairPathPoint(seed int64) (diffPoint, bool) {
	pt := randPoint(seed)
	if pt.cfg.Contexts < 2 || pt.cfg.DualScalar {
		return pt, false
	}
	pt.cfg.Policy = sched.Unfair{}
	for _, name := range sched.Names() { // rename randPoint's policy draw
		pt.name = strings.Replace(pt.name, "/"+name+"/", "/unfair/", 1)
	}
	return pt, true
}

// checkUnfairPath runs pt with sched.Unfair{} and with hiddenUnfair,
// observed and unobserved, and requires identical outcomes.
func checkUnfairPath(t testing.TB, pt diffPoint) {
	t.Helper()
	hidden := pt
	hidden.cfg.Policy = hiddenUnfair{}
	for _, observed := range []bool{false, true} {
		got := runPoint(t, pt, false, observed)
		want := runPoint(t, hidden, false, observed)
		if d := sameOutcome(got, want); d != "" {
			t.Errorf("%s/observed=%t: devirtualized Unfair vs Policy.Pick: %s", pt.name, observed, d)
		}
	}
}

// TestUnfairPathIsGeneric guards the differential itself: the plain
// policy must take pickUnfair and the wrapper must not.
func TestUnfairPathIsGeneric(t *testing.T) {
	for _, tc := range []struct {
		policy sched.Policy
		unfair bool
	}{{sched.Unfair{}, true}, {hiddenUnfair{}, false}} {
		cfg := testConfig(2)
		cfg.Policy = tc.policy
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.unfair != tc.unfair {
			t.Errorf("%T: devirtualized = %t, want %t", tc.policy, m.unfair, tc.unfair)
		}
	}
}

// TestUnfairPolicyPath: over randomized multi-context shared-decoder
// points, pickUnfair with its in-scan booking equals sched.Unfair.Pick
// followed by a separate booking attempt.
func TestUnfairPolicyPath(t *testing.T) {
	n := 0
	for seed := int64(0); seed < 600; seed++ {
		if pt, ok := unfairPathPoint(seed); ok {
			checkUnfairPath(t, pt)
			n++
		}
	}
	t.Logf("%d points compared", n)
	if n < 300 {
		t.Fatalf("only %d multi-context shared-decoder points compared", n)
	}
}

// FuzzUnfairPolicyPath is TestUnfairPolicyPath over fuzzed seeds. Run
// longer with:
//
//	go test -run=NONE -fuzz=FuzzUnfairPolicyPath ./internal/core
func FuzzUnfairPolicyPath(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		pt, ok := unfairPathPoint(seed)
		if !ok {
			t.Skip("single context or dual-scalar: no policy is consulted")
		}
		checkUnfairPath(t, pt)
	})
}
