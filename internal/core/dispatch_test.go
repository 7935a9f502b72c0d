package core

import (
	"testing"

	"mtvec/internal/isa"
)

// TestProbeBooksNothing: a walk without book leaves the machine as it
// found it, so walking the same head again in the same cycle gives the
// same answer. Every booking a walker makes (a functional unit, the
// load/store unit, a memory port, a destination register or scoreboard
// entry) fails a second walk, so a walker that books before its !book
// return fails here. The memo is bypassed; the machine steps through
// stepShared between cycles.
func TestProbeBooksNothing(t *testing.T) {
	for _, disableFF := range []bool{false, true} {
		cfg := testConfig(3)
		cfg.DisableFastForward = disableFF
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range m.ctxs {
			if err := m.SetThreadStream(i, "mix", mixedStream(i, 6)); err != nil {
				t.Fatal(err)
			}
		}
		passed := map[isa.Kind]int{}
		for m.exhaustedCtxs < len(m.ctxs) {
			for i := range m.ctxs {
				c := &m.ctxs[i]
				if !c.refill(m) {
					continue
				}
				ok1, h1 := m.dispatch(c, false)
				ok2, h2 := m.dispatch(c, false)
				if ok1 != ok2 || h1 != h2 {
					t.Fatalf("ff=%t cycle %d ctx %d %v: second probe (%t, %d) != first (%t, %d)",
						!disableFF, m.now, i, c.head.Kind, ok2, h2, ok1, h1)
				}
				if ok1 {
					passed[c.head.Kind]++
				}
			}
			m.stepShared()
			m.now++
		}
		for _, k := range []isa.Kind{isa.KindScalar, isa.KindScalarMem, isa.KindVector, isa.KindVectorMem} {
			if passed[k] == 0 {
				t.Errorf("ff=%t: no passing probe of a %v head", !disableFF, k)
			}
		}
	}
}
