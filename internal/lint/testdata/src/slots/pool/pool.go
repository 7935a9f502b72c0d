// Package pool is a slotpair fixture: Acquire-family calls on types
// with a matching Release must pair with a deferred release in the same
// function.
package pool

type Gate struct{ n int }

func (g *Gate) Acquire(max int) int { return max }
func (g *Gate) Release(n int)       {}

type Pool struct{ slots *Gate }

func leak(p *Pool) int {
	return p.slots.Acquire(4) // want `p.slots.Acquire result is not matched by a deferred p.slots.Release`
}

func good(p *Pool) {
	n := p.slots.Acquire(4)
	defer p.slots.Release(n)
}

func goodClosure(p *Pool) {
	n := p.slots.Acquire(4)
	defer func() { p.slots.Release(n) }()
}

// Timeline pairs by suffix: AcquireBacking demands ReleaseBacking.
type Timeline struct{}

func (t *Timeline) AcquireBacking() {}
func (t *Timeline) ReleaseBacking() {}

type M struct{ tl Timeline }

func leakSuffix(m *M) {
	m.tl.AcquireBacking() // want `m.tl.AcquireBacking result is not matched by a deferred m.tl.ReleaseBacking`
}

func goodSuffix(m *M) {
	m.tl.AcquireBacking()
	defer m.tl.ReleaseBacking()
}

func crossFunction(m *M) {
	//mtvlint:allow slotpair -- released by a finalizer elsewhere; fixture for the directive
	m.tl.AcquireBacking()
}

// Src has Acquire but no Release: not a paired protocol, no obligation.
type Src struct{}

func (s *Src) Acquire() {}

func unpaired(s *Src) {
	s.Acquire()
}
