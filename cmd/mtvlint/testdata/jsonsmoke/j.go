// Package jsonsmoke is a deliberately-broken fixture for the -json
// output test: the unmatched Acquire below must surface as exactly
// one slotpair finding.
package jsonsmoke

type gate struct{}

func (g *gate) Acquire(max int) int { return max }
func (g *gate) Release(n int)       {}

func leak(g *gate) int {
	return g.Acquire(2)
}
