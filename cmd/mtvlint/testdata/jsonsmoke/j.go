// Package jsonsmoke is a deliberately-broken fixture for the -json
// output test: the order-dependent return below must surface as
// exactly one determinism finding.
package jsonsmoke

func firstKey(m map[string]int) string {
	for k := range m {
		return k
	}
	return ""
}
