// Package arch is a keycomplete fixture for two encoders of one key
// set: every field here reaches the persist key's text tail, and VLen
// is missing from the memo key's binary tail only.
package arch

type RegFile struct {
	VRegs int
	VLen  int // want `field RegFile.VLen never reaches memoKey/appendMachineBin;`
}

type Spec struct {
	Name string //mtvlint:allow keycomplete -- display label, carries no semantics
	RegFile
	Widgets int
}
