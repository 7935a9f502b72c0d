// Package session is a keycomplete fixture with a text and a binary
// machine encoder: a machine field one encoder drops is flagged even
// though the other encodes it, while a RunSpec field needs only one.
package session

import "keys/binary/internal/arch"

type RunSpec struct {
	mode  int
	sched []int // read by memoKey only, as the real schedule is
}

func (s *RunSpec) memoKey(sp *arch.Spec) string {
	b := appendMachineBin([]byte{byte(s.mode), byte(len(s.sched))}, sp)
	return string(b)
}

func (s *RunSpec) persistKey(sp *arch.Spec) string {
	b := appendMachineKey([]byte{byte(s.mode)}, sp)
	return string(b)
}

// appendMachineBin drops VLen.
func appendMachineBin(b []byte, sp *arch.Spec) []byte {
	return append(b, byte(sp.VRegs), byte(sp.Widgets))
}

// appendMachineKey encodes every machine field.
func appendMachineKey(b []byte, sp *arch.Spec) []byte {
	return append(b, byte(sp.VRegs), byte(sp.VLen), byte(sp.Widgets))
}
