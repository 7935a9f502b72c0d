// Package prog represents static programs (basic blocks of ISA
// instructions) and their expansion into dynamic instruction streams.
//
// The expansion mirrors the paper's Dixie methodology (Section 4.1): a
// static program plus four trace streams — the basic-block trace, the
// vector-length trace, the vector-stride trace and the memory-address
// trace — fully determine the dynamic instruction stream a simulator
// consumes. Package trace serializes the four streams; package workload
// synthesizes them.
package prog

import (
	"fmt"

	"mtvec/internal/isa"
)

// BasicBlock is a straight-line sequence of instructions.
type BasicBlock struct {
	Label string
	Insts []isa.Inst
}

// Program is a named static program: a list of basic blocks. Control flow
// between blocks is not encoded statically; the basic-block trace carries
// the executed block sequence, exactly as Dixie traces did.
type Program struct {
	Name   string
	Blocks []BasicBlock

	pcBase []uint32 // first PC of each block; built lazily
}

// Validate checks every instruction in every block.
func (p *Program) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("prog: program has no name")
	}
	if len(p.Blocks) == 0 {
		return fmt.Errorf("prog: %s: no basic blocks", p.Name)
	}
	for bi, b := range p.Blocks {
		if len(b.Insts) == 0 {
			return fmt.Errorf("prog: %s: block %d (%s) is empty", p.Name, bi, b.Label)
		}
		for ii, in := range b.Insts {
			if err := in.Validate(); err != nil {
				return fmt.Errorf("prog: %s: block %d (%s) inst %d: %w", p.Name, bi, b.Label, ii, err)
			}
		}
	}
	return nil
}

// NumInsts returns the static instruction count.
func (p *Program) NumInsts() int {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Insts)
	}
	return n
}

// PCBase returns the PC of the first instruction of block bi.
func (p *Program) PCBase(bi int) uint32 {
	if p.pcBase == nil {
		p.pcBase = make([]uint32, len(p.Blocks))
		var pc uint32
		for i, b := range p.Blocks {
			p.pcBase[i] = pc
			pc += uint32(len(b.Insts))
		}
	}
	return p.pcBase[bi]
}

// TraceSource supplies the four dynamic streams during expansion. A source
// either synthesizes values (workloads) or replays a trace file.
//
// NextBB returns false at end of trace; the other methods are called only
// as demanded by the instructions of the traced blocks, in program order.
// Implementations report read/decode failures through Err; a failing
// source must end the basic-block stream.
type TraceSource interface {
	NextBB() (int, bool)
	NextVL() int64
	NextStride() int64
	NextAddr() uint64
	Err() error
}
