package prog

import (
	"fmt"

	"mtvec/internal/isa"
)

// Stream expands a static program against a TraceSource into the dynamic
// instruction stream. It maintains the architectural vector-length and
// vector-stride registers: SetVL/SetVS instructions install values drawn
// from the VL/stride traces, and subsequent vector instructions execute
// under them, exactly as on the traced machine.
//
// A Stream is single-use; create a new one (with a fresh TraceSource) to
// restart a program.
//
// A Stream has two replay modes: expanding a static program against a
// TraceSource instruction by instruction (NewStream), or indexing a
// predecoded dynamic instruction slice (NewDecodedStream) — the hot-path
// form trace.Trace caches so repeated replays skip the per-instruction
// decode entirely. Both modes deliver bit-identical DynInst sequences.
type Stream struct {
	prog *Program
	src  TraceSource

	// dec, when non-nil, selects the predecoded replay mode: NextDec
	// hands out successive entries instead of expanding the program.
	dec []DecodedInst
	di  int

	// buf backs NextDec in source-driven mode.
	buf DecodedInst

	vl    int64 // architectural vector length register
	vs    int64 // architectural vector stride register (bytes)
	maxVL int64 // hardware vector length: SetVL values clamp to it

	bb    int
	idx   int
	inBB  bool
	count int64 // source-driven mode only; a predecoded replay counts di

	// Current-block cache: insts and pcBase mirror Blocks[bb] so the
	// per-instruction path needs no repeated double indexing.
	insts  []isa.Inst
	pcBase uint32

	err error
}

// NewStream creates a dynamic stream for p fed by src. The VL register
// resets to the hardware vector length (isa.MaxVL, the reference
// machine's) and the stride register to one element, the conventional
// initial state.
func NewStream(p *Program, src TraceSource) *Stream {
	return NewStreamVL(p, src, 0)
}

// NewStreamVL is NewStream for a machine whose vector registers hold
// maxVL elements: the VL register resets to maxVL and SetVL values clamp
// to it, exactly as the traced machine would have executed them. maxVL
// <= 0 selects the reference isa.MaxVL.
func NewStreamVL(p *Program, src TraceSource, maxVL int64) *Stream {
	if maxVL <= 0 {
		maxVL = isa.MaxVL
	}
	return &Stream{prog: p, src: src, vl: maxVL, maxVL: maxVL, vs: isa.ElemBytes}
}

// DecodedInst is a dynamic instruction plus its precomputed static
// decode: the dispatch-relevant opcode properties and the vector source
// registers. Simulators consume these via Stream.NextDec without
// recomputing either per dispatch; entries of a predecoded slice are
// shared and immutable. The struct is deliberately pointer-free so
// megabytes of predecoded instructions cost the garbage collector
// nothing to scan.
type DecodedInst struct {
	isa.DynInst
	Kind  isa.Kind // dispatch classification of Op
	FU1OK bool     // vector arithmetic may run on FU1
	Load  bool     // reads memory
	NVSrc uint8    // number of vector source registers
	VSrcs [2]uint8 // vector source registers (store data, indices)
}

// decodeAux fills the precomputed decode fields from the DynInst. It
// zeroes the unused VSrcs slots so entries are canonical values even
// when the receiver is a reused buffer (DecodeAll, NextDec): two equal
// dynamic instructions always decode to byte-equal DecodedInsts.
func (d *DecodedInst) decodeAux() {
	info := isa.InfoPtr(d.Op)
	d.Kind = info.Kind
	d.FU1OK = info.FU1OK
	d.Load = info.Load
	d.VSrcs = [2]uint8{}
	d.NVSrc = uint8(d.Inst.VSources(&d.VSrcs))
}

// NewDecodedStream creates a stream replaying a predecoded dynamic
// instruction sequence (as produced by DecodeAll). The slice is read,
// never written; one slice can back any number of concurrent streams.
// p records the static program for Program() and may be nil.
func NewDecodedStream(p *Program, insts []DecodedInst) *Stream {
	return &Stream{prog: p, dec: insts}
}

// DecodeAll drains a fresh source-driven stream of p into a predecoded
// instruction slice of length capacity hint n. It returns the slice and
// the stream's terminal error, if any.
func DecodeAll(p *Program, src TraceSource, n int64) ([]DecodedInst, error) {
	return DecodeAllVL(p, src, n, 0)
}

// DecodeAllVL is DecodeAll at the given hardware vector length (see
// NewStreamVL); maxVL <= 0 selects the reference isa.MaxVL.
func DecodeAllVL(p *Program, src TraceSource, n, maxVL int64) ([]DecodedInst, error) {
	if n < 0 {
		n = 0
	}
	dec := make([]DecodedInst, 0, n)
	s := NewStreamVL(p, src, maxVL)
	var d DecodedInst
	for s.Next(&d.DynInst) {
		d.decodeAux()
		dec = append(dec, d)
	}
	return dec, s.Err()
}

// Program returns the static program this stream expands.
func (s *Stream) Program() *Program { return s.prog }

// Count returns the number of dynamic instructions delivered so far.
func (s *Stream) Count() int64 {
	if s.dec != nil {
		return int64(s.di)
	}
	return s.count
}

// Err returns the first error encountered (bad block index, failing
// source). A stream that ends with Err() == nil ended normally.
func (s *Stream) Err() error {
	if s.err != nil {
		return s.err
	}
	if s.src == nil {
		return nil
	}
	return s.src.Err()
}

// NextDec returns the next instruction with its precomputed decode, or
// nil at end of trace. The returned value is valid until the following
// NextDec call: predecoded replays hand out shared immutable entries,
// source-driven replays reuse an internal buffer. Callers must not
// mutate it.
//
// The predecoded case is small enough to inline into the caller (at the
// inliner's budget: keep it that way); the end of a replay and the
// source-driven mode go out of line. Inlining it made
// engine/solo-policies 0.94x the time of the single out-of-line method
// (median of 12 alternating 2 s samples, faster in 10; 2-vCPU Xeon,
// Go 1.24).
func (s *Stream) NextDec() *DecodedInst {
	if s.di >= len(s.dec) {
		return s.nextDecSlow()
	}
	s.di++
	return &s.dec[s.di-1]
}

// nextDecSlow is NextDec past the end of a predecoded replay, and every
// NextDec of a source-driven one.
func (s *Stream) nextDecSlow() *DecodedInst {
	if s.dec != nil || !s.Next(&s.buf.DynInst) {
		return nil
	}
	s.buf.decodeAux()
	return &s.buf
}

// Next fills d with the next dynamic instruction, reporting false at end
// of trace. d is fully overwritten.
func (s *Stream) Next(d *isa.DynInst) bool {
	if s.dec != nil {
		if s.di >= len(s.dec) {
			return false
		}
		*d = s.dec[s.di].DynInst
		s.di++
		return true
	}
	if s.err != nil {
		return false
	}
	for !s.inBB || s.idx >= len(s.insts) {
		bb, ok := s.src.NextBB()
		if !ok {
			return false
		}
		if bb < 0 || bb >= len(s.prog.Blocks) {
			s.err = fmt.Errorf("prog: %s: trace names block %d of %d", s.prog.Name, bb, len(s.prog.Blocks))
			return false
		}
		s.bb, s.idx, s.inBB = bb, 0, true
		s.insts = s.prog.Blocks[bb].Insts
		s.pcBase = s.prog.PCBase(bb)
	}

	in := s.insts[s.idx]
	*d = isa.DynInst{Inst: in, PC: s.pcBase + uint32(s.idx)}
	s.idx++
	s.count++

	switch isa.KindOf(in.Op) {
	case isa.KindVLVS:
		if in.Op == isa.OpSetVL {
			v := s.src.NextVL()
			if v < 1 {
				v = 1
			}
			if v > s.maxVL {
				v = s.maxVL
			}
			s.vl = v
			d.SetVal = s.vl
		} else {
			s.vs = s.src.NextStride()
			d.SetVal = s.vs
		}
	case isa.KindVector:
		d.VL = uint16(s.vl)
	case isa.KindVectorMem:
		d.VL = uint16(s.vl)
		d.Stride = s.vs
		d.Addr = s.src.NextAddr()
	case isa.KindScalarMem:
		d.Addr = s.src.NextAddr()
	}
	return true
}

// Drain consumes the rest of the stream, returning the number of dynamic
// instructions seen and accumulated statistics. Profile computes the
// same statistics per basic block without expanding instructions; Drain
// is the per-instruction reference it is tested against.
func (s *Stream) Drain() (int64, Stats, error) {
	var st Stats
	var d isa.DynInst
	var n int64
	for s.Next(&d) {
		st.Add(&d)
		n++
	}
	return n, st, s.Err()
}
