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
// predecoded instruction slice (NewDecodedStream) — the hot-path form
// trace.Trace caches so repeated replays skip the per-instruction decode
// entirely. In both modes NextDec hands out the compact DecodedInst the
// simulators dispatch from and Next the full DynInst; a predecoded
// stream has no full DynInsts of its own, so its Next expands the
// trace's source replay, opened on the first Next call.
//
// Next and NextDec share one position: each delivers the instruction
// after the last one either of them delivered, and Count counts both.
// A predecoded stream's Next first expands its source replay past any
// instructions NextDec handed out since the last Next, so mixing the two
// never repeats or skips an instruction; it only costs that expansion.
type Stream struct {
	prog *Program
	src  TraceSource

	// dec, when non-nil, selects the predecoded replay mode: NextDec
	// hands out successive entries instead of expanding the program.
	// rep opens the source replay Next expands in this mode; src stays
	// nil until the first Next.
	dec []DecodedInst
	di  int
	rep Replayer

	// buf backs NextDec in source-driven mode.
	buf DecodedInst

	vl    int64 // architectural vector length register
	vs    int64 // architectural vector stride register (bytes)
	maxVL int64 // hardware vector length: SetVL values clamp to it

	bb    int
	idx   int
	inBB  bool
	count int64 // instructions expanded from src

	// Current-block cache: insts and pcBase mirror Blocks[bb] so the
	// per-instruction path needs no repeated double indexing.
	insts  []isa.Inst
	pcBase uint32

	err error
}

// Replayer opens independent replays of one recorded trace, each
// positioned at its beginning. *trace.Trace is one.
type Replayer interface {
	Source() TraceSource
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

// DecodedInst is a dynamic instruction reduced to what dispatch reads:
// the opcode and operands, the vector length and stride it executes
// under, and its precomputed static decode — the dispatch-relevant
// opcode properties and the vector source registers. Simulators consume
// these via Stream.NextDec without recomputing either per dispatch;
// entries of a predecoded slice are shared and immutable.
//
// The layout is 24 bytes, the unit the predecode cache multiplies by
// every dynamic instruction of a trace. It leaves out the DynInst fields
// the timing model never reads: the PC, the immediate, the memory base
// address (the memory system schedules from the stride and vector
// length alone) and the value SetVL/SetVS install (already folded into
// VL and Stride). Stream.Next delivers the full DynInst. The struct is
// pointer-free so megabytes of predecoded instructions cost the garbage
// collector nothing to scan.
type DecodedInst struct {
	Op    isa.Op
	Kind  isa.Kind // dispatch classification of Op
	FU1OK bool     // vector arithmetic may run on FU1
	Load  bool     // reads memory
	NVSrc uint8    // number of vector source registers
	VSrcs [2]uint8 // vector source registers (store data, indices)

	Dst, Src1, Src2 isa.Operand

	VL     uint16 // vector length at execution time (vector ops)
	Stride int64  // stride in bytes (vector memory ops)
}

// decode sets every field of dec from the dynamic instruction d. It
// overwrites the whole value, unused VSrcs slots included, so entries
// are canonical even when dec is a reused buffer (NextDec): two equal
// dynamic instructions always decode to byte-equal DecodedInsts.
//
// It writes dec with one composite literal, the vector sources gathered
// beforehand: DecodeAllVL over the ten Table 3 traces then takes 39.6
// ns per instruction, against 43.6 when VSrcs is written through dec
// after the literal and 38.8 for the old 56-byte entry (medians of 8
// interleaved 1 s runs; 2-vCPU Xeon, Go 1.24).
func (dec *DecodedInst) decode(d *isa.DynInst) {
	info := isa.InfoPtr(d.Op)
	var vs [2]uint8
	n := d.VSources(&vs)
	*dec = DecodedInst{
		Op:     d.Op,
		Kind:   info.Kind,
		FU1OK:  info.FU1OK,
		Load:   info.Load,
		NVSrc:  uint8(n),
		VSrcs:  vs,
		Dst:    d.Dst,
		Src1:   d.Src1,
		Src2:   d.Src2,
		VL:     d.VL,
		Stride: d.Stride,
	}
}

// NewDecodedStream creates a stream replaying a predecoded instruction
// sequence (as produced by DecodeAllVL). The slice is read, never
// written; one slice can back any number of concurrent streams. p,
// rep and maxVL are the program, replay and hardware vector length the
// slice was decoded from: NextDec reads only the slice, and Next
// expands a source replay rep opens to deliver full DynInsts.
func NewDecodedStream(p *Program, insts []DecodedInst, rep Replayer, maxVL int64) *Stream {
	s := NewStreamVL(p, nil, maxVL)
	s.dec, s.rep = insts, rep
	return s
}

// DecodeAllVL drains a fresh source-driven stream of p, at the given
// hardware vector length (see NewStreamVL; maxVL <= 0 selects the
// reference isa.MaxVL), into a predecoded instruction slice of length
// capacity hint n. It returns the slice and the stream's terminal
// error, if any.
func DecodeAllVL(p *Program, src TraceSource, n, maxVL int64) ([]DecodedInst, error) {
	if n < 0 {
		n = 0
	}
	dec := make([]DecodedInst, 0, n)
	s := NewStreamVL(p, src, maxVL)
	var d isa.DynInst
	var e DecodedInst
	for s.expand(&d) {
		e.decode(&d)
		dec = append(dec, e)
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
	var d isa.DynInst
	if s.dec != nil || !s.expand(&d) {
		return nil
	}
	s.buf.decode(&d)
	return &s.buf
}

// Next fills d with the next dynamic instruction, reporting false at end
// of trace. d is fully overwritten.
func (s *Stream) Next(d *isa.DynInst) bool {
	if s.dec == nil {
		return s.expand(d)
	}
	if s.di >= len(s.dec) {
		return false
	}
	if s.src == nil {
		s.src = s.rep.Source()
	}
	// Expand through instruction di, skipping the ones NextDec handed
	// out since the last Next.
	for s.count <= int64(s.di) {
		if !s.expand(d) {
			return false
		}
	}
	s.di++
	return true
}

// expand fills d with the next instruction of the source-driven
// expansion, reporting false at end of trace.
func (s *Stream) expand(d *isa.DynInst) bool {
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
