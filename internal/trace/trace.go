// Package trace is the repository's analogue of the paper's Dixie trace
// system (Section 4.1). A trace file carries a static program together
// with the four dynamic streams Dixie produced on the Convex C3480: the
// basic-block trace, the vector-length trace, the vector-stride trace and
// the memory-address trace. Replaying a trace through prog.Stream
// reconstitutes the exact dynamic instruction stream.
//
// The on-disk format is a versioned, CRC-protected varint encoding.
// Traces at the default reproduction scale are small enough to hold in
// memory, so the API is load/store of a whole Trace value.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"mtvec/internal/isa"
	"mtvec/internal/prog"
)

// Trace is a fully-captured execution of a static program.
//
// The first Stream call may predecode the whole dynamic instruction
// sequence and cache it on the Trace (see Decoded); do not mutate a
// Trace's fields after streams have been created from it.
//
// A trace made by Deferred holds no streams until first use: its BBs,
// VLs, Strides and Addrs fields are valid only after a call to Source,
// Stream, Decoded, Profile, Encode or ExportRVV has synthesized them.
// Prog and MaxVL are valid from the start.
type Trace struct {
	Prog    *prog.Program
	BBs     []int32
	VLs     []int64
	Strides []int64
	Addrs   []uint64

	// MaxVL is the hardware vector length of the machine the trace was
	// generated for: replays reset the VL register to it and clamp SetVL
	// values against it. 0 means the reference isa.MaxVL. The field is
	// runtime-only (the on-disk format does not carry it; decoded traces
	// replay at the reference length).
	MaxVL int64

	decOnce sync.Once
	dec     []prog.DecodedInst // predecoded dynamic stream, nil if unavailable

	// fill synthesizes a deferred trace's streams, once; fillErr is its
	// failure, which the trace then reports as a replay error.
	fill     func() (*Trace, error)
	fillOnce sync.Once
	fillErr  error
}

// Deferred returns a trace of p at hardware vector length maxVL whose
// four streams are synthesized by fill on first use, under a sync.Once,
// so concurrent first uses synthesize once. fill must return an eager
// trace of the same program and vector length; its streams become this
// trace's. A trace whose fill fails replays nothing and reports fill's
// error from every replay. Consumers that only read Prog, MaxVL or a
// profile computed elsewhere never pay for synthesis.
func Deferred(p *prog.Program, maxVL int64, fill func() (*Trace, error)) *Trace {
	return &Trace{Prog: p, MaxVL: maxVL, fill: fill}
}

// materialize runs a deferred trace's fill, once; on an eager trace it
// does nothing.
func (t *Trace) materialize() {
	if t.fill == nil {
		return
	}
	t.fillOnce.Do(func() {
		src, err := t.fill()
		switch {
		case err != nil:
			t.fillErr = err
		case src.Prog != t.Prog || src.MaxVL != t.MaxVL:
			t.fillErr = fmt.Errorf("trace: deferred %s: synthesized trace has another program or vector length", t.Prog.Name)
		default:
			t.BBs, t.VLs, t.Strides, t.Addrs = src.BBs, src.VLs, src.Strides, src.Addrs
		}
	})
}

// maxDecodedInsts caps the predecode cache, in dynamic instructions:
// traces longer than it (48 MiB of 24-byte prog.DecodedInsts) replay
// through the TraceSource path instead of being materialized.
const maxDecodedInsts = 2 << 20

// Source returns a TraceSource replaying the captured streams. Each call
// returns an independent replay positioned at the beginning.
func (t *Trace) Source() prog.TraceSource {
	t.materialize()
	return &replay{t: t, err: t.fillErr}
}

// Stream returns a dynamic instruction stream replaying the trace.
// Reasonably-sized traces are served from a shared predecoded instruction
// sequence, built on the first replay: the paper's methodology replays
// each program many times — restarting companions, grouped sweeps,
// repeated experiment points — so the per-instruction expansion is paid
// once per trace, not once per run. Its NextDec hands out the shared
// entries; its Next expands a source replay of the trace, opened on the
// first Next call, so both deliver exactly what source replay does.
// Consumers that never replay (a workload build, which profiles its
// schedule instead) never pay for materialization.
func (t *Trace) Stream() *prog.Stream {
	if dec := t.Decoded(); dec != nil {
		return prog.NewDecodedStream(t.Prog, dec, t, t.MaxVL)
	}
	return prog.NewStreamVL(t.Prog, t.Source(), t.MaxVL)
}

// dynLen returns the trace's dynamic instruction count, without decoding.
func (t *Trace) dynLen() int64 {
	var perBlock []int64
	if t.Prog != nil {
		perBlock = make([]int64, len(t.Prog.Blocks))
		for i := range t.Prog.Blocks {
			perBlock[i] = int64(len(t.Prog.Blocks[i].Insts))
		}
	}
	var n int64
	for _, b := range t.BBs {
		// Out-of-range ids (either sign) contribute nothing here; the
		// replay itself rejects them with a proper error.
		if b >= 0 && int(b) < len(perBlock) {
			n += perBlock[b]
		}
	}
	return n
}

// Decoded returns the trace's predecoded dynamic instruction sequence,
// building and caching it on first use. It returns nil when the trace is
// too large to materialize or does not replay cleanly — callers fall back
// to Source-driven streaming, which reproduces the same sequence (and
// surfaces the same error at the same instruction, if any).
func (t *Trace) Decoded() []prog.DecodedInst {
	t.decOnce.Do(func() {
		t.materialize()
		n := t.dynLen()
		if n == 0 || n > maxDecodedInsts {
			return
		}
		dec, err := prog.DecodeAllVL(t.Prog, t.Source(), n, t.MaxVL)
		if err != nil {
			return // let the streaming path surface the error
		}
		t.dec = dec
	})
	return t.dec
}

// Profile returns the trace's dynamic statistics and replay error —
// exactly what draining a Stream of it returns — computed per basic
// block rather than per instruction (see prog.Profile). It reads the
// streams, synthesizing a deferred trace's first, without
// materializing the predecode cache.
func (t *Trace) Profile() (prog.Stats, error) {
	if t.materialize(); t.fillErr != nil {
		return prog.Stats{}, t.fillErr
	}
	var dryErr error
	st, err := prog.Profile(t.Prog, t.BBs, t.VLs, len(t.Strides), len(t.Addrs), t.MaxVL, func(stream string) {
		dryErr = exhausted(stream) // like replay, the last dry draw names the error
	})
	if err == nil {
		err = dryErr
	}
	return st, err
}

// exhausted is the replay error for a value stream that ran dry.
func exhausted(stream string) error {
	return fmt.Errorf("trace: %s stream exhausted", stream)
}

type replay struct {
	t              *Trace
	bi, vi, si, ai int
	err            error
}

func (r *replay) NextBB() (int, bool) {
	if r.err != nil || r.bi >= len(r.t.BBs) {
		return 0, false
	}
	b := int(r.t.BBs[r.bi])
	r.bi++
	return b, true
}

func (r *replay) NextVL() int64 {
	if r.vi >= len(r.t.VLs) {
		r.err = exhausted("vector-length")
		return 1
	}
	v := r.t.VLs[r.vi]
	r.vi++
	return v
}

func (r *replay) NextStride() int64 {
	if r.si >= len(r.t.Strides) {
		r.err = exhausted("stride")
		return 0
	}
	v := r.t.Strides[r.si]
	r.si++
	return v
}

func (r *replay) NextAddr() uint64 {
	if r.ai >= len(r.t.Addrs) {
		r.err = exhausted("address")
		return 0
	}
	v := r.t.Addrs[r.ai]
	r.ai++
	return v
}

func (r *replay) Err() error { return r.err }

// --- binary format ---

const (
	magic   = "MTVT"
	version = 1
)

// crcWriter hashes everything written through it.
type crcWriter struct{ sum uint32 }

func (c *crcWriter) Write(p []byte) (int, error) {
	c.sum = crc32.Update(c.sum, crc32.IEEETable, p)
	return len(p), nil
}

// Encode writes the trace in the versioned binary format: header, program
// section, four delta/varint-encoded stream sections, CRC-32 trailer.
func (t *Trace) Encode(w io.Writer) error {
	if t.materialize(); t.fillErr != nil {
		return t.fillErr
	}
	var crc crcWriter
	if err := t.encodeBody(io.MultiWriter(w, &crc)); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.sum)
	_, err := w.Write(sum[:])
	return err
}

func (t *Trace) encodeBody(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	if err := bw.WriteByte(version); err != nil {
		return err
	}
	var buf []byte
	putUvarint := func(v uint64) { buf = binary.AppendUvarint(buf[:0], v); bw.Write(buf) }
	putVarint := func(v int64) { buf = binary.AppendVarint(buf[:0], v); bw.Write(buf) }
	putString := func(s string) { putUvarint(uint64(len(s))); bw.WriteString(s) }

	putString(t.Prog.Name)
	putUvarint(uint64(len(t.Prog.Blocks)))
	for _, b := range t.Prog.Blocks {
		putString(b.Label)
		putUvarint(uint64(len(b.Insts)))
		for _, in := range b.Insts {
			buf = isa.AppendInst(buf[:0], in)
			bw.Write(buf)
		}
	}

	// Basic blocks and addresses delta-encode: deltas are small for
	// loops and array walks.
	putUvarint(uint64(len(t.BBs)))
	prev := int64(0)
	for _, b := range t.BBs {
		putVarint(int64(b) - prev)
		prev = int64(b)
	}
	putUvarint(uint64(len(t.VLs)))
	for _, v := range t.VLs {
		putVarint(v)
	}
	putUvarint(uint64(len(t.Strides)))
	for _, v := range t.Strides {
		putVarint(v)
	}
	putUvarint(uint64(len(t.Addrs)))
	prevA := uint64(0)
	for _, a := range t.Addrs {
		putVarint(int64(a - prevA))
		prevA = a
	}
	return bw.Flush()
}

// Decode reads a trace previously written by Encode, verifying the
// checksum and validating the embedded program.
func Decode(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)

	head := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head[:4]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", head[:4])
	}
	if head[4] != version {
		return nil, fmt.Errorf("trace: unsupported version %d", head[4])
	}

	getUvarint := func() (uint64, error) { return binary.ReadUvarint(br) }
	getVarint := func() (int64, error) { return binary.ReadVarint(br) }
	getString := func() (string, error) {
		n, err := getUvarint()
		if err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("trace: unreasonable string length %d", n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}

	t := &Trace{Prog: &prog.Program{}}
	var err error
	if t.Prog.Name, err = getString(); err != nil {
		return nil, fmt.Errorf("trace: program name: %w", err)
	}
	nb, err := getUvarint()
	if err != nil || nb > 1<<20 {
		return nil, fmt.Errorf("trace: block count: %w", err)
	}
	instBuf := make([]byte, 0, 32)
	for i := uint64(0); i < nb; i++ {
		var b prog.BasicBlock
		if b.Label, err = getString(); err != nil {
			return nil, fmt.Errorf("trace: block label: %w", err)
		}
		ni, err := getUvarint()
		if err != nil || ni > 1<<24 {
			return nil, fmt.Errorf("trace: inst count: %w", err)
		}
		for j := uint64(0); j < ni; j++ {
			in, err := readInst(br, &instBuf)
			if err != nil {
				return nil, fmt.Errorf("trace: block %d inst %d: %w", i, j, err)
			}
			b.Insts = append(b.Insts, in)
		}
		t.Prog.Blocks = append(t.Prog.Blocks, b)
	}

	readCount := func(what string) (uint64, error) {
		n, err := getUvarint()
		if err != nil {
			return 0, fmt.Errorf("trace: %s count: %w", what, err)
		}
		if n > 1<<32 {
			return 0, fmt.Errorf("trace: unreasonable %s count %d", what, n)
		}
		return n, nil
	}

	n, err := readCount("basic-block")
	if err != nil {
		return nil, err
	}
	if n > 0 {
		t.BBs = make([]int32, n)
	}
	prev := int64(0)
	for i := range t.BBs {
		d, err := getVarint()
		if err != nil {
			return nil, fmt.Errorf("trace: bb %d: %w", i, err)
		}
		prev += d
		t.BBs[i] = int32(prev)
	}

	if n, err = readCount("vector-length"); err != nil {
		return nil, err
	}
	if n > 0 {
		t.VLs = make([]int64, n)
	}
	for i := range t.VLs {
		if t.VLs[i], err = getVarint(); err != nil {
			return nil, fmt.Errorf("trace: vl %d: %w", i, err)
		}
	}

	if n, err = readCount("stride"); err != nil {
		return nil, err
	}
	if n > 0 {
		t.Strides = make([]int64, n)
	}
	for i := range t.Strides {
		if t.Strides[i], err = getVarint(); err != nil {
			return nil, fmt.Errorf("trace: stride %d: %w", i, err)
		}
	}

	if n, err = readCount("address"); err != nil {
		return nil, err
	}
	if n > 0 {
		t.Addrs = make([]uint64, n)
	}
	prevA := uint64(0)
	for i := range t.Addrs {
		d, err := getVarint()
		if err != nil {
			return nil, fmt.Errorf("trace: addr %d: %w", i, err)
		}
		prevA += uint64(d)
		t.Addrs[i] = prevA
	}

	var want [4]byte
	if _, err := io.ReadFull(br, want[:]); err != nil {
		return nil, fmt.Errorf("trace: reading checksum: %w", err)
	}
	// Recompute the payload checksum by re-encoding the decoded value;
	// any corruption that survived the structural checks surfaces here.
	var crc crcWriter
	if err := t.encodeBody(&crc); err != nil {
		return nil, err
	}
	if crc.sum != binary.LittleEndian.Uint32(want[:]) {
		return nil, fmt.Errorf("trace: checksum mismatch (corrupt trace)")
	}
	if err := t.Prog.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func readInst(br *bufio.Reader, buf *[]byte) (isa.Inst, error) {
	// Instructions are variable length: a fixed 7-byte head followed by
	// a varint immediate.
	b := (*buf)[:0]
	for i := 0; i < 7; i++ {
		c, err := br.ReadByte()
		if err != nil {
			return isa.Inst{}, err
		}
		b = append(b, c)
	}
	for {
		c, err := br.ReadByte()
		if err != nil {
			return isa.Inst{}, err
		}
		b = append(b, c)
		if c&0x80 == 0 {
			break
		}
	}
	*buf = b
	in, _, err := isa.DecodeInst(b)
	return in, err
}
