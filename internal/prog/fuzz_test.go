package prog

import (
	"testing"

	"mtvec/internal/isa"
)

// fuzzProgram covers every dynamic-expansion path Stream.Next has: VL/VS
// installs, vector arithmetic (FU1-eligible and FU2-only), vector and
// scalar memory, gather/scatter (two vector sources), reductions and
// plain scalar/branch work.
func fuzzProgram() *Program {
	return &Program{
		Name: "fuzz-mix",
		Blocks: []BasicBlock{
			{Label: "head", Insts: []isa.Inst{
				{Op: isa.OpSetVS, Src1: isa.A(0)},
				{Op: isa.OpSetVL, Src1: isa.A(1)},
			}},
			{Label: "body", Insts: []isa.Inst{
				{Op: isa.OpVLoad, Dst: isa.V(0), Src1: isa.A(2)},
				{Op: isa.OpVMul, Dst: isa.V(1), Src1: isa.V(0), Src2: isa.V(0)},
				{Op: isa.OpVAdd, Dst: isa.V(2), Src1: isa.V(1), Src2: isa.V(0)},
				{Op: isa.OpVStore, Src1: isa.V(2), Src2: isa.A(3)},
				{Op: isa.OpSAddI, Dst: isa.A(2), Src1: isa.A(2), Src2: isa.A(4)},
				{Op: isa.OpBr, Src1: isa.S(0)},
			}},
			{Label: "sparse", Insts: []isa.Inst{
				{Op: isa.OpVGather, Dst: isa.V(3), Src1: isa.A(5), Src2: isa.V(0)},
				{Op: isa.OpVScatter, Src1: isa.V(3), Src2: isa.V(0)},
				{Op: isa.OpVRedAdd, Dst: isa.S(1), Src1: isa.V(3)},
				{Op: isa.OpSLoad, Dst: isa.S(2), Src1: isa.A(7)},
				{Op: isa.OpSStore, Src1: isa.S(2), Src2: isa.A(7)},
			}},
			{Label: "revl", Insts: []isa.Inst{
				{Op: isa.OpSetVL, Src1: isa.A(1)},
				{Op: isa.OpVSqrt, Dst: isa.V(4), Src1: isa.V(2)},
			}},
		},
	}
}

// fuzzSource maps fuzz bytes onto the four trace streams. The mapping is
// deliberately permissive: block indices may fall outside the program
// (including -1) and the VL/stride/address streams may run short of what
// the block trace demands, steering the fuzzer into every Stream error
// path as well as the happy one. Two calls on the same bytes build
// identical sources, which is what lets the harness replay a trace twice.
func fuzzSource(data []byte, blocks int) *SliceSource {
	s := &SliceSource{}
	if len(data) == 0 {
		return s
	}
	nbb := int(data[0] % 64)
	data = data[1:]
	if nbb > len(data) {
		nbb = len(data)
	}
	for _, b := range data[:nbb] {
		s.BBs = append(s.BBs, int(b)%(blocks+2)-1)
	}
	rest := data[nbb:]
	for i := 0; i+1 < len(rest); i += 2 {
		hi, lo := rest[i], rest[i+1]
		switch (i / 2) % 3 {
		case 0:
			s.VLs = append(s.VLs, int64(hi)<<8|int64(lo)-128)
		case 1:
			s.Strides = append(s.Strides, int64(int8(hi))*int64(lo))
		case 2:
			s.Addrs = append(s.Addrs, uint64(hi)<<12|uint64(lo)<<3)
		}
	}
	return s
}

// checkDecoded fails t unless e is the compact decode of d: every
// DecodedInst field equals the DynInst field it copies or the ISA table
// entry it caches. TestDecodeFillsEveryField keeps the list complete.
func checkDecoded(t *testing.T, i int, d *isa.DynInst, e *DecodedInst) {
	t.Helper()
	if e.Op != d.Op || e.Dst != d.Dst || e.Src1 != d.Src1 || e.Src2 != d.Src2 ||
		e.VL != d.VL || e.Stride != d.Stride {
		t.Fatalf("inst %d: predecoded %+v does not carry source-driven %+v", i, *e, *d)
	}
	info := isa.InfoOf(d.Op)
	if e.Kind != info.Kind || e.FU1OK != info.FU1OK || e.Load != info.Load {
		t.Fatalf("inst %d (%s): cached decode fields disagree with ISA table", i, d.Op)
	}
	var vs [2]uint8
	if n := d.VSources(&vs); int(e.NVSrc) != n || vs != e.VSrcs {
		t.Fatalf("inst %d (%s): cached vector sources %d/%v, want %d/%v",
			i, d.Op, e.NVSrc, e.VSrcs, n, vs)
	}
}

// fuzzReplayer opens fresh fuzzSource replays of one input, the way
// *trace.Trace opens replays of its streams.
type fuzzReplayer struct {
	data   []byte
	blocks int
}

func (r fuzzReplayer) Source() TraceSource { return fuzzSource(r.data, r.blocks) }

// FuzzDecode fuzzes the trace-expansion pipeline: arbitrary bytes become
// a SliceSource over fuzzProgram, predecoded by DecodeAllVL. The
// properties under test:
//
//   - expansion never panics, whatever the trace holds — out-of-range
//     block indices, exhausted value streams, degenerate VLs and
//     strides must all surface as Stream errors;
//   - the predecode holds exactly as many instructions as a fresh
//     source-driven stream over the same bytes delivers, ends with the
//     same terminal error, and each entry carries that stream's
//     opcode, operands, VL and stride with the ISA tables' decode;
//   - the predecoded slice replayed through NewDecodedStream hands
//     back the same entries from NextDec, and from Next the full
//     source-driven DynInsts — the stream.go contract the trace cache
//     and the batch engine lean on.
func FuzzDecode(f *testing.F) {
	// Seeds shaped like the suite's synthesized traces: a VL/VS header
	// then looped bodies, a sparse block, a mid-trace VL change, plus
	// degenerate shapes (empty, truncated values, bad block index).
	f.Add([]byte{3, 1, 2, 2, 0, 100, 0, 16, 0x10, 0x00, 0, 100, 0, 8, 0x14, 0x00}, int64(0))
	f.Add([]byte{6, 1, 2, 3, 4, 2, 2, 0, 128, 1, 8, 0x20, 0x00, 1, 0, 2, 64, 0x30, 0x00, 0x11, 0x22}, int64(128))
	f.Add([]byte{2, 1, 2, 0, 7}, int64(4096))      // value streams run dry
	f.Add([]byte{1, 0}, int64(1))                  // trace names block -1
	f.Add([]byte{1, 5, 9, 9}, int64(0))            // trace names a block past the end
	f.Add([]byte{}, int64(0))                      // empty trace
	f.Add([]byte{63, 2, 2, 2, 2, 2, 2}, int64(-7)) // nbb longer than data; maxVL <= 0

	f.Fuzz(func(t *testing.T, data []byte, maxVL int64) {
		p := fuzzProgram()
		rep := fuzzReplayer{data, len(p.Blocks)}

		dec, decErr := DecodeAllVL(p, rep.Source(), int64(len(data)), maxVL)

		// A fresh source-driven stream over the same bytes must deliver
		// what the predecode carries, and the same terminal error.
		var want []isa.DynInst
		live := NewStreamVL(p, rep.Source(), maxVL)
		var d isa.DynInst
		for live.Next(&d) {
			if len(want) >= len(dec) {
				t.Fatalf("source-driven stream outran the %d predecoded instructions", len(dec))
			}
			checkDecoded(t, len(want), &d, &dec[len(want)])
			want = append(want, d)
		}
		if len(want) != len(dec) {
			t.Fatalf("source-driven stream ended at %d, predecode holds %d", len(want), len(dec))
		}
		liveErr := live.Err()
		if (decErr == nil) != (liveErr == nil) ||
			(decErr != nil && decErr.Error() != liveErr.Error()) {
			t.Fatalf("terminal errors diverge: predecode %v, source-driven %v", decErr, liveErr)
		}

		// Predecoded replay hands back the same entries from NextDec ...
		replay := NewDecodedStream(p, dec, rep, maxVL)
		for i := range dec {
			rd := replay.NextDec()
			if rd == nil {
				t.Fatalf("predecoded replay ended early at %d of %d", i, len(dec))
			}
			if *rd != dec[i] {
				t.Fatalf("inst %d: replay %+v != predecode %+v", i, *rd, dec[i])
			}
		}
		if replay.NextDec() != nil {
			t.Fatal("predecoded replay ran past its slice")
		}

		// ... and the full source-driven DynInsts from Next.
		full := NewDecodedStream(p, dec, rep, maxVL)
		for i := range want {
			if !full.Next(&d) {
				t.Fatalf("predecoded Next ended early at %d of %d", i, len(want))
			}
			if d != want[i] {
				t.Fatalf("inst %d: predecoded Next %+v != source-driven %+v", i, d, want[i])
			}
		}
		if full.Next(&d) {
			t.Fatal("predecoded Next ran past its slice")
		}
	})
}

// drainReference replays src through a Stream and returns what Drain
// reports, the oracle Profile must reproduce.
func drainReference(p *Program, src *SliceSource, maxVL int64) (Stats, error) {
	_, st, err := NewStreamVL(p, src, maxVL).Drain()
	return st, err
}

// profileSlices runs Profile over a SliceSource's streams with the
// source's own error semantics: the first exhausted draw names the
// error.
func profileSlices(p *Program, src *SliceSource, maxVL int64) (Stats, error) {
	bbs := make([]int32, len(src.BBs))
	for i, b := range src.BBs {
		bbs[i] = int32(b)
	}
	var dryErr error
	st, err := Profile(p, bbs, src.VLs, len(src.Strides), len(src.Addrs), maxVL, func(stream string) {
		if dryErr == nil {
			dryErr = exhausted(stream)
		}
	})
	if err == nil {
		err = dryErr
	}
	return st, err
}

// FuzzProfile is the differential harness for the per-block profile:
// over arbitrary traces of fuzzProgram, Profile must report exactly the
// Stats and terminal error of draining a Stream — including traces that
// name block -1 or a block past the end, that run any value stream dry,
// that carry VLs below 1 or above maxVL, and maxVL <= 0.
func FuzzProfile(f *testing.F) {
	f.Add([]byte{3, 1, 2, 2, 0, 100, 0, 16, 0x10, 0x00, 0, 100, 0, 8, 0x14, 0x00}, int64(0))
	f.Add([]byte{6, 1, 2, 3, 4, 2, 2, 0, 128, 1, 8, 0x20, 0x00, 1, 0, 2, 64, 0x30, 0x00, 0x11, 0x22}, int64(128))
	f.Add([]byte{1, 0}, int64(1))                                                        // block -1
	f.Add([]byte{2, 1, 5, 0, 200, 0, 8}, int64(64))                                      // a block past the end
	f.Add([]byte{2, 1, 4, 0, 200, 0, 8}, int64(64))                                      // VL runs dry in "revl"
	f.Add([]byte{1, 1, 0, 200}, int64(64))                                               // stride runs dry
	f.Add([]byte{2, 1, 2, 0, 200, 0, 8, 0x10, 0}, int64(64))                             // address runs dry
	f.Add([]byte{3, 1, 2, 4, 0, 0, 0, 8, 0x10, 0, 0, 50, 0, 8, 0x20, 0}, int64(64))      // VL < 1
	f.Add([]byte{3, 1, 2, 4, 0xff, 0, 0, 8, 0x10, 0, 0x80, 0, 0, 8, 0x20, 0}, int64(64)) // VL > maxVL
	f.Add([]byte{3, 1, 2, 4, 0xff, 0, 0, 8, 0x10, 0, 0x80, 0, 0, 8, 0x20, 0}, int64(-3)) // maxVL <= 0
	f.Add([]byte{1, 2, 0, 0, 0, 8, 0x10, 0, 0, 0, 0, 8, 0x20, 0}, int64(1<<20+5))        // initial VL wraps uint16
	f.Add([]byte{}, int64(0))

	f.Fuzz(func(t *testing.T, data []byte, maxVL int64) {
		p := fuzzProgram()
		blocks := len(p.Blocks)
		want, wantErr := drainReference(p, fuzzSource(data, blocks), maxVL)
		got, gotErr := profileSlices(p, fuzzSource(data, blocks), maxVL)
		if got != want {
			t.Fatalf("Profile stats differ from Drain:\ngot  %+v\nwant %+v", got, want)
		}
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("Profile error %v, Drain error %v", gotErr, wantErr)
		}
	})
}
