package prog

import (
	"fmt"

	"mtvec/internal/isa"
)

// opCount is n static occurrences of one opcode.
type opCount struct {
	op isa.Op
	n  int64
}

// blockProfile is one basic block's static share of a dynamic profile:
// its opcode histogram, how many values a visit draws from each value
// stream, and where its VL segments start in the segment table. A block
// with k SetVL instructions has k+1 segments: the run before the first
// SetVL executes under the VL in force on entry, each later run under
// the value its SetVL installed.
type blockProfile struct {
	ops                 []opCount
	vls, strides, addrs int
	seg                 int
}

// profileTables builds the per-block and per-segment static tables of
// p. Segments list only the vector opcodes, the ones whose accounting
// depends on VL.
func profileTables(p *Program) ([]blockProfile, [][]opCount) {
	blocks := make([]blockProfile, len(p.Blocks))
	var segs [][]opCount
	var seen [isa.NumOps]int64
	var touched []isa.Op
	count := func(op isa.Op) {
		if seen[op] == 0 {
			touched = append(touched, op)
		}
		seen[op]++
	}
	flush := func() []opCount {
		out := make([]opCount, len(touched))
		for i, op := range touched {
			out[i] = opCount{op, seen[op]}
			seen[op] = 0
		}
		touched = touched[:0]
		return out
	}
	for bi := range p.Blocks {
		insts := p.Blocks[bi].Insts
		bp := &blocks[bi]
		bp.seg = len(segs)
		// Draws and vector opcodes per segment, then the whole-block
		// histogram.
		for _, in := range insts {
			switch isa.KindOf(in.Op) {
			case isa.KindVLVS:
				if in.Op == isa.OpSetVL {
					bp.vls++
					segs = append(segs, flush())
				} else {
					bp.strides++
				}
			case isa.KindVector:
				count(in.Op)
			case isa.KindVectorMem:
				count(in.Op)
				bp.addrs++
			case isa.KindScalarMem:
				bp.addrs++
			}
		}
		segs = append(segs, flush())
		for _, in := range insts {
			count(in.Op)
		}
		bp.ops = flush()
	}
	return blocks, segs
}

// Profile returns the dynamic statistics and terminal error that
// draining NewStreamVL(p, src, maxVL) would return, for a src that
// holds exactly the given streams, without expanding a single
// instruction. Only the VL values affect the statistics; of the stride
// and address streams only their lengths matter.
//
// The work is one walk of bbs that counts visits per block and sums the
// clamped VL in force over each VL segment, plus a fold of those sums
// against per-block static tables. It makes the replay's own checks: a
// block id out of range ends the profile with Stream's error, and a
// block that would draw more values than a stream has left is accounted
// instruction by instruction, exactly as Stream replays it over the
// standard sources. Such a block runs to its end with each exhausted
// draw reading VL 1, and then the replay stops. dry, which must not be
// nil, is called once per exhausted draw, in program order, with the
// stream's name ("vector-length", "stride" or "address"), so the caller
// can build the error its source would have reported.
func Profile(p *Program, bbs []int32, vls []int64, strides, addrs int, maxVL int64, dry func(stream string)) (Stats, error) {
	if maxVL <= 0 {
		maxVL = isa.MaxVL
	}
	clamp := func(v int64) int64 {
		return min(max(v, 1), maxVL)
	}
	blocks, segs := profileTables(p)
	visits := make([]int64, len(blocks))
	weights := make([]int64, len(segs)) // Σ VL in force over each segment's executions
	var perOp, elems [isa.NumOps]int64
	vl := maxVL
	vi, si, ai := 0, 0, 0
	var err error
	for _, b := range bbs {
		if b < 0 || int(b) >= len(blocks) {
			err = fmt.Errorf("prog: %s: trace names block %d of %d", p.Name, b, len(blocks))
			break
		}
		bp := &blocks[b]
		if vi+bp.vls > len(vls) || si+bp.strides > strides || ai+bp.addrs > addrs {
			// A stream runs dry inside this block: replay it one
			// instruction at a time, then end as the sources do.
			draw := func(i *int, n int, stream string) bool {
				if *i < n {
					*i++
					return true
				}
				dry(stream)
				return false
			}
			for _, in := range p.Blocks[b].Insts {
				perOp[in.Op]++
				switch isa.KindOf(in.Op) {
				case isa.KindVLVS:
					if in.Op == isa.OpSetVL {
						v := int64(1) // what the sources return for a dry draw
						if draw(&vi, len(vls), "vector-length") {
							v = vls[vi-1]
						}
						vl = clamp(v)
					} else {
						draw(&si, strides, "stride")
					}
				case isa.KindVector:
					elems[in.Op] += int64(uint16(vl))
				case isa.KindVectorMem:
					elems[in.Op] += int64(uint16(vl))
					draw(&ai, addrs, "address")
				case isa.KindScalarMem:
					draw(&ai, addrs, "address")
				}
			}
			break
		}
		visits[b]++
		w := weights[bp.seg : bp.seg+bp.vls+1]
		w[0] += int64(uint16(vl))
		for j := 1; j < len(w); j++ {
			vl = clamp(vls[vi])
			vi++
			w[j] += int64(uint16(vl))
		}
		si += bp.strides
		ai += bp.addrs
	}

	for b := range blocks {
		if v := visits[b]; v != 0 {
			for _, oc := range blocks[b].ops {
				perOp[oc.op] += v * oc.n
			}
		}
	}
	for s, w := range weights {
		if w != 0 {
			for _, oc := range segs[s] {
				elems[oc.op] += w * oc.n
			}
		}
	}
	var st Stats
	for op, n := range perOp {
		if n != 0 {
			st.addN(isa.Op(op), n, elems[op])
		}
	}
	return st, err
}
