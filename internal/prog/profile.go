package prog

import (
	"fmt"

	"mtvec/internal/isa"
)

// blockProfile is what one visit of a basic block draws from each
// value stream, and where the block's VL segments start in a Tally's
// segment table. A block with k SetVL
// instructions has k+1 segments: the run before the first SetVL
// executes under the VL in force on entry, each later run under the
// value its SetVL installed.
type blockProfile struct {
	vls, strides, addrs int
	seg                 int
}

// Tally folds weighted basic-block visits of one program into its
// dynamic profile: it counts visits per block and sums the VL in force
// over each VL segment's executions, and Stats folds those sums against
// the blocks' instructions. Profile drives it from a trace's streams; a
// compiler that knows its own schedule can drive it directly and never
// synthesize the streams. A Tally carries the VL in force from one
// visit to the next, as a replay carries the VL register, starting at
// the replay's reset value.
type Tally struct {
	p       *Program
	blocks  []blockProfile
	visits  []int64
	weights []int64 // Σ VL in force over each segment's executions

	// perOp and elems take instruction-by-instruction accounting (a
	// block Profile replays past a dry stream).
	perOp, elems [isa.NumOps]int64

	maxVL, vl int64
}

// NewTally returns an empty tally of p for replays at hardware vector
// length maxVL (isa.MaxVL when maxVL <= 0).
func NewTally(p *Program, maxVL int64) *Tally {
	if maxVL <= 0 {
		maxVL = isa.MaxVL
	}
	blocks := make([]blockProfile, len(p.Blocks))
	segs := 0
	for bi := range p.Blocks {
		bp := &blocks[bi]
		bp.seg = segs
		for _, in := range p.Blocks[bi].Insts {
			switch isa.KindOf(in.Op) {
			case isa.KindVLVS:
				if in.Op == isa.OpSetVL {
					bp.vls++
				} else {
					bp.strides++
				}
			case isa.KindVectorMem, isa.KindScalarMem:
				bp.addrs++
			}
		}
		segs += bp.vls + 1
	}
	return &Tally{
		p:       p,
		blocks:  blocks,
		visits:  make([]int64, len(blocks)),
		weights: make([]int64, segs),
		maxVL:   maxVL,
		vl:      maxVL,
	}
}

// clamp is the replay's SetVL rule: a requested length lands in
// [1, maxVL].
func (t *Tally) clamp(v int64) int64 {
	return min(max(v, 1), t.maxVL)
}

// Visit accounts n consecutive visits of block b in which every SetVL
// installs v. n <= 0 accounts nothing.
func (t *Tally) Visit(b int, n, v int64) { t.Repeat(b, n, v, 1) }

// Repeat is Visit for a sequence of visits that repeats r times in a
// row: calling it with one r for each step of the sequence accounts
// the whole sequence r times, in O(steps). It is exact when every
// repetition enters the sequence with the VL it finds in force, that
// is when the sequence leaves the VL as it found it. A sequence whose
// SetVLs install fixed values meets that from its second repetition
// on, and one without SetVLs always does, so a caller accounts k
// repetitions as one Repeat pass with r = 1 and one with r = k-1.
// r <= 0 accounts nothing.
func (t *Tally) Repeat(b int, n, v, r int64) {
	vl := [1]int64{v}
	t.visit(b, n, r, vl[:])
}

// visit accounts r repetitions of n consecutive visits of block b in
// which the j-th SetVL of each visit installs vls[j], or the last of
// vls once j runs past it. vls may be empty only if the block has no
// SetVL.
func (t *Tally) visit(b int, n, r int64, vls []int64) {
	if n <= 0 || r <= 0 {
		return
	}
	bp := &t.blocks[b]
	t.visits[b] += r * n
	w := t.weights[bp.seg : bp.seg+bp.vls+1]
	in := int64(uint16(t.vl))
	for j := 1; j < len(w); j++ {
		t.vl = t.clamp(vls[min(j, len(vls))-1])
		w[j] += r * n * int64(uint16(t.vl))
	}
	// The run before the first SetVL executes under the VL carried in
	// on the first visit, and under the last SetVL's value after that.
	w[0] += r * (in + (n-1)*int64(uint16(t.vl)))
}

// Stats returns the profile of every visit accounted so far.
func (t *Tally) Stats() Stats {
	perOp, elems := t.perOp, t.elems
	for b, v := range t.visits {
		if v == 0 {
			continue
		}
		seg := t.blocks[b].seg
		for _, in := range t.p.Blocks[b].Insts {
			perOp[in.Op] += v
			switch isa.KindOf(in.Op) {
			case isa.KindVLVS:
				if in.Op == isa.OpSetVL {
					seg++
				}
			case isa.KindVector, isa.KindVectorMem:
				elems[in.Op] += t.weights[seg]
			}
		}
	}
	var st Stats
	for op, n := range perOp {
		if n != 0 {
			st.addN(isa.Op(op), n, elems[op])
		}
	}
	return st
}

// Profile returns the dynamic statistics and terminal error that
// draining NewStreamVL(p, src, maxVL) would return, for a src that
// holds exactly the given streams, without expanding a single
// instruction. Only the VL values affect the statistics; of the stride
// and address streams only their lengths matter.
//
// The work is one walk of bbs that feeds each block visit to a Tally.
// It makes the replay's own checks: a block id out of range ends the
// profile with Stream's error, and a block that would draw more values
// than a stream has left is accounted instruction by instruction,
// exactly as Stream replays it over the standard sources. Such a block
// runs to its end with each exhausted draw reading VL 1, and then the
// replay stops. dry, which must not be nil, is called once per
// exhausted draw, in program order, with the stream's name
// ("vector-length", "stride" or "address"), so the caller can build the
// error its source would have reported.
func Profile(p *Program, bbs []int32, vls []int64, strides, addrs int, maxVL int64, dry func(stream string)) (Stats, error) {
	t := NewTally(p, maxVL)
	vi, si, ai := 0, 0, 0
	var err error
	for _, b := range bbs {
		if b < 0 || int(b) >= len(t.blocks) {
			err = fmt.Errorf("prog: %s: trace names block %d of %d", p.Name, b, len(t.blocks))
			break
		}
		bp := &t.blocks[b]
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
				t.perOp[in.Op]++
				switch isa.KindOf(in.Op) {
				case isa.KindVLVS:
					if in.Op == isa.OpSetVL {
						v := int64(1) // what the sources return for a dry draw
						if draw(&vi, len(vls), "vector-length") {
							v = vls[vi-1]
						}
						t.vl = t.clamp(v)
					} else {
						draw(&si, strides, "stride")
					}
				case isa.KindVector:
					t.elems[in.Op] += int64(uint16(t.vl))
				case isa.KindVectorMem:
					t.elems[in.Op] += int64(uint16(t.vl))
					draw(&ai, addrs, "address")
				case isa.KindScalarMem:
					draw(&ai, addrs, "address")
				}
			}
			break
		}
		t.visit(int(b), 1, 1, vls[vi:vi+bp.vls])
		vi += bp.vls
		si += bp.strides
		ai += bp.addrs
	}
	return t.Stats(), err
}
