package prog

import (
	"math/rand"
	"testing"

	"mtvec/internal/isa"
)

// TestTallyRunsMatchDrain: runs of n visits fed to Tally.Visit at once
// profile exactly like draining the expanded trace, one visit per block
// id and one VL value per SetVL. The program has a block that computes
// before and after its SetVLs, so the VL carried into a run and the VL
// each later visit of the run starts under both show.
func TestTallyRunsMatchDrain(t *testing.T) {
	p := fuzzProgram()
	p.Blocks = append(p.Blocks, BasicBlock{Label: "mid", Insts: []isa.Inst{
		{Op: isa.OpVAdd, Dst: isa.V(5), Src1: isa.V(0), Src2: isa.V(1)},
		{Op: isa.OpSetVL, Src1: isa.A(1)},
		{Op: isa.OpVMul, Dst: isa.V(6), Src1: isa.V(5), Src2: isa.V(5)},
		{Op: isa.OpSetVL, Src1: isa.A(1)},
		{Op: isa.OpVLoad, Dst: isa.V(7), Src1: isa.A(2)},
	}})
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		maxVL := []int64{0, 64, 128, 300}[rng.Intn(4)]
		tally := NewTally(p, maxVL)
		src := &SliceSource{}
		for runs := rng.Intn(12); runs > 0; runs-- {
			b, n, v := rng.Intn(len(p.Blocks)), int64(rng.Intn(5)), int64(rng.Intn(400)-20)
			tally.Visit(b, n, v)
			appendVisits(src, p, b, n, v)
		}
		want, err := drainReference(p, src, maxVL)
		if err != nil {
			t.Fatal(err)
		}
		if got := tally.Stats(); got != want {
			t.Fatalf("trial %d: tally %+v\ndrain %+v", trial, got, want)
		}
	}
}

// TestTallyRepeatMatchesDrain: a random sequence of runs accounted once
// with Visit and then k-1 more times with Repeat profiles exactly like
// draining the sequence expanded k times, whatever VL the sequence
// enters with.
func TestTallyRepeatMatchesDrain(t *testing.T) {
	p := fuzzProgram()
	rng := rand.New(rand.NewSource(2))
	type step struct {
		b    int
		n, v int64
	}
	for trial := 0; trial < 200; trial++ {
		maxVL := []int64{0, 64, 128, 300}[rng.Intn(4)]
		tally := NewTally(p, maxVL)
		src := &SliceSource{}
		// A prefix leaves some VL in force for the sequence to enter.
		pb, pv := rng.Intn(len(p.Blocks)), int64(rng.Intn(400))
		tally.Visit(pb, 1, pv)
		appendVisits(src, p, pb, 1, pv)
		seq := make([]step, 1+rng.Intn(5))
		for i := range seq {
			seq[i] = step{rng.Intn(len(p.Blocks)), int64(rng.Intn(5)), int64(rng.Intn(400) - 20)}
		}
		k := int64(1 + rng.Intn(6))
		for _, st := range seq {
			tally.Visit(st.b, st.n, st.v)
		}
		for _, st := range seq {
			tally.Repeat(st.b, st.n, st.v, k-1)
		}
		for range k {
			for _, st := range seq {
				appendVisits(src, p, st.b, st.n, st.v)
			}
		}
		want, err := drainReference(p, src, maxVL)
		if err != nil {
			t.Fatal(err)
		}
		if got := tally.Stats(); got != want {
			t.Fatalf("trial %d: %v repeated %d times: tally %+v\ndrain %+v", trial, seq, k, got, want)
		}
	}
}

// appendVisits appends n visits of block b, in which every SetVL
// installs v, to src's streams.
func appendVisits(src *SliceSource, p *Program, b int, n, v int64) {
	for ; n > 0; n-- {
		src.BBs = append(src.BBs, b)
		for _, in := range p.Blocks[b].Insts {
			switch isa.KindOf(in.Op) {
			case isa.KindVLVS:
				if in.Op == isa.OpSetVL {
					src.VLs = append(src.VLs, v)
				} else {
					src.Strides = append(src.Strides, 8)
				}
			case isa.KindVectorMem, isa.KindScalarMem:
				src.Addrs = append(src.Addrs, 0x1000)
			}
		}
	}
}
