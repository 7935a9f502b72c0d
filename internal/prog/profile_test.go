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
		want, err := drainReference(p, src, maxVL)
		if err != nil {
			t.Fatal(err)
		}
		if got := tally.Stats(); got != want {
			t.Fatalf("trial %d: tally %+v\ndrain %+v", trial, got, want)
		}
	}
}
