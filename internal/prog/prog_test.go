package prog

import (
	"strings"
	"testing"

	"mtvec/internal/isa"
)

// testProgram builds a two-block program: a header that sets VL/VS and a
// body with a load, an add, and a store.
func testProgram() *Program {
	return &Program{
		Name: "axpy-lite",
		Blocks: []BasicBlock{
			{Label: "head", Insts: []isa.Inst{
				{Op: isa.OpSetVS, Src1: isa.A(0)},
				{Op: isa.OpSetVL, Src1: isa.A(1)},
			}},
			{Label: "body", Insts: []isa.Inst{
				{Op: isa.OpVLoad, Dst: isa.V(0), Src1: isa.A(2)},
				{Op: isa.OpVAdd, Dst: isa.V(1), Src1: isa.V(0), Src2: isa.V(0)},
				{Op: isa.OpVStore, Src1: isa.V(1), Src2: isa.A(3)},
				{Op: isa.OpSAddI, Dst: isa.A(2), Src1: isa.A(2), Src2: isa.A(4)},
				{Op: isa.OpBr, Src1: isa.S(0)},
			}},
		},
	}
}

func TestValidateGoodProgram(t *testing.T) {
	if err := testProgram().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		p    *Program
		want string
	}{
		{"unnamed", &Program{Blocks: []BasicBlock{{Label: "b", Insts: []isa.Inst{{Op: isa.OpNop}}}}}, "no name"},
		{"empty", &Program{Name: "x"}, "no basic blocks"},
		{"emptyblock", &Program{Name: "x", Blocks: []BasicBlock{{Label: "b"}}}, "is empty"},
		{"badinst", &Program{Name: "x", Blocks: []BasicBlock{{Label: "b", Insts: []isa.Inst{{Op: isa.OpVAdd}}}}}, "vadd"},
	}
	for _, c := range cases {
		err := c.p.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestNumInstsAndPCBase(t *testing.T) {
	p := testProgram()
	if p.NumInsts() != 7 {
		t.Fatalf("NumInsts = %d, want 7", p.NumInsts())
	}
	if p.PCBase(0) != 0 || p.PCBase(1) != 2 {
		t.Fatalf("PCBase = %d,%d want 0,2", p.PCBase(0), p.PCBase(1))
	}
}

func TestStreamExpansion(t *testing.T) {
	p := testProgram()
	src := &SliceSource{
		BBs:     []int{0, 1, 1},
		VLs:     []int64{100},
		Strides: []int64{16},
		Addrs:   []uint64{0x1000, 0x2000, 0x1400, 0x2400},
	}
	s := NewStreamVL(p, src, 0)

	var got []isa.DynInst
	var d isa.DynInst
	for s.Next(&d) {
		got = append(got, d)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 12 {
		t.Fatalf("expanded %d instructions, want 12", len(got))
	}

	if got[0].Op != isa.OpSetVS || got[0].SetVal != 16 {
		t.Errorf("setvs: %+v", got[0])
	}
	if got[1].Op != isa.OpSetVL || got[1].SetVal != 100 {
		t.Errorf("setvl: %+v", got[1])
	}
	// First body iteration executes under VL=100, VS=16.
	if got[2].Op != isa.OpVLoad || got[2].VL != 100 || got[2].Stride != 16 || got[2].Addr != 0x1000 {
		t.Errorf("vload: %+v", got[2])
	}
	if got[3].Op != isa.OpVAdd || got[3].VL != 100 {
		t.Errorf("vadd: %+v", got[3])
	}
	if got[4].Op != isa.OpVStore || got[4].Addr != 0x2000 {
		t.Errorf("vstore: %+v", got[4])
	}
	// Second iteration draws fresh addresses.
	if got[7].Addr != 0x1400 || got[9].Addr != 0x2400 {
		t.Errorf("second iteration addresses: %#x %#x", got[7].Addr, got[9].Addr)
	}
	// PCs are stable across iterations.
	if got[2].PC != got[7].PC || got[2].PC != 2 {
		t.Errorf("PC of vload: %d and %d, want 2", got[2].PC, got[7].PC)
	}
	if s.Count() != 12 {
		t.Errorf("Count = %d", s.Count())
	}
}

func TestStreamVLClamping(t *testing.T) {
	p := &Program{Name: "clamp", Blocks: []BasicBlock{
		{Label: "b", Insts: []isa.Inst{
			{Op: isa.OpSetVL, Src1: isa.A(0)},
			{Op: isa.OpVAdd, Dst: isa.V(0), Src1: isa.V(1), Src2: isa.V(2)},
		}},
	}}
	src := &SliceSource{BBs: []int{0, 0, 0}, VLs: []int64{500, 0, 64}}
	s := NewStreamVL(p, src, 0)
	var d isa.DynInst
	var vls []uint16
	for s.Next(&d) {
		if d.Op == isa.OpVAdd {
			vls = append(vls, d.VL)
		}
	}
	if len(vls) != 3 || vls[0] != isa.MaxVL || vls[1] != 1 || vls[2] != 64 {
		t.Fatalf("clamped VLs = %v, want [%d 1 64]", vls, isa.MaxVL)
	}
}

func TestStreamDefaultVLVS(t *testing.T) {
	// Vector instructions before any SetVL/SetVS run at MaxVL, unit stride.
	p := &Program{Name: "dflt", Blocks: []BasicBlock{
		{Label: "b", Insts: []isa.Inst{{Op: isa.OpVLoad, Dst: isa.V(0), Src1: isa.A(0)}}},
	}}
	src := &SliceSource{BBs: []int{0}, Addrs: []uint64{0x10}}
	s := NewStreamVL(p, src, 0)
	var d isa.DynInst
	if !s.Next(&d) {
		t.Fatal("no instruction")
	}
	if d.VL != isa.MaxVL || d.Stride != isa.ElemBytes {
		t.Fatalf("defaults: VL=%d stride=%d", d.VL, d.Stride)
	}
}

func TestStreamBadBlockIndex(t *testing.T) {
	p := testProgram()
	s := NewStreamVL(p, &SliceSource{BBs: []int{5}}, 0)
	var d isa.DynInst
	if s.Next(&d) {
		t.Fatal("expanded an out-of-range block")
	}
	if s.Err() == nil {
		t.Fatal("bad block index not reported")
	}
}

func TestStreamSourceExhaustion(t *testing.T) {
	// Address trace runs dry mid-block: the stream must surface an error.
	p := testProgram()
	src := &SliceSource{BBs: []int{0, 1}, VLs: []int64{10}, Strides: []int64{8}, Addrs: []uint64{0x1}}
	s := NewStreamVL(p, src, 0)
	var d isa.DynInst
	for s.Next(&d) {
	}
	if s.Err() == nil {
		t.Fatal("exhausted address trace not reported")
	}
}

func TestDrain(t *testing.T) {
	p := testProgram()
	src := &SliceSource{
		BBs:     []int{0, 1},
		VLs:     []int64{64},
		Strides: []int64{8},
		Addrs:   []uint64{1, 2},
	}
	n, st, err := NewStreamVL(p, src, 0).Drain()
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("drained %d, want 7", n)
	}
	if st.VectorInsts != 3 || st.ScalarInsts != 4 {
		t.Fatalf("stats: %+v", st)
	}
}
