package core

import (
	"testing"

	"mtvec/internal/isa"
	"mtvec/internal/prog"
	"mtvec/internal/stats"
)

// testConfig returns a reference machine with memory latency 50 and the
// default Table 1 latencies (vector add depth = 1+2+4+2 = 9, mul = 12).
func testConfig(contexts int) Config {
	cfg := DefaultConfig()
	cfg.Contexts = contexts
	return cfg
}

// mkProgram wraps instructions into a one-block program.
func mkProgram(name string, insts ...isa.Inst) *prog.Program {
	return &prog.Program{Name: name, Blocks: []prog.BasicBlock{{Label: "b", Insts: insts}}}
}

// streamOf builds a fresh stream executing the single block `reps` times.
func streamOf(p *prog.Program, reps int, vls []int64, strides []int64, addrs []uint64) *prog.Stream {
	bbs := make([]int, reps)
	return prog.NewStreamVL(p, &prog.SliceSource{BBs: bbs, VLs: vls, Strides: strides, Addrs: addrs}, 0)
}

// runSingle runs one single-shot program on a machine with config cfg.
func runSingle(t *testing.T, cfg Config, p *prog.Program, reps int, addrs []uint64) *stats.Report {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetThreadStream(0, p.Name, streamOf(p, reps, nil, nil, addrs)); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(Stop{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func manyAddrs(n int) []uint64 {
	a := make([]uint64, n)
	for i := range a {
		a[i] = uint64(0x1000 + i*1024)
	}
	return a
}

func TestConfigValidation(t *testing.T) {
	def := DefaultConfig()
	if err := def.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Contexts = 0
	if bad.Validate() == nil {
		t.Error("0 contexts accepted")
	}
	bad = DefaultConfig()
	bad.Contexts = 3
	bad.DualScalar = true
	if bad.Validate() == nil {
		t.Error("dual scalar with 3 contexts accepted")
	}
	bad = testConfig(2)
	bad.IssueWidth = 3
	if bad.Validate() == nil {
		t.Error("issue width beyond contexts accepted")
	}
}

func TestScalarChainTiming(t *testing.T) {
	// movi a0 (ready t=1); aadd a0,a0,#1 waits for it; br a0 waits again.
	p := mkProgram("sc",
		isa.Inst{Op: isa.OpMovI, Dst: isa.A(0), Src2: isa.Imm()},
		isa.Inst{Op: isa.OpAAdd, Dst: isa.A(0), Src1: isa.A(0), Src2: isa.Imm(), Imm: 1},
		isa.Inst{Op: isa.OpBr, Src1: isa.A(0)},
	)
	rep := runSingle(t, testConfig(1), p, 1, nil)
	// t0 movi, t1 aadd (a0 ready), t2 br, result of aadd ready t2 -> 3.
	if rep.Cycles != 3 {
		t.Fatalf("cycles = %d, want 3", rep.Cycles)
	}
	if rep.Insts != 3 {
		t.Fatalf("insts = %d", rep.Insts)
	}
}

func TestScalarLoadLatency(t *testing.T) {
	// sload s1 <- [a0]; sadd s2, s1, s1 waits for the load.
	p := mkProgram("sl",
		isa.Inst{Op: isa.OpSLoad, Dst: isa.S(1), Src1: isa.A(0)},
		isa.Inst{Op: isa.OpSAdd, Dst: isa.S(2), Src1: isa.S(1), Src2: isa.S(1)},
	)
	// Default machine: scalar accesses hit the 4-cycle scalar cache.
	rep := runSingle(t, testConfig(1), p, 1, manyAddrs(1))
	// Load at t=0 -> data at 4; add dispatches at 4, ready 6.
	if rep.Cycles != 6 {
		t.Fatalf("cycles = %d, want 6 (scalar cache)", rep.Cycles)
	}
	// Without a scalar cache the use stalls the full memory latency.
	cfg := testConfig(1)
	cfg.Mem.ScalarLatency = 0
	rep = runSingle(t, cfg, p, 1, manyAddrs(1))
	if rep.Cycles != 52 {
		t.Fatalf("cycles = %d, want 52 (no scalar cache)", rep.Cycles)
	}
}

func TestVectorLoadTiming(t *testing.T) {
	p := mkProgram("vl", isa.Inst{Op: isa.OpVLoad, Dst: isa.V(0), Src1: isa.A(0)})
	rep := runSingle(t, testConfig(1), p, 1, manyAddrs(1))
	// s=0, busy 128 on LD; first element lands 0+50+1+2=53; last 53+127=180.
	if rep.Cycles != 181 {
		t.Fatalf("cycles = %d, want 181", rep.Cycles)
	}
	if got := rep.Breakdown[1<<stats.UnitLD]; got != 128 {
		t.Fatalf("LD-only cycles = %d, want 128", got)
	}
	if rep.MemBusyCycles != 128 {
		t.Fatalf("mem busy = %d, want 128", rep.MemBusyCycles)
	}
}

func TestVectorAddTiming(t *testing.T) {
	p := mkProgram("va", isa.Inst{Op: isa.OpVAdd, Dst: isa.V(0), Src1: isa.V(2), Src2: isa.V(4)})
	rep := runSingle(t, testConfig(1), p, 1, nil)
	// depth 9; VL=128 default: last write at 9+127=136 -> 137 cycles.
	if rep.Cycles != 137 {
		t.Fatalf("cycles = %d, want 137", rep.Cycles)
	}
	if got := rep.Breakdown[1<<stats.UnitFU1]; got != 128 {
		t.Fatalf("FU1-only = %d, want 128", got)
	}
	if rep.VectorArithOps != 128 {
		t.Fatalf("arith ops = %d", rep.VectorArithOps)
	}
}

func TestFUChainingStartsAtFirstElement(t *testing.T) {
	// vadd writes v1 starting cycle 9; the dependent vmul chains from
	// cycle 10 instead of waiting for completion.
	p := mkProgram("chain",
		isa.Inst{Op: isa.OpVAdd, Dst: isa.V(1), Src1: isa.V(2), Src2: isa.V(4)},
		isa.Inst{Op: isa.OpVMul, Dst: isa.V(6), Src1: isa.V(1), Src2: isa.V(4)},
	)
	rep := runSingle(t, testConfig(1), p, 1, nil)
	// vmul: s=10, depth 12, last write 10+12+127=149 -> 150.
	if rep.Cycles != 150 {
		t.Fatalf("cycles = %d, want 150 (flexible chaining)", rep.Cycles)
	}
}

func TestLoadsDoNotChain(t *testing.T) {
	// The C3400 does not chain memory loads into functional units: the
	// dependent vadd waits for the load's last element write (cycle 180).
	p := mkProgram("nochain",
		isa.Inst{Op: isa.OpVLoad, Dst: isa.V(0), Src1: isa.A(0)},
		isa.Inst{Op: isa.OpVAdd, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(4)},
	)
	rep := runSingle(t, testConfig(1), p, 1, manyAddrs(1))
	// vadd at t=181, depth 9: 181+9+127 = 317 -> 318.
	if rep.Cycles != 318 {
		t.Fatalf("cycles = %d, want 318 (no load chaining)", rep.Cycles)
	}
}

func TestStoreChainsFromFU(t *testing.T) {
	p := mkProgram("stchain",
		isa.Inst{Op: isa.OpVAdd, Dst: isa.V(1), Src1: isa.V(2), Src2: isa.V(4)},
		isa.Inst{Op: isa.OpVStore, Src1: isa.V(1), Src2: isa.A(0)},
	)
	rep := runSingle(t, testConfig(1), p, 1, manyAddrs(1))
	// Store chains at s=10, holds LD+port through 138.
	if rep.Cycles != 138 {
		t.Fatalf("cycles = %d, want 138 (store chaining)", rep.Cycles)
	}
	if rep.MemBusyCycles != 128 {
		t.Fatalf("mem busy = %d", rep.MemBusyCycles)
	}
}

func TestTwoFUsRunInParallel(t *testing.T) {
	// Second independent vadd takes FU2 one cycle later.
	p := mkProgram("2fu",
		isa.Inst{Op: isa.OpVAdd, Dst: isa.V(0), Src1: isa.V(2), Src2: isa.V(4)},
		isa.Inst{Op: isa.OpVAdd, Dst: isa.V(6), Src1: isa.V(3), Src2: isa.V(5)},
	)
	rep := runSingle(t, testConfig(1), p, 1, nil)
	if rep.Cycles != 138 {
		t.Fatalf("cycles = %d, want 138", rep.Cycles)
	}
	both := rep.Breakdown[1<<stats.UnitFU1|1<<stats.UnitFU2]
	if both != 127 {
		t.Fatalf("dual-FU cycles = %d, want 127", both)
	}
}

func TestThirdVectorOpBlocksOnFUs(t *testing.T) {
	p := mkProgram("3fu",
		isa.Inst{Op: isa.OpVAdd, Dst: isa.V(0), Src1: isa.V(2), Src2: isa.V(4)},
		isa.Inst{Op: isa.OpVAdd, Dst: isa.V(6), Src1: isa.V(3), Src2: isa.V(5)},
		isa.Inst{Op: isa.OpVAdd, Dst: isa.V(7), Src1: isa.V(2), Src2: isa.V(5)},
	)
	rep := runSingle(t, testConfig(1), p, 1, nil)
	// Third waits for FU1 (free at 128), then for bank 3's write port
	// (v6's write window [10,138) blocks v7 until 138):
	// 138+9+127 = 274 -> 275.
	if rep.Cycles != 275 {
		t.Fatalf("cycles = %d, want 275 (FU then write-port hazard)", rep.Cycles)
	}
	if rep.LostDecode == 0 {
		t.Error("expected lost decode cycles while blocked")
	}
}

func TestFU2OnlyBlocksEvenIfFU1Free(t *testing.T) {
	p := mkProgram("fu2only",
		isa.Inst{Op: isa.OpVMul, Dst: isa.V(0), Src1: isa.V(2), Src2: isa.V(4)},
		isa.Inst{Op: isa.OpVMul, Dst: isa.V(6), Src1: isa.V(3), Src2: isa.V(5)},
	)
	rep := runSingle(t, testConfig(1), p, 1, nil)
	// Second mul waits until FU2 frees at 128: 128+12+127 = 267 -> 268.
	if rep.Cycles != 268 {
		t.Fatalf("cycles = %d, want 268 (FU2-only hazard)", rep.Cycles)
	}
	if got := rep.Breakdown[1<<stats.UnitFU1]; got != 0 {
		t.Fatalf("FU1 used %d cycles by mul-only program", got)
	}
}

func TestWAWBlocksOnDestination(t *testing.T) {
	p := mkProgram("waw",
		isa.Inst{Op: isa.OpVAdd, Dst: isa.V(0), Src1: isa.V(2), Src2: isa.V(4)},
		isa.Inst{Op: isa.OpVAdd, Dst: isa.V(0), Src1: isa.V(3), Src2: isa.V(5)},
	)
	rep := runSingle(t, testConfig(1), p, 1, nil)
	// Writer active through 136; retry at 137: 137+9+127 = 273 -> 274.
	if rep.Cycles != 274 {
		t.Fatalf("cycles = %d, want 274 (WAW)", rep.Cycles)
	}
}

func TestWARBlocksOnActiveReader(t *testing.T) {
	p := mkProgram("war",
		isa.Inst{Op: isa.OpVAdd, Dst: isa.V(0), Src1: isa.V(2), Src2: isa.V(4)},
		isa.Inst{Op: isa.OpVAdd, Dst: isa.V(2), Src1: isa.V(3), Src2: isa.V(5)},
	)
	rep := runSingle(t, testConfig(1), p, 1, nil)
	// v2 is read [0,128): overwrite dispatches at 128 -> 128+9+128 = 265.
	if rep.Cycles != 265 {
		t.Fatalf("cycles = %d, want 265 (WAR)", rep.Cycles)
	}
}

func TestBankWritePortConflict(t *testing.T) {
	// v0 and v1 share bank 0's single write port.
	p := mkProgram("wport",
		isa.Inst{Op: isa.OpVAdd, Dst: isa.V(0), Src1: isa.V(2), Src2: isa.V(4)},
		isa.Inst{Op: isa.OpVAdd, Dst: isa.V(1), Src1: isa.V(3), Src2: isa.V(5)},
	)
	rep := runSingle(t, testConfig(1), p, 1, nil)
	// First writes bank0 [9,137); second blocked until 137: 137+9+128=274.
	if rep.Cycles != 274 {
		t.Fatalf("cycles = %d, want 274 (bank write port)", rep.Cycles)
	}
}

func TestBankReadPortConflict(t *testing.T) {
	// Three concurrent readers of bank 1 (v2, v3) exceed its two read
	// ports; third op must wait. Each op uses distinct FUs/destinations.
	p := mkProgram("rport",
		isa.Inst{Op: isa.OpVAdd, Dst: isa.V(0), Src1: isa.V(2), Src2: isa.V(4)}, // bank1 reader 1
		isa.Inst{Op: isa.OpVAdd, Dst: isa.V(6), Src1: isa.V(3), Src2: isa.V(5)}, // bank1 reader 2
		isa.Inst{Op: isa.OpVMul, Dst: isa.V(7), Src1: isa.V(2), Src2: isa.V(4)}, // needs a third bank1 port
	)
	rep := runSingle(t, testConfig(1), p, 1, nil)
	// Bank 1's two read ports are held [0,128) and [1,129); the port
	// frees at 128 but FU2 (held by the second vadd) frees at 129:
	// 129+12+127 = 268 -> 269.
	if rep.Cycles != 269 {
		t.Fatalf("cycles = %d, want 269 (bank read ports)", rep.Cycles)
	}
}

func TestVectorScalarOperandMustBeReady(t *testing.T) {
	p := mkProgram("vs",
		isa.Inst{Op: isa.OpSLoad, Dst: isa.S(1), Src1: isa.A(0)},
		isa.Inst{Op: isa.OpVAddS, Dst: isa.V(0), Src1: isa.V(2), Src2: isa.S(1)},
	)
	rep := runSingle(t, testConfig(1), p, 1, manyAddrs(1))
	// s1 ready at 4 (scalar cache); vadds at 4: 4+9+127 = 140 -> 141.
	if rep.Cycles != 141 {
		t.Fatalf("cycles = %d, want 141", rep.Cycles)
	}
}

func TestReductionWritesScalar(t *testing.T) {
	p := mkProgram("red",
		isa.Inst{Op: isa.OpVRedAdd, Dst: isa.S(1), Src1: isa.V(2)},
		isa.Inst{Op: isa.OpSAdd, Dst: isa.S(2), Src1: isa.S(1), Src2: isa.S(1)},
	)
	rep := runSingle(t, testConfig(1), p, 1, nil)
	// Reduction result at 9+127+1 = 137; sadd at 137 ready 139.
	if rep.Cycles != 139 {
		t.Fatalf("cycles = %d, want 139", rep.Cycles)
	}
}

func TestSetVLChangesVectorLength(t *testing.T) {
	p := mkProgram("vlchg",
		isa.Inst{Op: isa.OpSetVL, Src1: isa.A(0)},
		isa.Inst{Op: isa.OpVAdd, Dst: isa.V(0), Src1: isa.V(2), Src2: isa.V(4)},
	)
	m, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	s := prog.NewStreamVL(p, &prog.SliceSource{BBs: []int{0}, VLs: []int64{32}}, 0)
	if err := m.SetThreadStream(0, "vlchg", s); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(Stop{})
	if err != nil {
		t.Fatal(err)
	}
	// setvl t=0; vadd t=1 at VL=32: 1+9+31 = 41 -> 42.
	if rep.Cycles != 42 {
		t.Fatalf("cycles = %d, want 42", rep.Cycles)
	}
	if rep.VectorArithOps != 32 {
		t.Fatalf("arith ops = %d, want 32", rep.VectorArithOps)
	}
}

func TestMemoryPortSerializesLoads(t *testing.T) {
	p := mkProgram("2ld",
		isa.Inst{Op: isa.OpVLoad, Dst: isa.V(0), Src1: isa.A(0)},
		isa.Inst{Op: isa.OpVLoad, Dst: isa.V(4), Src1: isa.A(1)},
	)
	rep := runSingle(t, testConfig(1), p, 1, manyAddrs(2))
	// Second load starts at 128: last write 128+53+127 = 308 -> 309.
	if rep.Cycles != 309 {
		t.Fatalf("cycles = %d, want 309", rep.Cycles)
	}
	if rep.MemBusyCycles != 256 {
		t.Fatalf("mem busy = %d, want 256", rep.MemBusyCycles)
	}
}

func TestCrossbarLatencyKnob(t *testing.T) {
	// Section 8: raising read/write crossbar latency from 2 to 3 delays
	// results by exactly 2 cycles on a single instruction.
	cfg := testConfig(1)
	cfg.Lat.ReadXbar, cfg.Lat.WriteXbar = 3, 3
	p := mkProgram("xbar", isa.Inst{Op: isa.OpVAdd, Dst: isa.V(0), Src1: isa.V(2), Src2: isa.V(4)})
	rep := runSingle(t, cfg, p, 1, nil)
	if rep.Cycles != 139 {
		t.Fatalf("cycles = %d, want 139 (3-cycle crossbars)", rep.Cycles)
	}
}

func TestMemoryLatencySensitivity(t *testing.T) {
	// A load-use chain's run time moves one-for-one with memory latency.
	mk := func(lat int) Cycle {
		cfg := testConfig(1)
		cfg.Mem.Latency = lat
		p := mkProgram("lat",
			isa.Inst{Op: isa.OpVLoad, Dst: isa.V(0), Src1: isa.A(0)},
			isa.Inst{Op: isa.OpVAdd, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(4)},
		)
		return runSingle(t, cfg, p, 1, manyAddrs(1)).Cycles
	}
	c1, c100 := mk(1), mk(100)
	if c100-c1 != 99 {
		t.Fatalf("latency 1 -> %d, latency 100 -> %d; delta %d, want 99", c1, c100, c100-c1)
	}
}
