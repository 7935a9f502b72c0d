package core

import (
	"testing"

	"mtvec/internal/isa"
	"mtvec/internal/memsys"
	"mtvec/internal/prog"
	"mtvec/internal/stats"
)

// Deeper timing coverage of the vector-memory paths: gathers, scatters,
// chained indices, reductions feeding scalars, and the banked/multi-port
// memory extensions interacting with dispatch.

func TestGatherTimingMatchesLoad(t *testing.T) {
	// A gather with a ready index register behaves like a vector load on
	// the port and LD pipe (Section 3.1: gathers pay the same latency).
	load := runSingle(t, testConfig(1), mkProgram("l",
		isa.Inst{Op: isa.OpVLoad, Dst: isa.V(0), Src1: isa.A(0)},
	), 1, manyAddrs(1))
	gather := runSingle(t, testConfig(1), mkProgram("g",
		isa.Inst{Op: isa.OpVGather, Dst: isa.V(0), Src1: isa.V(2), Src2: isa.A(0)},
	), 1, manyAddrs(1))
	if load.Cycles != gather.Cycles {
		t.Fatalf("gather %d cycles vs load %d", gather.Cycles, load.Cycles)
	}
}

func TestGatherIndexChainsFromFU(t *testing.T) {
	// The index register is produced by an FU op: the gather chains off
	// its first element (dispatch blocked until fw+1 = 10).
	p := mkProgram("gc",
		isa.Inst{Op: isa.OpVAdd, Dst: isa.V(2), Src1: isa.V(3), Src2: isa.V(4)},
		isa.Inst{Op: isa.OpVGather, Dst: isa.V(0), Src1: isa.V(2), Src2: isa.A(0)},
	)
	rep := runSingle(t, testConfig(1), p, 1, manyAddrs(1))
	// Gather at t=10: first datum 10+50=60, write +1+2: lw=63+127=190 -> 191.
	if rep.Cycles != 191 {
		t.Fatalf("cycles = %d, want 191", rep.Cycles)
	}
}

func TestGatherIndexFromLoadWaits(t *testing.T) {
	// Index produced by a LOAD cannot chain: gather waits for the full
	// index register (load lw = 180), dispatches at 181.
	p := mkProgram("gl",
		isa.Inst{Op: isa.OpVLoad, Dst: isa.V(2), Src1: isa.A(1)},
		isa.Inst{Op: isa.OpVGather, Dst: isa.V(0), Src1: isa.V(2), Src2: isa.A(0)},
	)
	rep := runSingle(t, testConfig(1), p, 1, manyAddrs(2))
	// Gather at 181: first datum 231, lw = 231+3+127 = 361 -> 362.
	if rep.Cycles != 362 {
		t.Fatalf("cycles = %d, want 362", rep.Cycles)
	}
}

func TestScatterReadsTwoRegisters(t *testing.T) {
	// A scatter chains from an FU-produced data register while reading a
	// ready index register; it holds the LD pipe and port like a store.
	p := mkProgram("sc",
		isa.Inst{Op: isa.OpVAdd, Dst: isa.V(1), Src1: isa.V(2), Src2: isa.V(4)},
		isa.Inst{Op: isa.OpVScatter, Src1: isa.V(1), Src2: isa.V(6)},
	)
	rep := runSingle(t, testConfig(1), p, 1, manyAddrs(1))
	// Scatter dispatches at 10 (chain), port busy [10,138) -> 138.
	if rep.Cycles != 138 {
		t.Fatalf("cycles = %d, want 138", rep.Cycles)
	}
	if rep.MemBusyCycles != 128 {
		t.Fatalf("port busy = %d", rep.MemBusyCycles)
	}
}

func TestReductionChainsIntoVectorScalarOp(t *testing.T) {
	// vredadd writes s1 at 137; the dependent vmuls must wait for it.
	p := mkProgram("rc",
		isa.Inst{Op: isa.OpVRedAdd, Dst: isa.S(1), Src1: isa.V(2)},
		isa.Inst{Op: isa.OpVMulS, Dst: isa.V(4), Src1: isa.V(6), Src2: isa.S(1)},
	)
	rep := runSingle(t, testConfig(1), p, 1, nil)
	// vmuls at 137 on FU2 (depth 12): lw = 137+12+127 = 276 -> 277.
	if rep.Cycles != 277 {
		t.Fatalf("cycles = %d, want 277", rep.Cycles)
	}
}

func TestBankConflictSlowsStridedLoad(t *testing.T) {
	// Banked memory: a pathological stride makes the LD pipe hold the
	// port for factor x VL cycles, delaying everything downstream.
	cfg := testConfig(1)
	cfg.Mem.Banks, cfg.Mem.BankBusy = 16, 8
	prog16 := mkProgram("bank",
		isa.Inst{Op: isa.OpSetVS, Src1: isa.A(1)},
		isa.Inst{Op: isa.OpVLoad, Dst: isa.V(0), Src1: isa.A(0)},
	)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := prog.NewStreamVL(prog16, &prog.SliceSource{BBs: []int{0}, Strides: []int64{16 * 8}, Addrs: manyAddrs(1)}, 0)
	if err := m.SetThreadStream(0, "bank", s); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(Stop{})
	if err != nil {
		t.Fatal(err)
	}
	// Stride 16 elements on 16 banks with busy 8: 8 cycles/element.
	// LD busy 8*128 = 1024 from t=1.
	if got := rep.Breakdown[1<<stats.UnitLD]; got != 1024 {
		t.Fatalf("LD busy = %d, want 1024", got)
	}
}

func TestDedicatedPortsOverlapLoads(t *testing.T) {
	// Cray-like memory: two loads to different registers proceed on
	// separate load ports; the LD pipe is still single, so they
	// serialize there — the pipe, not the port, becomes the bottleneck.
	cfg := testConfig(1)
	cfg.Mem = memsys.Config{Latency: 50, ScalarLatency: 4, LoadPorts: 2, StorePorts: 1}
	p := mkProgram("2p",
		isa.Inst{Op: isa.OpVLoad, Dst: isa.V(0), Src1: isa.A(0)},
		isa.Inst{Op: isa.OpVLoad, Dst: isa.V(4), Src1: isa.A(1)},
	)
	rep := runSingle(t, cfg, p, 1, manyAddrs(2))
	// Identical to the single-port case because the LD unit serializes:
	// second load at 128, lw = 128+53+127 = 308 -> 309.
	if rep.Cycles != 309 {
		t.Fatalf("cycles = %d, want 309 (LD pipe serializes)", rep.Cycles)
	}
}

func TestMultiIssueVectorPlusScalar(t *testing.T) {
	// Issue width 2: thread 1's scalar work issues in the same cycles as
	// thread 0's vector stream, shrinking total time.
	vecProg := mkProgram("v",
		isa.Inst{Op: isa.OpVAdd, Dst: isa.V(0), Src1: isa.V(2), Src2: isa.V(4)},
		isa.Inst{Op: isa.OpVAdd, Dst: isa.V(6), Src1: isa.V(3), Src2: isa.V(5)},
	)
	scalProg := mkProgram("s",
		isa.Inst{Op: isa.OpSAddI, Dst: isa.S(1), Src1: isa.S(2), Src2: isa.S(3)},
	)
	run := func(width int) Cycle {
		cfg := testConfig(2)
		cfg.IssueWidth = width
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.SetThreadStream(0, "v", streamOf(vecProg, 40, nil, nil, nil))
		m.SetThreadStream(1, "s", streamOf(scalProg, 2000, nil, nil, nil))
		rep, err := m.Run(Stop{})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Cycles
	}
	w1, w2 := run(1), run(2)
	if w2 >= w1 {
		t.Fatalf("issue width 2 (%d) not faster than 1 (%d)", w2, w1)
	}
}

func TestQuiesceIncludesScalarTail(t *testing.T) {
	// A run ending in a long-latency scalar op counts its completion.
	p := mkProgram("q", isa.Inst{Op: isa.OpSDivI, Dst: isa.S(1), Src1: isa.S(2), Src2: isa.S(3)})
	rep := runSingle(t, testConfig(1), p, 1, nil)
	if rep.Cycles != 34 {
		t.Fatalf("cycles = %d, want 34 (integer divide latency)", rep.Cycles)
	}
}
