package main

import (
	"fmt"
	"time"

	"mtvec"
	"mtvec/internal/core"
	"mtvec/internal/prog"
	"mtvec/internal/workload"
)

// Micro-cases call the lower layers directly, at one fixed scale, so
// their figures compare across workloads. Each case runs microReps
// times and reports the median.
const (
	microScale = 3e-4
	microReps  = 3
	// microProgram is the Table 3 program of the engine cases, beside
	// the spmv and gemm kernels.
	microProgram = "tf" // flo52
)

func microCases(m metricSet) error {
	specs := supplies()
	var ws []*workload.Workload
	var build []float64
	for r := 0; r < microReps; r++ {
		ws = ws[:0]
		var insts int64
		start := time.Now()
		for _, sp := range specs {
			w, err := sp.Build(microScale)
			if err != nil {
				return err
			}
			ws = append(ws, w)
			insts += w.Stats.Insts()
		}
		build = append(build, float64(time.Since(start).Nanoseconds())/float64(insts))
	}
	m.set("workload.build_ns_per_inst", median(build), "ns")

	var decode []float64
	for r := 0; r < microReps; r++ {
		var insts int64
		var elapsed time.Duration
		for _, w := range ws {
			start := time.Now()
			dec, err := prog.DecodeAllVL(w.Trace.Prog, w.Trace.Source(), 0, w.Trace.MaxVL)
			elapsed += time.Since(start)
			if err != nil {
				return err
			}
			insts += int64(len(dec))
		}
		decode = append(decode, float64(elapsed.Nanoseconds())/float64(insts))
	}
	m.set("prog.decode_ns_per_inst", median(decode), "ns")

	if err := traceCase(m); err != nil {
		return err
	}
	byShort := map[string]*workload.Workload{}
	for _, w := range ws {
		byShort[w.Spec.Short] = w
		w.Trace.Decoded()
	}
	if err := engineCases(m, []*workload.Workload{byShort["sp"], byShort["gm"], byShort[microProgram]}); err != nil {
		return err
	}
	return batchCase(m, byShort[microProgram])
}

// traceCase times Compiled.Trace for the daxpy-plus-setup kernel that
// mtvbench's batch-sweep cases run.
func traceCase(m metricSet) error {
	x := &mtvec.Array{Name: "x", Base: 0x10000, Stride: 8}
	y := &mtvec.Array{Name: "y", Base: 0x20000, Stride: 8}
	kern := &mtvec.Kernel{Name: "daxpy-setup"}
	kern.Units = append(kern.Units,
		&mtvec.VectorLoop{
			Name: "daxpy",
			Body: []mtvec.Stmt{{
				Dst: y,
				E: &mtvec.Bin{Op: mtvec.Add,
					L: &mtvec.Bin{Op: mtvec.Mul, L: &mtvec.ScalarArg{Name: "a"}, R: &mtvec.Ref{Arr: x}},
					R: &mtvec.Ref{Arr: y}},
			}},
		},
		&mtvec.ScalarLoop{Name: "setup", Loads: 2, Stores: 1, IntOps: 3, FPOps: 1},
	)
	c, err := mtvec.CompileKernel(kern)
	if err != nil {
		return err
	}
	sched := []mtvec.Invocation{{Unit: 1, N: 1 << 14}, {Unit: 0, N: 1 << 14}, {Unit: 1, N: 1 << 14}}
	var ns []float64
	for r := 0; r < microReps; r++ {
		start := time.Now()
		tr, err := c.Trace(sched)
		elapsed := time.Since(start)
		if err != nil {
			return err
		}
		dec := tr.Decoded()
		if len(dec) == 0 {
			return fmt.Errorf("sweep kernel trace does not predecode")
		}
		ns = append(ns, float64(elapsed.Nanoseconds())/float64(len(dec)))
	}
	m.set("vcomp.trace_ns_per_inst", median(ns), "ns")
	return nil
}

// runMachine runs w on a fresh machine: alone at one context, or as a
// grouped run with restarting copies of itself on the other contexts.
func runMachine(w *workload.Workload, contexts int, stepped bool) (*mtvec.Report, time.Duration, error) {
	cfg := mtvec.DefaultConfig()
	cfg.Contexts = contexts
	cfg.DisableFastForward = stepped
	start := time.Now()
	m, err := mtvec.NewMachine(cfg)
	if err != nil {
		return nil, 0, err
	}
	if err := m.SetThreadStream(0, w.Spec.Short, w.Stream()); err != nil {
		return nil, 0, err
	}
	for t := 1; t < contexts; t++ {
		if err := m.SetThread(t, core.Repeat(w.Spec.Short, w.Stream)); err != nil {
			return nil, 0, err
		}
	}
	rep, err := m.Run(mtvec.Stop{Thread0Complete: contexts > 1})
	return rep, time.Since(start), err
}

// engineCases times NewMachine+Run on each supply at 1 and 4 contexts,
// with fast-forward on and off.
func engineCases(m metricSet, ws []*workload.Workload) error {
	var perCycle, perInst, perCycleStepped, speedup []float64
	for r := 0; r < microReps; r++ {
		var ffNS, stNS, ffCycles, stCycles, insts int64
		for _, w := range ws {
			for _, contexts := range []int{1, 4} {
				rep, d, err := runMachine(w, contexts, false)
				if err != nil {
					return err
				}
				ffNS += d.Nanoseconds()
				ffCycles += rep.Cycles
				insts += rep.Insts
				rep, d, err = runMachine(w, contexts, true)
				if err != nil {
					return err
				}
				stNS += d.Nanoseconds()
				stCycles += rep.Cycles
			}
		}
		perCycle = append(perCycle, float64(ffNS)/float64(ffCycles))
		perInst = append(perInst, float64(ffNS)/float64(insts))
		perCycleStepped = append(perCycleStepped, float64(stNS)/float64(stCycles))
		speedup = append(speedup, float64(stNS)/float64(ffNS))
	}
	m.set("core.ns_per_cycle", median(perCycle), "ns")
	m.set("core.ns_per_inst", median(perInst), "ns")
	m.set("core.ns_per_cycle_stepped", median(perCycleStepped), "ns")
	m.set("core.ff_speedup", median(speedup), "x")
	return nil
}

// batchCase compares eight solo runs of one supply, at eight memory
// latencies, with the same eight configurations as lanes of one
// core.Batch advanced by one goroutine.
func batchCase(m metricSet, w *workload.Workload) error {
	cfgs := make([]core.Config, 8)
	stops := make([]core.Stop, 8)
	for i := range cfgs {
		cfgs[i] = mtvec.DefaultConfig()
		cfgs[i].Mem.Latency = 30 + 10*i
	}
	var gain []float64
	for r := 0; r < microReps; r++ {
		start := time.Now()
		for _, cfg := range cfgs {
			mc, err := core.New(cfg)
			if err != nil {
				return err
			}
			if err := mc.SetThreadStream(0, w.Spec.Short, w.Stream()); err != nil {
				return err
			}
			if _, err := mc.Run(core.Stop{}); err != nil {
				return err
			}
		}
		solo := time.Since(start)
		start = time.Now()
		b, err := core.NewBatch(cfgs)
		if err != nil {
			return err
		}
		for i := range cfgs {
			if err := b.Machine(i).SetThreadStream(0, w.Spec.Short, w.Stream()); err != nil {
				return err
			}
		}
		if _, errs := b.Run(stops); errs != nil {
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
		}
		gain = append(gain, solo.Seconds()/time.Since(start).Seconds())
	}
	m.set("core.batch8_gain", median(gain), "x")
	return nil
}
