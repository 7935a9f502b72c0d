// Custom kernel: the downstream-user scenario. Write your own loop nest
// in the kernel IR, compile it with the bank-aware vectorizing compiler,
// and measure it on reference and multithreaded machines.
//
// The kernel here is a damped 3-point relaxation with an indirect
// (gathered) source term:
//
//	for i:  out[i] = c*(u[i] + u[i+1]) + g*f[idx[i]]
//	        acc   += out[i] * w[i]
package main

import (
	"context"
	"fmt"
	"log"

	"mtvec"
)

func main() {
	u := &mtvec.Array{Name: "u", Base: 0x1_0000, Stride: 8}
	u1 := &mtvec.Array{Name: "u+1", Base: 0x1_0008, Stride: 8}
	f := &mtvec.Array{Name: "f", Base: 0x8_0000, Stride: 8}
	idx := &mtvec.Array{Name: "idx", Base: 0x9_0000, Stride: 8}
	w := &mtvec.Array{Name: "w", Base: 0xA_0000, Stride: 8}
	out := &mtvec.Array{Name: "out", Base: 0xB_0000, Stride: 8}

	k := &mtvec.Kernel{Name: "relax"}
	k.Units = append(k.Units,
		&mtvec.VectorLoop{
			Name: "relax",
			Body: []mtvec.Stmt{
				{
					Dst: out,
					E: &mtvec.Bin{Op: mtvec.Add,
						L: &mtvec.Bin{Op: mtvec.Mul,
							L: &mtvec.ScalarArg{Name: "c"},
							R: &mtvec.Bin{Op: mtvec.Add, L: &mtvec.Ref{Arr: u}, R: &mtvec.Ref{Arr: u1}}},
						R: &mtvec.Bin{Op: mtvec.Mul,
							L: &mtvec.ScalarArg{Name: "g"},
							R: &mtvec.Gather{Data: f, Index: idx}}},
				},
				{
					Reduce: "acc",
					E:      &mtvec.Bin{Op: mtvec.Mul, L: &mtvec.Ref{Arr: out}, R: &mtvec.Ref{Arr: w}},
				},
			},
		},
		&mtvec.ScalarLoop{Name: "setup", Loads: 2, Stores: 1, IntOps: 3, FPOps: 1},
	)

	c, err := mtvec.CompileKernel(k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %q: %d static instructions in %d blocks\n",
		c.Prog.Name, c.Prog.NumInsts(), len(c.Prog.Blocks))

	// One timestep = a setup pass plus a 100k-element relaxation.
	schedule := []mtvec.Invocation{
		{Unit: c.UnitIndex("setup"), N: 2_000},
		{Unit: c.UnitIndex("relax"), N: 100_000},
	}

	relax, err := mtvec.CompiledWorkload(c, schedule)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	ses := mtvec.NewSession()
	rep, err := ses.Run(ctx, mtvec.Solo(relax))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reference machine: %d cycles, %.1f%% port occupation, VOPC %.2f\n",
		rep.Cycles, 100*rep.MemOccupation(), rep.VOPC())

	// The same kernel as two threads of a multithreaded machine: a job
	// queue of two instances, one per context.
	rep2, err := ses.Run(ctx, mtvec.Queue([]*mtvec.Workload{relax, relax}, mtvec.WithContexts(2)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2-context machine, two instances: %d cycles (%.2fx the work in %.2fx the time)\n",
		rep2.Cycles, 2.0, float64(rep2.Cycles)/float64(rep.Cycles))
	fmt.Printf("port occupation rose to %.1f%%\n", 100*rep2.MemOccupation())
}
