package workload

import (
	"fmt"
	"sync"

	"mtvec/internal/kernel"
	"mtvec/internal/vcomp"
)

// The benchmark suite: real vectorizable kernels (in the spirit of the
// RiVEC / Ara RVV suites) expressed in the same kernel IR as the
// Table 3 reconstructions, but scheduled from actual problem sizes
// rather than calibrated to published instruction budgets. Problem
// sizes scale linearly with the build scale (DefaultScale is the
// nominal size), so the same sweep machinery runs the suite at any
// fraction of full size. docs/BENCHMARKS.md describes each kernel's
// math, vector shape, memory pattern and expected bank behavior.

// BenchSpecs returns the benchmark-suite specs. Like Specs, the specs
// themselves are built once and shared; each call returns a fresh
// slice. ByName/ByShort resolve these alongside the Table 3 catalog,
// which is what makes the suite sweepable, store-persistable and
// servable with no session or cluster changes.
func BenchSpecs() []*Spec {
	return append([]*Spec(nil), benchSpecsShared()...)
}

// benchSpecsShared is the shared registry behind BenchSpecs; callers
// must not modify it.
var benchSpecsShared = sync.OnceValue(buildBenchSpecs)

// BenchOrder returns the suite in its fixed catalog order; the
// ext-benchsuite experiment queues the kernels in this order.
func BenchOrder() []*Spec { return BenchSpecs() }

// benchSize scales a nominal problem size (elements, rows) by
// scale/DefaultScale, never below one element.
func benchSize(nominal int64, scale float64) int64 {
	n := int64(float64(nominal) * (scale / DefaultScale))
	if n < 1 {
		n = 1
	}
	return n
}

// passSchedule alternates a fixed number of serial setup iterations with
// one full invocation of unit, the shape of a repeated whole-array sweep
// (axpy passes, stencil timesteps, ...).
func passSchedule(c *vcomp.Compiled, unit string, n, passes, serialIters int64) ([]vcomp.Invocation, error) {
	u := c.UnitIndex(unit)
	serial := c.UnitIndex("serial")
	if u < 0 || serial < 0 {
		return nil, fmt.Errorf("kernel is missing unit %q or serial loop", unit)
	}
	sched := make([]vcomp.Invocation, 0, 2*passes)
	for p := int64(0); p < passes; p++ {
		if serialIters > 0 {
			sched = append(sched, vcomp.Invocation{Unit: serial, N: serialIters})
		}
		sched = append(sched, vcomp.Invocation{Unit: u, N: n})
	}
	return sched, nil
}

func buildBenchSpecs() []*Spec {
	return []*Spec{
		{
			Name: "axpy", Short: "ax", Suite: "Bench",
			build: func() (*kernel.Kernel, []phase) {
				return &kernel.Kernel{Name: "axpy", Units: []kernel.Unit{
					benchAxpyLoop("daxpy", 0x4000_0000),
				}}, nil
			},
			schedule: func(c *vcomp.Compiled, scale float64) ([]vcomp.Invocation, error) {
				return passSchedule(c, "daxpy", benchSize(100_000, scale), 4, 64)
			},
		},
		{
			Name: "dot", Short: "dp", Suite: "Bench",
			build: func() (*kernel.Kernel, []phase) {
				return &kernel.Kernel{Name: "dot", Units: []kernel.Unit{
					benchDotLoop("ddot", 0x4100_0000),
				}}, nil
			},
			schedule: func(c *vcomp.Compiled, scale float64) ([]vcomp.Invocation, error) {
				return passSchedule(c, "ddot", benchSize(120_000, scale), 4, 64)
			},
		},
		{
			Name: "gemm", Short: "gm", Suite: "Bench",
			build: func() (*kernel.Kernel, []phase) {
				return &kernel.Kernel{Name: "gemm", Units: []kernel.Unit{
					gemmInnerLoop("inner", 0x4200_0000),
				}}, nil
			},
			// Blocked C += A·B: rows of C are processed in register-blocked
			// pairs; for each of the K inner-product steps the inner loop
			// streams one row of B against both accumulator rows. Scale
			// grows the row-pair count; K and the vectorized row length
			// stay fixed so blocking behavior is size-invariant.
			schedule: func(c *vcomp.Compiled, scale float64) ([]vcomp.Invocation, error) {
				inner := c.UnitIndex("inner")
				serial := c.UnitIndex("serial")
				if inner < 0 || serial < 0 {
					return nil, fmt.Errorf("kernel is missing unit %q or serial loop", "inner")
				}
				const kSteps, rowLen = 64, 256
				rowPairs := benchSize(32, scale)
				sched := make([]vcomp.Invocation, 0, rowPairs*(kSteps+1))
				for b := int64(0); b < rowPairs; b++ {
					sched = append(sched, vcomp.Invocation{Unit: serial, N: 8})
					for k := 0; k < kSteps; k++ {
						sched = append(sched, vcomp.Invocation{Unit: inner, N: rowLen})
					}
				}
				return sched, nil
			},
		},
		{
			Name: "spmv", Short: "sp", Suite: "Bench",
			build: func() (*kernel.Kernel, []phase) {
				return &kernel.Kernel{Name: "spmv", Units: []kernel.Unit{
					spmvRowLoop("row", 0x4300_0000),
				}}, nil
			},
			// CSR sparse matrix-vector product: one gather-reduction per
			// row, trip count = that row's nonzero count. The deterministic
			// nonzero pattern mixes short and full vectors (average ~81),
			// the hallmark of sparse workloads.
			schedule: func(c *vcomp.Compiled, scale float64) ([]vcomp.Invocation, error) {
				row := c.UnitIndex("row")
				serial := c.UnitIndex("serial")
				if row < 0 || serial < 0 {
					return nil, fmt.Errorf("kernel is missing unit %q or serial loop", "row")
				}
				rows := benchSize(4096, scale)
				sched := make([]vcomp.Invocation, 0, rows+rows/64+1)
				for r := int64(0); r < rows; r++ {
					if r%64 == 0 {
						// Row-pointer and index bookkeeping between bands.
						sched = append(sched, vcomp.Invocation{Unit: serial, N: 16})
					}
					sched = append(sched, vcomp.Invocation{Unit: row, N: spmvNNZ[r%int64(len(spmvNNZ))]})
				}
				return sched, nil
			},
		},
		{
			Name: "stencil1d", Short: "s1", Suite: "Bench",
			build: func() (*kernel.Kernel, []phase) {
				return &kernel.Kernel{Name: "stencil1d", Units: []kernel.Unit{
					stencil3ptLoop("heat", 0x4400_0000),
				}}, nil
			},
			schedule: func(c *vcomp.Compiled, scale float64) ([]vcomp.Invocation, error) {
				return passSchedule(c, "heat", benchSize(65536, scale), 4, 32)
			},
		},
		{
			Name: "stencil2d", Short: "s2", Suite: "Bench",
			build: func() (*kernel.Kernel, []phase) {
				return &kernel.Kernel{Name: "stencil2d", Units: []kernel.Unit{
					stencil5ptLoop("jacobi", 0x4500_0000, 512*8),
				}}, nil
			},
			// 5-point Jacobi relaxation over a rows x 512 grid, swept row
			// by row: each invocation relaxes one row (north/south
			// neighbors live a full row-stride away), with per-row pointer
			// arithmetic in the serial loop. Scale grows the row count.
			schedule: func(c *vcomp.Compiled, scale float64) ([]vcomp.Invocation, error) {
				jacobi := c.UnitIndex("jacobi")
				serial := c.UnitIndex("serial")
				if jacobi < 0 || serial < 0 {
					return nil, fmt.Errorf("kernel is missing unit %q or serial loop", "jacobi")
				}
				const steps, cols = 2, 512
				rows := benchSize(256, scale)
				sched := make([]vcomp.Invocation, 0, steps*rows*2)
				for t := 0; t < steps; t++ {
					for r := int64(0); r < rows; r++ {
						sched = append(sched,
							vcomp.Invocation{Unit: serial, N: 2},
							vcomp.Invocation{Unit: jacobi, N: cols})
					}
				}
				return sched, nil
			},
		},
		{
			Name: "blackscholes", Short: "bs", Suite: "Bench",
			build: func() (*kernel.Kernel, []phase) {
				return &kernel.Kernel{Name: "blackscholes", Units: []kernel.Unit{
					blackscholesLoop("price", 0x4600_0000),
				}}, nil
			},
			schedule: func(c *vcomp.Compiled, scale float64) ([]vcomp.Invocation, error) {
				return passSchedule(c, "price", benchSize(49152, scale), 2, 64)
			},
		},
	}
}

// spmvNNZ is the deterministic per-row nonzero pattern of the spmv
// matrix: a mix of short rows (strip-control dominated) and rows longer
// than one hardware strip.
var spmvNNZ = [...]int64{16, 32, 64, 96, 128, 192, 48, 80}

// benchAxpyLoop is the BLAS-1 daxpy: y = a*x + y. Two unit-stride
// streams in, one out; arithmetic-to-memory ratio 2/3, so memory ports
// are the bottleneck — the canonical bandwidth-bound kernel.
func benchAxpyLoop(name string, base uint64) *kernel.VectorLoop {
	x := &kernel.Array{Name: name + ".x", Base: base, Stride: 8}
	y := &kernel.Array{Name: name + ".y", Base: base + 1<<20, Stride: 8}
	return &kernel.VectorLoop{Name: name, Body: []kernel.Stmt{{
		Dst: y,
		E: &kernel.Bin{Op: kernel.Add,
			L: &kernel.Bin{Op: kernel.Mul, L: &kernel.ScalarArg{Name: "a"}, R: &kernel.Ref{Arr: x}},
			R: &kernel.Ref{Arr: y}},
	}}}
}

// benchDotLoop is the BLAS-1 ddot: sum += x[i]*y[i], a pure
// load-multiply-reduce with no store traffic.
func benchDotLoop(name string, base uint64) *kernel.VectorLoop {
	x := &kernel.Array{Name: name + ".x", Base: base, Stride: 8}
	y := &kernel.Array{Name: name + ".y", Base: base + 1<<20, Stride: 8}
	return &kernel.VectorLoop{Name: name, Body: []kernel.Stmt{{
		Reduce: "dot",
		E:      &kernel.Bin{Op: kernel.Mul, L: &kernel.Ref{Arr: x}, R: &kernel.Ref{Arr: y}},
	}}}
}

// gemmInnerLoop is the inner loop of a register-blocked gemm: one row of
// B updates two accumulator rows of C (c0 += a0*b; c1 += a1*b). The
// shared B row is loaded once — the load-reuse that blocking buys.
func gemmInnerLoop(name string, base uint64) *kernel.VectorLoop {
	b := &kernel.Array{Name: name + ".b", Base: base, Stride: 8}
	c0 := &kernel.Array{Name: name + ".c0", Base: base + 1<<20, Stride: 8}
	c1 := &kernel.Array{Name: name + ".c1", Base: base + 2<<20, Stride: 8}
	return &kernel.VectorLoop{Name: name, Body: []kernel.Stmt{
		{Dst: c0, E: &kernel.Bin{Op: kernel.Add,
			L: &kernel.Bin{Op: kernel.Mul, L: &kernel.ScalarArg{Name: "a0"}, R: &kernel.Ref{Arr: b}},
			R: &kernel.Ref{Arr: c0}}},
		{Dst: c1, E: &kernel.Bin{Op: kernel.Add,
			L: &kernel.Bin{Op: kernel.Mul, L: &kernel.ScalarArg{Name: "a1"}, R: &kernel.Ref{Arr: b}},
			R: &kernel.Ref{Arr: c1}}},
	}}
}

// spmvRowLoop is one CSR row: y_r = sum(val[j] * x[col[j]]). The value
// and column-index streams are unit-stride; the x accesses are a gather
// through the index vector — the random-bank traffic sparse codes are
// known for.
func spmvRowLoop(name string, base uint64) *kernel.VectorLoop {
	val := &kernel.Array{Name: name + ".val", Base: base, Stride: 8}
	col := &kernel.Array{Name: name + ".col", Base: base + 1<<20, Stride: 8}
	x := &kernel.Array{Name: name + ".x", Base: base + 2<<20, Stride: 8}
	return &kernel.VectorLoop{Name: name, Body: []kernel.Stmt{{
		Reduce: "y",
		E: &kernel.Bin{Op: kernel.Mul,
			L: &kernel.Ref{Arr: val},
			R: &kernel.Gather{Data: x, Index: col}},
	}}}
}

// stencil3ptLoop is the 1-D heat equation step: out[i] = c0*in[i-1] +
// c1*in[i] + c2*in[i+1]. The three taps are the same stream at element
// offsets -1/0/+1, so consecutive strips re-touch the same banks.
func stencil3ptLoop(name string, base uint64) *kernel.VectorLoop {
	west := &kernel.Array{Name: name + ".west", Base: base, Stride: 8}
	mid := &kernel.Array{Name: name + ".mid", Base: base + 8, Stride: 8}
	east := &kernel.Array{Name: name + ".east", Base: base + 16, Stride: 8}
	out := &kernel.Array{Name: name + ".out", Base: base + 1<<20, Stride: 8}
	return &kernel.VectorLoop{Name: name, Body: []kernel.Stmt{{
		Dst: out,
		E: &kernel.Bin{Op: kernel.Add,
			L: &kernel.Bin{Op: kernel.Add,
				L: &kernel.Bin{Op: kernel.Mul, L: &kernel.ScalarArg{Name: "c0"}, R: &kernel.Ref{Arr: west}},
				R: &kernel.Bin{Op: kernel.Mul, L: &kernel.ScalarArg{Name: "c1"}, R: &kernel.Ref{Arr: mid}}},
			R: &kernel.Bin{Op: kernel.Mul, L: &kernel.ScalarArg{Name: "c2"}, R: &kernel.Ref{Arr: east}}},
	}}}
}

// stencil5ptLoop is one row of a 2-D 5-point Jacobi sweep: out = c*(N +
// S + E + W) + center. East/west taps are one element away, north/south
// a full row (rowBytes) away — five concurrent unit-stride streams whose
// bases straddle rows.
func stencil5ptLoop(name string, base uint64, rowBytes uint64) *kernel.VectorLoop {
	north := &kernel.Array{Name: name + ".n", Base: base, Stride: 8}
	west := &kernel.Array{Name: name + ".w", Base: base + rowBytes - 8, Stride: 8}
	center := &kernel.Array{Name: name + ".c", Base: base + rowBytes, Stride: 8}
	east := &kernel.Array{Name: name + ".e", Base: base + rowBytes + 8, Stride: 8}
	south := &kernel.Array{Name: name + ".s", Base: base + 2*rowBytes, Stride: 8}
	out := &kernel.Array{Name: name + ".out", Base: base + 1<<24 + rowBytes, Stride: 8}
	return &kernel.VectorLoop{Name: name, Body: []kernel.Stmt{{
		Dst: out,
		E: &kernel.Bin{Op: kernel.Add,
			L: &kernel.Bin{Op: kernel.Mul,
				L: &kernel.ScalarArg{Name: "c"},
				R: &kernel.Bin{Op: kernel.Add,
					L: &kernel.Bin{Op: kernel.Add, L: &kernel.Ref{Arr: north}, R: &kernel.Ref{Arr: south}},
					R: &kernel.Bin{Op: kernel.Add, L: &kernel.Ref{Arr: east}, R: &kernel.Ref{Arr: west}}}},
			R: &kernel.Ref{Arr: center}},
	}}}
}

// blackscholesLoop is the elementwise option-pricing kernel: per
// element, a square root, a divide and a compare-merge (the in-the-money
// select) — the FU2-heavy, predicated profile of financial codes.
//
//	sig   = vol * sqrt(t)
//	d1    = (logSK + rate*t) / sig
//	price = (d1 > strike) ? ... : spot - strike   (merged select)
func blackscholesLoop(name string, base uint64) *kernel.VectorLoop {
	t := &kernel.Array{Name: name + ".t", Base: base, Stride: 8}
	logSK := &kernel.Array{Name: name + ".logsk", Base: base + 1<<20, Stride: 8}
	spot := &kernel.Array{Name: name + ".spot", Base: base + 2<<20, Stride: 8}
	strike := &kernel.Array{Name: name + ".strike", Base: base + 3<<20, Stride: 8}
	sig := &kernel.Array{Name: name + ".sig", Base: base + 4<<20, Stride: 8}
	d1 := &kernel.Array{Name: name + ".d1", Base: base + 5<<20, Stride: 8}
	price := &kernel.Array{Name: name + ".price", Base: base + 6<<20, Stride: 8}
	return &kernel.VectorLoop{Name: name, Body: []kernel.Stmt{
		{Dst: sig, E: &kernel.Bin{Op: kernel.Mul,
			L: &kernel.ScalarArg{Name: "vol"},
			R: &kernel.Un{Op: kernel.Sqrt, X: &kernel.Ref{Arr: t}}}},
		{Dst: d1, E: &kernel.Bin{Op: kernel.Div,
			L: &kernel.Bin{Op: kernel.Add,
				L: &kernel.Ref{Arr: logSK},
				R: &kernel.Bin{Op: kernel.Mul, L: &kernel.ScalarArg{Name: "rate"}, R: &kernel.Ref{Arr: t}}},
			R: &kernel.Ref{Arr: sig}}},
		{Dst: price, E: &kernel.Bin{Op: kernel.Merge,
			L: &kernel.Bin{Op: kernel.CmpGT, L: &kernel.Ref{Arr: d1}, R: &kernel.Ref{Arr: strike}},
			R: &kernel.Bin{Op: kernel.Sub, L: &kernel.Ref{Arr: spot}, R: &kernel.Ref{Arr: strike}}}},
	}}
}
