package vcomp

import (
	"fmt"
	"testing"

	"mtvec/internal/arch"
	"mtvec/internal/kernel"
)

// fuzzBytes hands out fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzOptions draws a register-file organization (VLen 64–512, 4 or 8
// registers in banks of 1, 2 or 4) and load hoisting on or off.
func fuzzOptions(b *fuzzBytes) Options {
	rf := arch.DefaultRegFile()
	rf.VLen = 64 + b.next()*b.next()%449
	rf.VRegs = []int{8, 4}[b.next()%2]
	rf.VRegsPerBank = []int{2, 1, 4}[b.next()%3]
	return Options{NoHoist: b.next()%2 == 1, RegFile: rf}
}

// fuzzExpr draws an expression over arrs of at most the given depth.
func fuzzExpr(b *fuzzBytes, arrs []*kernel.Array, depth int) kernel.Expr {
	pick := func() *kernel.Array { return arrs[b.next()%len(arrs)] }
	kind := b.next() % 5
	if depth == 0 {
		kind %= 2
	}
	switch kind {
	case 0:
		return &kernel.Ref{Arr: pick()}
	case 1:
		return &kernel.Gather{Data: pick(), Index: pick()}
	case 2:
		return &kernel.Bin{Op: kernel.Add, L: &kernel.ScalarArg{Name: "a"}, R: fuzzExpr(b, arrs, depth-1)}
	case 3:
		return &kernel.Un{Op: kernel.UnOp(b.next() % 3), X: fuzzExpr(b, arrs, depth-1)}
	}
	return &kernel.Bin{Op: kernel.BinOp(b.next() % 9), L: fuzzExpr(b, arrs, depth-1), R: fuzzExpr(b, arrs, depth-1)}
}

// fuzzKernel draws one to four units, each a vector loop of one to
// three statements (stores, scatters or reductions over arrays of mixed
// strides) or a scalar loop.
func fuzzKernel(b *fuzzBytes) *kernel.Kernel {
	arrs := make([]*kernel.Array, 4)
	for i := range arrs {
		arrs[i] = &kernel.Array{Name: fmt.Sprintf("x%d", i), Base: uint64(i+1) << 20, Stride: 8 * int64(1+b.next()%3)}
	}
	k := &kernel.Kernel{Name: "fuzz"}
	for u := 1 + b.next()%4; u > 0; u-- {
		name := fmt.Sprintf("u%d", u)
		if b.next()%3 == 0 {
			k.Units = append(k.Units, &kernel.ScalarLoop{Name: name,
				Loads: b.next() % 3, Stores: b.next() % 2, IntOps: 1 + b.next()%3, FPOps: b.next() % 3, FPDivs: b.next() % 2})
			continue
		}
		l := &kernel.VectorLoop{Name: name}
		for s := 1 + b.next()%3; s > 0; s-- {
			st := kernel.Stmt{E: fuzzExpr(b, arrs, 2)}
			switch b.next() % 4 {
			case 0:
				st.Reduce = "r"
			case 1:
				st.Dst, st.ScatterIdx = arrs[b.next()%4], arrs[b.next()%4]
			default:
				st.Dst = arrs[b.next()%4]
			}
			l.Body = append(l.Body, st)
		}
		k.Units = append(k.Units, l)
	}
	return k
}

// fuzzSchedule draws up to eight invocations over c's units, each trip
// count 0, below VLen, VLen, a multiple of it, or a multiple plus a
// remainder, so vector and scalar units interleave and the VL in force
// crosses invocations.
func fuzzSchedule(b *fuzzBytes, c *Compiled) []Invocation {
	vlen := int64(c.RegFile().VLen)
	sched := make([]Invocation, b.next()%9)
	for i := range sched {
		n := int64(0)
		switch b.next() % 5 {
		case 1:
			n = 1 + int64(b.next())%(vlen-1)
		case 2:
			n = vlen
		case 3:
			n = vlen * int64(1+b.next()%4)
		case 4:
			n = vlen*int64(1+b.next()%4) + 1 + int64(b.next())%(vlen-1)
		}
		sched[i] = Invocation{Unit: b.next() % c.NumUnits(), N: n}
	}
	return sched
}

// FuzzScheduleProfile is the differential harness for the closed-form
// profile: over random kernels, register-file organizations and
// schedules, Compiled.Profile must equal replaying the synthesized
// trace field for field, and that replay must succeed.
func FuzzScheduleProfile(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 64, 0, 0, 1, 0, 1, 2, 1, 0, 0, 0, 5, 4, 2, 7, 1, 3, 0, 1, 2, 3, 1, 4, 1, 1, 2, 0, 0, 1})
	f.Add([]byte{200, 3, 1, 2, 0, 2, 2, 1, 2, 3, 0, 1, 4, 2, 1, 3, 0, 0, 1, 1, 2, 3, 4, 0, 8, 4, 1, 2, 0, 1, 9, 3, 3, 1})
	f.Add([]byte{9, 255, 1, 1, 1, 0, 1, 0, 3, 1, 0, 2, 1, 1, 4, 3, 2, 0, 1, 2, 0, 4, 2, 5, 1, 3, 7, 1, 0, 2, 3, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		opts := fuzzOptions(&b)
		c, err := CompileOpts(fuzzKernel(&b), opts)
		if err != nil {
			return // a body the register file cannot hold
		}
		sched := fuzzSchedule(&b, c)
		got, err := c.Profile(sched)
		if err != nil {
			t.Fatalf("Profile(%v): %v", sched, err)
		}
		tr, err := c.Trace(sched)
		if err != nil {
			t.Fatalf("Trace(%v): %v", sched, err)
		}
		want, err := tr.Profile()
		if err != nil {
			t.Fatalf("replaying Trace(%v): %v", sched, err)
		}
		if got != want {
			t.Fatalf("schedule %v at %+v:\nProfile %+v\nreplay  %+v", sched, opts, got, want)
		}
	})
}

// TestProfileRejectsLikeTrace: an invocation Trace refuses, Profile
// refuses with the same error.
func TestProfileRejectsLikeTrace(t *testing.T) {
	c := mustCompile(t, axpyKernel())
	for _, inv := range []Invocation{{Unit: 1, N: 4}, {Unit: -1, N: 4}, {Unit: 0, N: -1}} {
		sched := []Invocation{{Unit: 0, N: 7}, inv}
		_, perr := c.Profile(sched)
		_, terr := c.Trace(sched)
		if perr == nil || terr == nil || perr.Error() != terr.Error() {
			t.Errorf("%+v: Profile error %v, Trace error %v", inv, perr, terr)
		}
	}
}
