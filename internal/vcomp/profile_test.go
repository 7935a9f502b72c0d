package vcomp

import (
	"fmt"
	"slices"
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

// fuzzSchedule draws up to eight runs over c's units, each of one to
// four invocations with trip count 0, below VLen, VLen, a multiple of
// it, or a multiple plus a remainder, so vector and scalar units
// interleave, the VL in force crosses invocations, and invocations
// repeat.
func fuzzSchedule(b *fuzzBytes, c *Compiled) []Run {
	vlen := int64(c.RegFile().VLen)
	runs := make([]Run, b.next()%9)
	for i := range runs {
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
		runs[i] = Run{Invocation: Invocation{Unit: b.next() % c.NumUnits(), N: n}, Count: 1 + int64(b.next()%4)}
	}
	return runs
}

// expand spells runs out invocation by invocation.
func expand(runs []Run) []Invocation {
	var sched []Invocation
	for _, r := range runs {
		for range r.Count {
			sched = append(sched, r.Invocation)
		}
	}
	return sched
}

// FuzzScheduleProfile is the differential harness for the closed-form
// profile: over random kernels, register-file organizations and
// schedules of repeated invocations, Compiled.ProfileRuns must equal
// Compiled.Profile of the expanded schedule and replaying the
// synthesized trace field for field, that replay must succeed, and
// TraceRuns must synthesize the streams Trace does for the expanded
// schedule.
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
		runs := fuzzSchedule(&b, c)
		sched := expand(runs)
		got, err := c.ProfileRuns(runs)
		if err != nil {
			t.Fatalf("ProfileRuns(%v): %v", runs, err)
		}
		flat, err := c.Profile(sched)
		if err != nil {
			t.Fatalf("Profile(%v): %v", sched, err)
		}
		tr, err := c.TraceRuns(runs)
		if err != nil {
			t.Fatalf("TraceRuns(%v): %v", runs, err)
		}
		want, err := tr.Profile()
		if err != nil {
			t.Fatalf("replaying TraceRuns(%v): %v", runs, err)
		}
		if got != want || flat != want {
			t.Fatalf("runs %v at %+v:\nProfileRuns %+v\nProfile     %+v\nreplay      %+v", runs, opts, got, flat, want)
		}
		ftr, err := c.Trace(sched)
		if err != nil {
			t.Fatalf("Trace(%v): %v", sched, err)
		}
		if !slices.Equal(ftr.BBs, tr.BBs) || !slices.Equal(ftr.VLs, tr.VLs) ||
			!slices.Equal(ftr.Strides, tr.Strides) || !slices.Equal(ftr.Addrs, tr.Addrs) || ftr.MaxVL != tr.MaxVL {
			t.Fatalf("runs %v at %+v: TraceRuns and Trace of the expanded schedule differ", runs, opts)
		}
	})
}

// TestProfileRejectsLikeTrace: an invocation Trace refuses, Profile
// refuses with the same error, and a run TraceRuns refuses, ProfileRuns
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
	for _, r := range []Run{{Invocation{Unit: 1, N: 4}, 2}, {Invocation{Unit: 0, N: -1}, 0}, {Invocation{Unit: 0, N: 4}, -1}} {
		runs := []Run{{Invocation{Unit: 0, N: 7}, 3}, r}
		_, perr := c.ProfileRuns(runs)
		_, terr := c.TraceRuns(runs)
		if perr == nil || terr == nil || perr.Error() != terr.Error() {
			t.Errorf("%+v: ProfileRuns error %v, TraceRuns error %v", r, perr, terr)
		}
	}
}

// TestRunsCompress: Runs merges consecutive identical invocations and
// nothing else, and AppendRun extends a matching last run.
func TestRunsCompress(t *testing.T) {
	a, b := Invocation{Unit: 0, N: 7}, Invocation{Unit: 1, N: 7}
	got := Runs([]Invocation{a, a, b, a, a, a, {Unit: 0, N: 8}})
	want := []Run{{a, 2}, {b, 1}, {a, 3}, {Invocation{Unit: 0, N: 8}, 1}}
	if !slices.Equal(got, want) {
		t.Errorf("Runs = %v, want %v", got, want)
	}
	if got := AppendRun(AppendRun(nil, b, 2), b, 5); !slices.Equal(got, []Run{{b, 7}}) {
		t.Errorf("AppendRun did not extend the last run: %v", got)
	}
}
