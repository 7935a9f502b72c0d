package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mtvec/internal/isa"
	"mtvec/internal/prog"
)

func sampleProgram() *prog.Program {
	return &prog.Program{
		Name: "sample",
		Blocks: []prog.BasicBlock{
			{Label: "head", Insts: []isa.Inst{
				{Op: isa.OpSetVS, Src1: isa.A(0)},
				{Op: isa.OpSetVL, Src1: isa.A(1)},
			}},
			{Label: "body", Insts: []isa.Inst{
				{Op: isa.OpVLoad, Dst: isa.V(0), Src1: isa.A(2)},
				{Op: isa.OpVMulS, Dst: isa.V(1), Src1: isa.V(0), Src2: isa.S(1)},
				{Op: isa.OpVStore, Src1: isa.V(1), Src2: isa.A(3)},
				{Op: isa.OpBr, Src1: isa.S(0)},
			}},
		},
	}
}

func sampleTrace(iters int) *Trace {
	t := &Trace{Prog: sampleProgram()}
	t.BBs = append(t.BBs, 0)
	t.VLs = []int64{96}
	t.Strides = []int64{8}
	for i := 0; i < iters; i++ {
		t.BBs = append(t.BBs, 1)
		t.Addrs = append(t.Addrs, uint64(0x10000+i*96*8), uint64(0x80000+i*96*8))
	}
	return t
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := sampleTrace(10)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Prog.Name != tr.Prog.Name {
		t.Errorf("name %q != %q", got.Prog.Name, tr.Prog.Name)
	}
	if !reflect.DeepEqual(got.BBs, tr.BBs) || !reflect.DeepEqual(got.VLs, tr.VLs) ||
		!reflect.DeepEqual(got.Strides, tr.Strides) || !reflect.DeepEqual(got.Addrs, tr.Addrs) {
		t.Error("stream sections did not round-trip")
	}
	for i, b := range got.Prog.Blocks {
		if !reflect.DeepEqual(b.Insts, tr.Prog.Blocks[i].Insts) {
			t.Errorf("block %d instructions differ", i)
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	// Property: arbitrary random (but well-formed) traces round-trip.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := &Trace{Prog: sampleProgram()}
		n := r.Intn(50) + 1
		addr := uint64(r.Int63())
		for i := 0; i < n; i++ {
			tr.BBs = append(tr.BBs, int32(r.Intn(2)))
			if r.Intn(3) == 0 {
				tr.VLs = append(tr.VLs, int64(r.Intn(isa.MaxVL)+1))
			}
			if r.Intn(5) == 0 {
				tr.Strides = append(tr.Strides, int64(r.Intn(4096)-2048))
			}
			// Addresses wander both directions to exercise the
			// signed delta encoding.
			addr += uint64(int64(r.Intn(1<<20) - 1<<19))
			tr.Addrs = append(tr.Addrs, addr)
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.BBs, tr.BBs) &&
			reflect.DeepEqual(got.VLs, tr.VLs) &&
			reflect.DeepEqual(got.Strides, tr.Strides) &&
			reflect.DeepEqual(got.Addrs, tr.Addrs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	tr := sampleTrace(8)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip a byte somewhere in the middle of the stream sections.
	for _, pos := range []int{len(raw) / 2, len(raw) - 5, 10} {
		cp := append([]byte(nil), raw...)
		cp[pos] ^= 0x40
		if _, err := Decode(bytes.NewReader(cp)); err == nil {
			t.Errorf("corruption at byte %d went undetected", pos)
		}
	}
}

func TestDecodeRejectsBadHeader(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("NOPE!"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Decode(bytes.NewReader([]byte{'M', 'T', 'V', 'T', 99})); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestDecodeTruncated(t *testing.T) {
	tr := sampleTrace(8)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, n := range []int{6, len(raw) / 3, len(raw) - 3} {
		if _, err := Decode(bytes.NewReader(raw[:n])); err == nil {
			t.Errorf("truncation to %d bytes went undetected", n)
		}
	}
}

func TestReplaySourceMatchesSlices(t *testing.T) {
	tr := sampleTrace(4)
	src := tr.Source()
	var bbs []int
	for {
		b, ok := src.NextBB()
		if !ok {
			break
		}
		bbs = append(bbs, b)
	}
	if len(bbs) != len(tr.BBs) {
		t.Fatalf("replayed %d blocks, want %d", len(bbs), len(tr.BBs))
	}
	if src.Err() != nil {
		t.Fatal(src.Err())
	}
	// Draining past the end of a value stream is an error.
	src2 := tr.Source()
	for i := 0; i <= len(tr.VLs); i++ {
		src2.NextVL()
	}
	if src2.Err() == nil {
		t.Error("over-reading VL stream not reported")
	}
}

func TestRecordThenReplayIdentity(t *testing.T) {
	// Record from a SliceSource, replay the trace, and compare the two
	// dynamic instruction streams instruction by instruction.
	p := sampleProgram()
	mkSrc := func() *prog.SliceSource {
		return &prog.SliceSource{
			BBs:     []int{0, 1, 1, 1},
			VLs:     []int64{64},
			Strides: []int64{8},
			Addrs:   []uint64{1, 2, 3, 4, 5, 6},
		}
	}
	tr, err := Record(p, mkSrc(), 0)
	if err != nil {
		t.Fatal(err)
	}

	want := prog.NewStream(p, mkSrc())
	got := tr.Stream()
	var dw, dg isa.DynInst
	for {
		okW := want.Next(&dw)
		okG := got.Next(&dg)
		if okW != okG {
			t.Fatalf("stream lengths differ (want-ok=%v got-ok=%v)", okW, okG)
		}
		if !okW {
			break
		}
		if dw != dg {
			t.Fatalf("instruction differs:\n  direct: %v\n  replay: %v", &dw, &dg)
		}
	}
	if want.Err() != nil || got.Err() != nil {
		t.Fatal(want.Err(), got.Err())
	}
}

func TestRecordHonorsMaxInsts(t *testing.T) {
	p := sampleProgram()
	src := &prog.SliceSource{
		BBs:     []int{0, 1, 1, 1, 1, 1},
		VLs:     []int64{64},
		Strides: []int64{8},
		Addrs:   []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
	}
	tr, err := Record(p, src, 5)
	if err != nil {
		t.Fatal(err)
	}
	n, _, err := tr.Stream().Drain()
	if err != nil {
		t.Fatal(err)
	}
	// Recording stops at the first block boundary at or after maxInsts.
	if n < 5 || n > 7 {
		t.Fatalf("recorded %d dynamic instructions, want ~5", n)
	}
}

func TestRecordPropagatesSourceError(t *testing.T) {
	p := sampleProgram()
	src := &prog.SliceSource{BBs: []int{0, 1}, VLs: []int64{64}, Strides: []int64{8}}
	if _, err := Record(p, src, 0); err == nil {
		t.Fatal("source error not propagated")
	}
}

// TestProfileMatchesReplay: Trace.Profile reports the Stats and error
// of draining a source-driven replay, including replays that run
// streams dry (the replay's error names the last dry draw), name a bad
// block, clamp VLs, or run at a non-reference MaxVL.
func TestProfileMatchesReplay(t *testing.T) {
	mk := func(edit func(*Trace)) *Trace {
		tr := sampleTrace(5)
		edit(tr)
		return tr
	}
	cases := map[string]*Trace{
		"clean":          sampleTrace(5),
		"addr-dry":       mk(func(tr *Trace) { tr.Addrs = tr.Addrs[:3] }),
		"vl-and-addr":    mk(func(tr *Trace) { tr.VLs, tr.Addrs = nil, nil }),
		"stride-and-vl":  mk(func(tr *Trace) { tr.VLs, tr.Strides = nil, nil }),
		"bad-block":      mk(func(tr *Trace) { tr.BBs[3] = 7 }),
		"negative-block": mk(func(tr *Trace) { tr.BBs[2] = -1 }),
		"vl-clamped":     mk(func(tr *Trace) { tr.VLs[0] = 1000; tr.MaxVL = 64 }),
		"vl-below-one":   mk(func(tr *Trace) { tr.VLs[0] = -5 }),
		"no-blocks":      mk(func(tr *Trace) { tr.BBs = nil }),
	}
	for name, tr := range cases {
		n, want, wantErr := prog.NewStreamVL(tr.Prog, tr.Source(), tr.MaxVL).Drain()
		got, err := tr.Profile()
		if got != want || got.Insts() != n {
			t.Errorf("%s: profile %+v, drain %+v", name, got, want)
		}
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Errorf("%s: profile error %v, drain error %v", name, err, wantErr)
		}
	}
}

// immTrace is a trace whose expansion carries every DynInst field the
// predecode leaves out: PCs past zero, an immediate, memory addresses
// and SetVL/SetVS values, at a non-reference MaxVL.
func immTrace() *Trace {
	p := sampleProgram()
	body := &p.Blocks[1]
	body.Insts = append([]isa.Inst{{Op: isa.OpAAdd, Dst: isa.A(2), Src1: isa.A(2), Src2: isa.Imm(), Imm: 768}}, body.Insts...)
	tr := sampleTrace(6)
	tr.Prog = p
	tr.VLs[0] = 200
	tr.MaxVL = 64
	return tr
}

// TestPredecodedStreamDeliversSourceReplay: a predecoded Trace.Stream()
// answers Next, Count, Err and Drain exactly as a source replay of the
// trace does, full DynInst equality included.
func TestPredecodedStreamDeliversSourceReplay(t *testing.T) {
	tr := immTrace()
	if tr.Decoded() == nil {
		t.Fatal("trace does not predecode")
	}
	got := tr.Stream()
	want := prog.NewStreamVL(tr.Prog, tr.Source(), tr.MaxVL)
	var dg, dw isa.DynInst
	var seen isa.DynInst // OR of the fields the predecode leaves out
	for {
		okG, okW := got.Next(&dg), want.Next(&dw)
		if okG != okW {
			t.Fatalf("after %d instructions: predecoded Next %v, source replay %v", want.Count(), okG, okW)
		}
		if !okW {
			break
		}
		if dg != dw {
			t.Fatalf("instruction %d differs:\n  predecoded: %v %+v\n  source:     %v %+v", want.Count(), &dg, dg, &dw, dw)
		}
		if got.Count() != want.Count() {
			t.Fatalf("Count = %d, source replay %d", got.Count(), want.Count())
		}
		seen.PC |= dw.PC
		seen.Imm |= dw.Imm
		seen.Addr |= dw.Addr
		seen.SetVal |= dw.SetVal
	}
	if seen.PC == 0 || seen.Imm == 0 || seen.Addr == 0 || seen.SetVal == 0 {
		t.Fatalf("trace leaves a non-predecoded field zero throughout: %+v", seen)
	}
	if got.Err() != nil || want.Err() != nil {
		t.Fatal(got.Err(), want.Err())
	}

	n, st, err := tr.Stream().Drain()
	wn, wst, werr := prog.NewStreamVL(tr.Prog, tr.Source(), tr.MaxVL).Drain()
	if n != wn || st != wst || err != nil || werr != nil {
		t.Fatalf("Drain: predecoded %d %+v %v, source replay %d %+v %v", n, st, err, wn, wst, werr)
	}
}

var streamSink *prog.Stream

// TestPredecodedStreamAllocs pins a predecoded replay at one allocation,
// the Stream itself: the source replay Next would need is never opened
// on the NextDec path.
func TestPredecodedStreamAllocs(t *testing.T) {
	tr := immTrace()
	if tr.Decoded() == nil {
		t.Fatal("trace does not predecode")
	}
	allocs := testing.AllocsPerRun(100, func() {
		s := tr.Stream()
		for s.NextDec() != nil {
		}
		streamSink = s
	})
	if allocs > 1 {
		t.Fatalf("Stream plus a NextDec replay allocates %v times, want 1", allocs)
	}
}
