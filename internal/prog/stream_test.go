package prog

import (
	"reflect"
	"testing"
	"unsafe"

	"mtvec/internal/isa"
)

// TestDecodedInstSize pins the predecoded entry at 24 bytes: the trace
// cache holds one per dynamic instruction, so every byte added here is
// a megabyte per million instructions of every cached trace.
func TestDecodedInstSize(t *testing.T) {
	if n := unsafe.Sizeof(DecodedInst{}); n > 24 {
		t.Fatalf("DecodedInst is %d bytes, want <= 24", n)
	}
}

// mixSource is a trace over fuzzProgram that visits every block with a
// nonzero VL and stride, so its expansion exercises every DecodedInst
// field.
func mixSource() *SliceSource {
	return &SliceSource{
		BBs:     []int{0, 1, 2, 3, 1},
		VLs:     []int64{100, 37},
		Strides: []int64{16},
		Addrs:   []uint64{0x1000, 0x2000, 0x3000, 0x4000, 0x5000, 0x6000, 0x7000, 0x8000},
	}
}

// scribble sets every leaf of v to a nonzero value.
func scribble(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int:
		v.SetInt(-91)
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
		v.SetUint(0xa5)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			scribble(t, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scribble(t, v.Field(i))
		}
	default:
		t.Fatalf("scribble: unhandled kind %s", v.Kind())
	}
}

// TestDecodeFillsEveryField fails when DecodedInst gains a field decode
// does not fill: every field must be nonzero in some decoded
// instruction of a trace that exercises all of them, and decoding into
// a buffer scribbled over field by field must give the same value as
// decoding into a zero one.
func TestDecodeFillsEveryField(t *testing.T) {
	s := NewStream(fuzzProgram(), mixSource())
	typ := reflect.TypeOf(DecodedInst{})
	set := make([]bool, typ.NumField())
	var d isa.DynInst
	n := 0
	for ; s.Next(&d); n++ {
		var clean, dirty DecodedInst
		clean.decode(&d)
		scribble(t, reflect.ValueOf(&dirty).Elem())
		dirty.decode(&d)
		if dirty != clean {
			t.Fatalf("inst %d (%s): decode into a used buffer gives %+v, into a zero one %+v", n, d.Op, dirty, clean)
		}
		checkDecoded(t, n, &d, &clean)
		v := reflect.ValueOf(clean)
		for i := range set {
			set[i] = set[i] || !v.Field(i).IsZero()
		}
	}
	if err := s.Err(); err != nil || n == 0 {
		t.Fatalf("mix trace expanded %d instructions, err %v", n, err)
	}
	for i, ok := range set {
		if !ok {
			t.Errorf("DecodedInst.%s is zero in all %d decoded instructions: decode does not fill it",
				typ.Field(i).Name, n)
		}
	}
}

// replayerFunc adapts a source constructor to Replayer.
type replayerFunc func() TraceSource

func (f replayerFunc) Source() TraceSource { return f() }

// TestStreamMixesNextAndNextDec pins the shared-position contract: on
// both stream modes, Next and NextDec interleaved deliver every
// instruction exactly once and in order, Next the full DynInst and
// NextDec its decode, with Count counting both.
func TestStreamMixesNextAndNextDec(t *testing.T) {
	p := fuzzProgram()
	rep := replayerFunc(func() TraceSource { return mixSource() })
	var want []isa.DynInst
	ref := NewStream(p, rep.Source())
	var d isa.DynInst
	for ref.Next(&d) {
		want = append(want, d)
	}
	dec, err := DecodeAllVL(p, rep.Source(), 0, 0)
	if err != nil || ref.Err() != nil {
		t.Fatal(err, ref.Err())
	}

	// Runs of NextDec of every length 0..3 between Next calls.
	pattern := []bool{true, false, true, false, false, true, false, false, false, true, true}
	for name, s := range map[string]*Stream{
		"source-driven": NewStream(p, rep.Source()),
		"predecoded":    NewDecodedStream(p, dec, rep, 0),
	} {
		for i := range want {
			if pattern[i%len(pattern)] {
				if !s.Next(&d) {
					t.Fatalf("%s: Next ended at %d of %d", name, i, len(want))
				}
				if d != want[i] {
					t.Fatalf("%s: Next at %d gives %+v, want %+v", name, i, d, want[i])
				}
			} else {
				e := s.NextDec()
				if e == nil {
					t.Fatalf("%s: NextDec ended at %d of %d", name, i, len(want))
				}
				checkDecoded(t, i, &want[i], e)
			}
			if s.Count() != int64(i+1) {
				t.Fatalf("%s: Count = %d after %d instructions", name, s.Count(), i+1)
			}
		}
		if s.Next(&d) || s.NextDec() != nil || s.Err() != nil {
			t.Fatalf("%s: stream does not end cleanly after %d instructions (err %v)", name, len(want), s.Err())
		}
	}
}
