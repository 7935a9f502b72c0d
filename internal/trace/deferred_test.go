package trace

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mtvec/internal/prog"
)

// deferredOf returns a deferred trace whose fill hands over want's
// streams and counts its runs.
func deferredOf(want *Trace, fills *atomic.Int64) *Trace {
	return Deferred(want.Prog, want.MaxVL, func() (*Trace, error) {
		fills.Add(1)
		return &Trace{Prog: want.Prog, MaxVL: want.MaxVL, BBs: want.BBs, VLs: want.VLs, Strides: want.Strides, Addrs: want.Addrs}, nil
	})
}

// TestDeferredFillsOnce: eight goroutines make the first Stream,
// Decoded, Source and Encode calls on one deferred trace at once. fill
// runs exactly once, and every caller sees the streams it synthesized.
func TestDeferredFillsOnce(t *testing.T) {
	want := sampleTrace(40)
	wantN, wantStats, err := want.Stream().Drain()
	if err != nil {
		t.Fatal(err)
	}
	var wantEnc bytes.Buffer
	if err := want.Encode(&wantEnc); err != nil {
		t.Fatal(err)
	}
	wantDec := want.Decoded()

	var fills atomic.Int64
	tr := deferredOf(want, &fills)
	const callers = 8
	var start, done sync.WaitGroup
	start.Add(1)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			check := func(n int64, st prog.Stats, err error) error {
				if err != nil || n != wantN || st != wantStats {
					return errors.New("replay differs from the eager trace's")
				}
				return nil
			}
			switch i % 4 {
			case 0:
				errs[i] = check(tr.Stream().Drain())
			case 1:
				if !reflect.DeepEqual(tr.Decoded(), wantDec) {
					errs[i] = errors.New("Decoded differs from the eager trace's")
				}
			case 2:
				errs[i] = check(prog.NewStreamVL(tr.Prog, tr.Source(), tr.MaxVL).Drain())
			case 3:
				var enc bytes.Buffer
				if err := tr.Encode(&enc); err != nil || !bytes.Equal(enc.Bytes(), wantEnc.Bytes()) {
					errs[i] = errors.New("Encode differs from the eager trace's")
				}
			}
		}()
	}
	start.Done()
	done.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
	if n := fills.Load(); n != 1 {
		t.Errorf("fill ran %d times, want 1", n)
	}
	if !reflect.DeepEqual(tr.BBs, want.BBs) || !reflect.DeepEqual(tr.Addrs, want.Addrs) {
		t.Error("filled stream fields differ from the eager trace's")
	}
}

// TestDeferredProfileAndExport: Profile and ExportRVV synthesize a
// deferred trace and report what they report for the eager one, and
// Prog and MaxVL need no synthesis.
func TestDeferredProfileAndExport(t *testing.T) {
	want := sampleTrace(12)
	want.MaxVL = 64
	var fills atomic.Int64
	tr := deferredOf(want, &fills)
	if tr.Prog != want.Prog || tr.MaxVL != 64 || fills.Load() != 0 {
		t.Fatal("Prog and MaxVL should be set without synthesis")
	}
	got, err := tr.Profile()
	wantSt, wantErr := want.Profile()
	if err != nil || wantErr != nil || got != wantSt {
		t.Fatalf("Profile %+v, %v; eager %+v, %v", got, err, wantSt, wantErr)
	}
	var a, b bytes.Buffer
	if err := ExportRVV(&a, deferredOf(want, &fills)); err != nil {
		t.Fatal(err)
	}
	if err := ExportRVV(&b, want); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("ExportRVV of a deferred trace differs from the eager trace's")
	}
	if n := fills.Load(); n != 2 {
		t.Errorf("fill ran %d times over two deferred traces, want 2", n)
	}
}

// TestDeferredFillFailure: a fill that fails, or that synthesizes
// another program's trace, leaves a trace every replay reports as
// failing.
func TestDeferredFillFailure(t *testing.T) {
	want := sampleTrace(3)
	boom := errors.New("boom")
	for name, fill := range map[string]func() (*Trace, error){
		"error":   func() (*Trace, error) { return nil, boom },
		"program": func() (*Trace, error) { return sampleTrace(3), nil },
	} {
		tr := Deferred(want.Prog, 0, fill)
		if tr.Decoded() != nil {
			t.Errorf("%s: Decoded should be nil", name)
		}
		if _, _, err := tr.Stream().Drain(); err == nil {
			t.Errorf("%s: Stream replayed without error", name)
		}
		if _, err := tr.Profile(); err == nil {
			t.Errorf("%s: Profile reported no error", name)
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err == nil || buf.Len() != 0 {
			t.Errorf("%s: Encode wrote %d bytes, error %v", name, buf.Len(), err)
		}
		if err := ExportRVV(&buf, tr); err == nil || !strings.Contains(err.Error(), "replay failed") {
			t.Errorf("%s: ExportRVV error %v", name, err)
		}
	}
}
