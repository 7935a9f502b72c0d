package benchcase

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"unsafe"

	"mtvec/internal/prog"
)

// tinyScale keeps every case, the warm suite's cold fill included, to a
// fraction of a second.
const tinyScale = 1e-5

// prepare returns the named case of a tiny-scale registry, prepared.
func prepare(t *testing.T, name string) (Case, Func) {
	t.Helper()
	cases, cleanup := New(tinyScale, 1)
	t.Cleanup(cleanup)
	for _, c := range cases {
		if c.Name == name {
			fn, err := c.Prepare()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return c, fn
		}
	}
	t.Fatalf("no %s case", name)
	return Case{}, nil
}

// TestEveryCaseRuns runs each case once at a tiny scale. A case that
// counts cycles or instructions returns some; the others return none.
func TestEveryCaseRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every case")
	}
	cases, cleanup := New(tinyScale, 2)
	defer cleanup()
	seen := map[string]bool{}
	for _, c := range cases {
		if seen[c.Name] {
			t.Errorf("case %s registered twice", c.Name)
		}
		seen[c.Name] = true
		fn, err := c.Prepare()
		if err != nil {
			t.Fatalf("%s: prepare: %v", c.Name, err)
		}
		work, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if (work > 0) != (c.Unit != None) {
			t.Errorf("%s: unit %d returned %d work", c.Name, c.Unit, work)
		}
	}
}

// TestBaselineCasesKeepTheirUnits: every case of the committed baseline
// artifact is still registered, with the unit the baseline recorded, so
// a new artifact compares with it case by case.
func TestBaselineCasesKeepTheirUnits(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base struct {
		Benchmarks []struct {
			Name        string  `json:"name"`
			McyclesPerS float64 `json:"mcycles_per_s"`
			NsPerInst   float64 `json:"ns_per_inst"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	cases, cleanup := New(tinyScale, 1)
	defer cleanup()
	units := map[string]Unit{}
	for _, c := range cases {
		units[c.Name] = c.Unit
	}
	if len(base.Benchmarks) == 0 {
		t.Fatal("baseline lists no benchmarks")
	}
	for _, b := range base.Benchmarks {
		want := None
		switch {
		case b.McyclesPerS > 0:
			want = Cycles
		case b.NsPerInst > 0:
			want = Insts
		}
		got, ok := units[b.Name]
		if !ok {
			t.Errorf("baseline case %s is not registered", b.Name)
		} else if got != want {
			t.Errorf("%s: unit %d, baseline recorded %d", b.Name, got, want)
		}
	}
	if units["prog/predecode"] != Insts {
		t.Errorf("prog/predecode unit %d, want ns/inst", units["prog/predecode"])
	}
}

// TestStoreBenchCases runs the store cases a few times each: the record
// round-trips, every claim meets a fresh key, and every read hits.
func TestStoreBenchCases(t *testing.T) {
	for _, name := range []string{"store/record", "store/claim", "store/read"} {
		_, fn := prepare(t, name)
		for i := 0; i < 3; i++ {
			if _, err := fn(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// TestPredecodeBenchCase: prog/predecode expands the ten Table 3
// traces, counts instructions rather than simulated cycles, and
// allocates at least the predecoded entries it returns.
func TestPredecodeBenchCase(t *testing.T) {
	c, fn := prepare(t, "prog/predecode")
	if c.Unit != Insts {
		t.Errorf("prog/predecode unit %d, want ns/inst", c.Unit)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	insts, err := fn()
	runtime.ReadMemStats(&ms1)
	if err != nil || insts <= 0 {
		t.Fatalf("predecoded %d instructions: %v", insts, err)
	}
	entries := insts * int64(unsafe.Sizeof(prog.DecodedInst{}))
	if got := int64(ms1.TotalAlloc - ms0.TotalAlloc); got < entries {
		t.Errorf("prog/predecode allocates %d B, less than its %d bytes of entries", got, entries)
	}
}
