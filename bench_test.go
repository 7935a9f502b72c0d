// Benchmark harness: BenchmarkCases runs every case of the registry in
// internal/benchcase — one per paper table and figure and extension
// study, each regenerating the artifact end to end on a fresh
// environment, plus the engine, predecode, import, session, sweep,
// store and warm-suite cases — as one sub-benchmark each. mtvbench
// -bench-json measures the same cases into BENCH_*.json artifacts.
// Run with:
//
//	go test -run '^$' -bench . -benchmem
//	go test -run '^$' -bench 'Cases/engine/reference$'   # one case
//
// The default bench scale (3e-5 of Table 3's millions) keeps a full pass
// fast; set MTVEC_BENCH_SCALE to trade time for fidelity, e.g.:
//
//	MTVEC_BENCH_SCALE=1e-3 go test -run '^$' -bench 'Cases/fig10' -benchtime=1x
//
// The sweep and suite cases run at a gate width of runtime.NumCPU(), as
// mtvbench -bench-json does by default.
package mtvec_test

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"mtvec"
	"mtvec/internal/benchcase"
)

// The bench scale is resolved and validated exactly once, in TestMain, so
// a bad MTVEC_BENCH_SCALE fails the whole run up front instead of
// surfacing per benchmark at bench runtime.
var benchScale float64

func TestMain(m *testing.M) {
	v, err := mtvec.BenchScale()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	benchScale = v
	os.Exit(m.Run())
}

func BenchmarkCases(b *testing.B) {
	cases, cleanup := benchcase.New(benchScale, runtime.NumCPU())
	defer cleanup()
	for _, c := range cases {
		b.Run(c.Name, func(b *testing.B) {
			fn, err := c.Prepare()
			if err != nil {
				b.Fatal(err)
			}
			// One untimed call, as mtvbench's warm-up: a case's first call
			// can do one-time work, such as predecoding the traces.
			if _, err := fn(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var work int64
			for b.Loop() {
				n, err := fn()
				if err != nil {
					b.Fatal(err)
				}
				work += n
			}
			switch {
			case work > 0 && c.Unit == benchcase.Cycles:
				b.ReportMetric(float64(work)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
			case work > 0 && c.Unit == benchcase.Insts:
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(work), "ns/inst")
			}
		})
	}
}
