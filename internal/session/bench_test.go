package session

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkRunAllSweep drives the full cold sweep path — per-point memo
// singleflight, gate admission, simulation, memo write — with a fresh
// session per iteration, so B/op here is the allocation budget of one
// memo-missed 8-point sweep, at one gate slot and at four. The bench
// gate proper lives in cmd/mtvbench; this one exists for
// `go test -bench . -memprofile` when hunting allocations.
func BenchmarkRunAllSweep(b *testing.B) {
	w, err := buildOnce()
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]RunSpec, 8)
	for i := range specs {
		specs[i] = Solo(w, WithMemLatency(10+i))
	}
	for _, jobs := range []int{1, 4} {
		b.Run(fmt.Sprintf("jobs%d", jobs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := New(WithJobs(jobs))
				if _, err := s.RunAll(context.Background(), specs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
