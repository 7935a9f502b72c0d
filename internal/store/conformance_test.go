package store

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mtvec/internal/stats"
)

// backendFixture is one Backend implementation under conformance test.
type backendFixture struct {
	name string
	// build returns the backend, the tier a Put-then-Get hit reports,
	// and a corrupt func that mangles the stored record for a key
	// wherever it physically lives.
	build func(t *testing.T) (b Backend, hitTier Tier, corrupt func(key string))
}

// fixtures enumerates every Backend implementation. Each must satisfy
// the same contract: verified round trips, misses for unknown
// keys, corruption read as a miss and healed by recompute, and
// single-flight Do.
func fixtures() []backendFixture {
	return []backendFixture{
		{"Dir", func(t *testing.T) (Backend, Tier, func(string)) {
			d, err := OpenOptions(t.TempDir(), Options{LockPoll: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			return d, TierLocal, func(key string) { mangle(t, d, key) }
		}},
	}
}

// mangle overwrites key's record line in d's log with garbage of the
// same length, in place.
func mangle(t *testing.T, d *Dir, key string) {
	t.Helper()
	_, off, n := recordLine(t, d, key)
	f, err := os.OpenFile(logPath(d), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(bytes.Repeat([]byte("garbage\x00"), n)[:n], int64(off)); err != nil {
		t.Fatal(err)
	}
}

func TestBackendConformanceRoundTrip(t *testing.T) {
	for _, fx := range fixtures() {
		t.Run(fx.name, func(t *testing.T) {
			b, hitTier, _ := fx.build(t)
			const key = "conf-roundtrip"
			if _, tier := b.Get(key); tier.Hit() {
				t.Fatal("empty backend reported a hit")
			}
			want := sampleReport()
			if err := b.Put(key, want); err != nil {
				t.Fatal(err)
			}
			got, tier := b.Get(key)
			if tier != hitTier {
				t.Fatalf("hit tier = %v, want %v", tier, hitTier)
			}
			gb, _ := json.Marshal(got)
			wb, _ := json.Marshal(want)
			if string(gb) != string(wb) {
				t.Fatalf("round trip not byte-identical:\ngot  %s\nwant %s", gb, wb)
			}
		})
	}
}

func TestBackendConformanceCorruptRecovery(t *testing.T) {
	for _, fx := range fixtures() {
		t.Run(fx.name, func(t *testing.T) {
			b, _, corrupt := fx.build(t)
			const key = "conf-corrupt"
			if err := b.Put(key, sampleReport()); err != nil {
				t.Fatal(err)
			}
			corrupt(key)
			if _, tier := b.Get(key); tier.Hit() {
				t.Fatal("corrupt record served")
			}
			// Do heals the slot: compute runs once, and the result serves
			// from then on.
			var computes atomic.Int64
			rep, tier, err := b.Do(context.Background(), key, func() (*stats.Report, error) {
				computes.Add(1)
				return sampleReport(), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if tier.Hit() {
				t.Fatalf("Do over a corrupt record reported tier %v, want miss", tier)
			}
			if computes.Load() != 1 || rep == nil {
				t.Fatalf("compute ran %d times, want 1", computes.Load())
			}
			if _, tier := b.Get(key); !tier.Hit() {
				t.Fatal("healed record not served")
			}
		})
	}
}

func TestBackendConformanceSingleFlight(t *testing.T) {
	for _, fx := range fixtures() {
		t.Run(fx.name, func(t *testing.T) {
			b, _, _ := fx.build(t)
			const key = "conf-flight"
			var computes atomic.Int64
			var wg sync.WaitGroup
			reps := make([]*stats.Report, 8)
			for i := range reps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rep, _, err := b.Do(context.Background(), key, func() (*stats.Report, error) {
						computes.Add(1)
						time.Sleep(20 * time.Millisecond) // widen the race window
						return sampleReport(), nil
					})
					if err != nil {
						t.Error(err)
						return
					}
					reps[i] = rep
				}()
			}
			wg.Wait()
			if n := computes.Load(); n != 1 {
				t.Errorf("compute ran %d times, want 1", n)
			}
			want, _ := json.Marshal(sampleReport())
			for i, rep := range reps {
				got, _ := json.Marshal(rep)
				if string(got) != string(want) {
					t.Errorf("caller %d got a different report", i)
				}
			}
		})
	}
}

// TestOpenOptionsValidation pins Options handling.
func TestOpenOptionsValidation(t *testing.T) {
	if _, err := OpenOptions(t.TempDir(), Options{LockPoll: -1}); err == nil {
		t.Error("negative LockPoll accepted")
	}
	d, err := OpenOptions(t.TempDir(), Options{LockPoll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if d.lockPoll != time.Millisecond {
		t.Errorf("options not applied: poll %v", d.lockPoll)
	}
}
