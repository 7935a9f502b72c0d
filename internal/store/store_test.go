package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mtvec/internal/runner"
	"mtvec/internal/stats"
)

// sampleReport builds a fully-populated report so round-trips cover
// every field, including nested slices.
func sampleReport() *stats.Report {
	return &stats.Report{
		Cycles:         123456,
		Breakdown:      stats.Breakdown{10, 20, 30, 40, 50, 60, 70, 80},
		MemBusyCycles:  999,
		MemRequests:    888,
		MemPorts:       1,
		VectorArithOps: 777,
		VectorOps:      1777,
		Insts:          555,
		LostDecode:     44,
		Threads: []stats.ThreadReport{
			{Program: "tf", Completions: 1, PartialInsts: 0, Dispatched: 555},
			{Program: "sw", Completions: 3, PartialInsts: 17, Dispatched: 444},
		},
		Spans: []stats.Span{
			{Thread: 0, Program: "tf", Start: 0, End: 1000},
			{Thread: 1, Program: "sw", Start: 5, End: 950},
		},
	}
}

func TestRoundTripByteIdentical(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "mode=1,|ws=tf@0.001,|policy=default|ctx=1,"
	if _, tier := s.Get(key); tier.Hit() {
		t.Fatal("empty store reported a hit")
	}
	want := sampleReport()
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, tier := s.Get(key)
	if tier != TierLocal {
		t.Fatalf("stored record not found (tier %v)", tier)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	// Byte-identical: the canonical JSON of the reread report matches
	// the original's exactly.
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if string(gb) != string(wb) {
		t.Fatalf("JSON round trip differs:\ngot  %s\nwant %s", gb, wb)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Corrupt != 0 {
		t.Errorf("stats %+v, want 1 hit / 1 miss / 1 write", st)
	}
}

func TestReopenSurvivesProcessBoundary(t *testing.T) {
	dir := t.TempDir()
	key := "some-key"
	want := sampleReport()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(key, want); err != nil {
		t.Fatal(err)
	}
	// A second Store over the same directory models a new process.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, tier := s2.Get(key)
	if !tier.Hit() {
		t.Fatal("record invisible after reopen")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("reopened record differs")
	}
}

// corruptions lists the ways a record file can go bad; each must read
// as a miss and be deleted, never served.
func TestCorruptRecordsRecovered(t *testing.T) {
	cases := []struct {
		name   string
		mangle func(path string, t *testing.T)
	}{
		{"truncated", func(p string, t *testing.T) {
			data, _ := os.ReadFile(p)
			os.WriteFile(p, data[:len(data)/2], 0o644)
		}},
		{"bitflip-payload", func(p string, t *testing.T) {
			data, _ := os.ReadFile(p)
			// Flip a digit inside the report payload without breaking
			// the JSON: the integrity hash must catch it.
			var rec record
			if err := json.Unmarshal(data, &rec); err != nil {
				t.Fatal(err)
			}
			rec.Report = []byte(`{"Cycles":1}`)
			out, _ := json.Marshal(rec)
			os.WriteFile(p, out, 0o644)
		}},
		{"wrong-schema", func(p string, t *testing.T) {
			data, _ := os.ReadFile(p)
			var rec record
			if err := json.Unmarshal(data, &rec); err != nil {
				t.Fatal(err)
			}
			rec.Schema = Schema + 1
			out, _ := json.Marshal(rec)
			os.WriteFile(p, out, 0o644)
		}},
		{"wrong-key", func(p string, t *testing.T) {
			data, _ := os.ReadFile(p)
			var rec record
			if err := json.Unmarshal(data, &rec); err != nil {
				t.Fatal(err)
			}
			rec.Key = "someone-else"
			out, _ := json.Marshal(rec)
			os.WriteFile(p, out, 0o644)
		}},
		{"not-json", func(p string, t *testing.T) {
			os.WriteFile(p, []byte("hello\x00world"), 0o644)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			const key = "k"
			if err := s.Put(key, sampleReport()); err != nil {
				t.Fatal(err)
			}
			tc.mangle(s.path(key), t)
			if _, tier := s.Get(key); tier.Hit() {
				t.Fatal("corrupt record served")
			}
			if s.Stats().Corrupt != 1 {
				t.Errorf("corrupt counter = %d, want 1", s.Stats().Corrupt)
			}
			if _, err := os.Stat(s.path(key)); !os.IsNotExist(err) {
				t.Error("corrupt record not deleted")
			}
			// The slot heals: a rewrite serves again.
			if err := s.Put(key, sampleReport()); err != nil {
				t.Fatal(err)
			}
			if _, tier := s.Get(key); !tier.Hit() {
				t.Fatal("healed record not served")
			}
		})
	}
}

func TestDoComputesOnceAcrossStores(t *testing.T) {
	// Two Dirs on one directory model two processes: under Do only one
	// computes per key, the rest serve the winner's record.
	dir := t.TempDir()
	var stores []*Dir
	for i := 0; i < 2; i++ {
		s, err := OpenOptions(dir, Options{StealAge: time.Minute, LockPoll: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		stores = append(stores, s)
	}
	var computes atomic.Int64
	var wg sync.WaitGroup
	const key = "shared"
	reps := make([]*stats.Report, 8)
	for i := 0; i < len(reps); i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, _, err := stores[i%2].Do(context.Background(), key, func() (*stats.Report, error) {
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
	// Counters tally one event per logical Do: 1 miss (the computer) and
	// 7 hits across the two stores, regardless of internal re-checks.
	var hits, misses int64
	for _, s := range stores {
		hits += s.Stats().Hits
		misses += s.Stats().Misses
	}
	if hits != 7 || misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 7/1", hits, misses)
	}
	want, _ := json.Marshal(sampleReport())
	for i, rep := range reps {
		got, _ := json.Marshal(rep)
		if string(got) != string(want) {
			t.Errorf("caller %d got a different report", i)
		}
	}
}

func TestDoFailedComputeNotPersisted(t *testing.T) {
	s, err := OpenOptions(t.TempDir(), Options{StealAge: time.Minute, LockPoll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, _, err := s.Do(context.Background(), "k", func() (*stats.Report, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, tier := s.Get("k"); tier.Hit() {
		t.Fatal("failed compute persisted")
	}
	// The lock must be released: a follow-up compute proceeds promptly.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, _, err := s.Do(context.Background(), "k", func() (*stats.Report, error) {
			return sampleReport(), nil
		}); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("lock leaked by failed compute")
	}
}

func TestDoCancelledWhileWaiting(t *testing.T) {
	s, err := OpenOptions(t.TempDir(), Options{StealAge: time.Minute, LockPoll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the lock from a fake peer.
	unlock, err := s.lock(context.Background(), "k")
	if err != nil || unlock == nil {
		t.Fatalf("seed lock: %v", err)
	}
	defer unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, _, err = s.Do(ctx, "k", func() (*stats.Report, error) {
		t.Error("compute ran despite held lock")
		return sampleReport(), nil
	})
	if !runner.IsContextErr(err) {
		t.Fatalf("err = %v, want context error", err)
	}
}

func TestStaleLockStolen(t *testing.T) {
	s, err := OpenOptions(t.TempDir(), Options{StealAge: 50 * time.Millisecond, LockPoll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Plant a lock and age it: a holder that never returns.
	lockPath := s.path("k") + ".lock"
	os.MkdirAll(filepath.Dir(lockPath), 0o755)
	if err := os.WriteFile(lockPath, []byte("dead\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Minute)
	os.Chtimes(lockPath, old, old)

	rep, tier, err := s.Do(context.Background(), "k", func() (*stats.Report, error) {
		return sampleReport(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tier.Hit() || rep == nil {
		t.Fatal("stale lock not stolen")
	}
}

func TestTryLock(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	release := s.TryLock("k")
	if release == nil {
		t.Fatal("TryLock on a free key failed")
	}
	lockPath := s.path("k") + ".lock"
	if _, err := os.Stat(lockPath); err != nil {
		t.Fatalf("no lock file after TryLock: %v", err)
	}
	// Held: a second claim must not block, just miss.
	if again := s.TryLock("k"); again != nil {
		again()
		t.Fatal("TryLock succeeded on a held key")
	}
	release()
	if _, err := os.Stat(lockPath); !os.IsNotExist(err) {
		t.Fatalf("lock file survived release: %v", err)
	}
	// Released: claimable again; release is idempotent-safe to call once.
	if release = s.TryLock("k"); release == nil {
		t.Fatal("TryLock after release failed")
	}
	release()
}

func TestTryLockStealsStale(t *testing.T) {
	s, err := OpenOptions(t.TempDir(), Options{StealAge: 50 * time.Millisecond, LockPoll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	lockPath := s.path("k") + ".lock"
	os.MkdirAll(filepath.Dir(lockPath), 0o755)
	if err := os.WriteFile(lockPath, []byte("dead\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Minute)
	os.Chtimes(lockPath, old, old)

	release := s.TryLock("k")
	if release == nil {
		t.Fatal("stale lock not stolen")
	}
	release()
	if _, err := os.Stat(lockPath); !os.IsNotExist(err) {
		t.Fatal("lock file survived release after steal")
	}
	// A fresh foreign lock is respected, and release never removes a
	// lock the releaser does not own.
	if err := os.WriteFile(lockPath, []byte("alive\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := s.TryLock("k"); got != nil {
		got()
		t.Fatal("fresh foreign lock stolen")
	}
	release() // second call: token no longer matches anything of ours
	if data, err := os.ReadFile(lockPath); err != nil || string(data) != "alive\n" {
		t.Fatalf("foreign lock disturbed: %q, %v", data, err)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty directory accepted")
	}
}

func TestPathSharding(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := s.path("some-key")
	rel, err := filepath.Rel(s.root, p)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Base(filepath.Dir(p))
	base := filepath.Base(p)
	if len(dir) != 2 || base[:2] != dir {
		t.Errorf("path %q not sharded by leading hash byte", rel)
	}
}

// TestPathMatchesJoin: the record name built in path's buffer is
// byte-identical to filepath.Join(root, hex[:2], hex+".json"), the form
// every store written so far is addressed by, for keys that JSON must
// escape, non-ASCII keys, an empty key and a key longer than the
// buffer, under roots spelled with redundant separators and non-ASCII
// names; and it allocates only the returned string.
func TestPathMatchesJoin(t *testing.T) {
	tmp := t.TempDir()
	roots := []string{
		tmp,
		tmp + string(filepath.Separator) + "a" + string(filepath.Separator) + string(filepath.Separator) + "b" + string(filepath.Separator) + ".",
		filepath.Join(tmp, "störe dir", "ü"),
		filepath.Join(tmp, strings.Repeat("long-root-segment"+string(filepath.Separator), 15)),
	}
	keys := []string{
		"mode=1,|ws=flo52@0.0001+fpf546bc2976fd7d4a,|policy=default|ctx=1,",
		"", "clé-ü→∞", `quote"back\slash`, "<&>", "ctl\x00\n\t", "\xff\xfe invalid utf-8",
		strings.Repeat("k", 1000),
	}
	for _, dir := range roots {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range keys {
			sum := sha256.Sum256([]byte(key))
			name := hex.EncodeToString(sum[:])
			if got, want := s.path(key), filepath.Join(s.root, name[:2], name+".json"); got != want {
				t.Errorf("path(%q) under %q:\n got  %s\n want %s", key, dir, got, want)
			}
		}
	}
	s, err := Open(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.path(keys[0]) }); n > 1 {
		t.Errorf("path allocates %.0f times, want at most the returned string", n)
	}
}

// shardLeftovers lists the lock and temp files in key's shard.
func shardLeftovers(t *testing.T, s *Dir, key string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Dir(s.path(key)))
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".lock") || strings.HasPrefix(name, ".tmp-") {
			left = append(left, name)
		}
	}
	return left
}

// verifyRecord reads key's record file and checks it decodes to want.
func verifyRecord(t *testing.T, s *Dir, key string, want *stats.Report) {
	t.Helper()
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRecord(data, key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("record decodes to %+v, want %+v", got, want)
	}
}

// TestPutPublishesThroughHeldLock: a Put of a key this Dir has locked
// renames the lock file over the record path, which leaves nothing
// behind and releases the lock; the release afterwards touches neither
// the record nor a lock taken since.
func TestPutPublishesThroughHeldLock(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const key = "k"
	release := s.TryLock(key)
	if release == nil {
		t.Fatal("TryLock on a free key failed")
	}
	lockPath := s.path(key) + ".lock"
	lockInfo, err := os.Stat(lockPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, sampleReport()); err != nil {
		t.Fatal(err)
	}
	verifyRecord(t, s, key, sampleReport())
	recInfo, err := os.Stat(s.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(lockInfo, recInfo) {
		t.Error("the record is not the lock file it was written into")
	}
	if left := shardLeftovers(t, s, key); len(left) != 0 {
		t.Errorf("shard holds %v after the Put", left)
	}
	if st := s.Stats(); st.Writes != 1 {
		t.Errorf("stats %+v, want 1 write", st)
	}
	// The key is free again; another process locks it before the
	// first holder's release runs.
	other, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	otherRelease := other.TryLock(key)
	if otherRelease == nil {
		t.Fatal("lock not released by the Put")
	}
	defer otherRelease()
	release()
	verifyRecord(t, s, key, sampleReport())
	if _, err := os.Stat(lockPath); err != nil {
		t.Errorf("release removed another holder's lock: %v", err)
	}
}

// TestPutFallsBackWhenLockReplaced: when the lock this Dir holds was
// stolen and retaken by another process before the Put, the Put writes
// through a temp file and leaves the foreign lock exactly as it was,
// and so does the release, with or without a Put before it.
func TestPutFallsBackWhenLockReplaced(t *testing.T) {
	for _, how := range []string{"removed", "renamed", "released-unput"} {
		t.Run(how, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			const key = "k"
			release := s.TryLock(key)
			if release == nil {
				t.Fatal("TryLock on a free key failed")
			}
			lockPath := s.path(key) + ".lock"
			if how == "renamed" {
				err = os.Rename(lockPath, lockPath+".stale.test")
			} else {
				err = os.Remove(lockPath)
			}
			if err != nil {
				t.Fatal(err)
			}
			foreign := []byte("4242.1 2026-01-01T00:00:00Z\n")
			if err := os.WriteFile(lockPath, foreign, 0o600); err != nil {
				t.Fatal(err)
			}
			if how != "released-unput" {
				if err := s.Put(key, sampleReport()); err != nil {
					t.Fatal(err)
				}
				verifyRecord(t, s, key, sampleReport())
			}
			release()
			if data, err := os.ReadFile(lockPath); err != nil || !bytes.Equal(data, foreign) {
				t.Fatalf("foreign lock disturbed: %q, %v", data, err)
			}
			if left := shardLeftovers(t, s, key); len(left) != 1 || left[0] != filepath.Base(lockPath) {
				t.Errorf("shard holds %v, want only the foreign lock", left)
			}
		})
	}
}

// TestDoPublishesThroughItsLock: Do writes the record it computed into
// the lock file it took, and leaves no lock behind.
func TestDoPublishesThroughItsLock(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "k"
	var lockInfo os.FileInfo
	_, tier, err := s.Do(context.Background(), key, func() (*stats.Report, error) {
		var err error
		lockInfo, err = os.Stat(s.path(key) + ".lock")
		return sampleReport(), err
	})
	if err != nil || tier.Hit() {
		t.Fatalf("Do: tier %v, err %v", tier, err)
	}
	verifyRecord(t, s, key, sampleReport())
	recInfo, err := os.Stat(s.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(lockInfo, recInfo) {
		t.Error("Do did not publish through its lock file")
	}
	if left := shardLeftovers(t, s, key); len(left) != 0 {
		t.Errorf("shard holds %v after Do", left)
	}
}

// TestRecordModeIndependentOfWritePath: a record published from a lock
// file has the mode of one written through a temp file.
func TestRecordModeIndependentOfWritePath(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("plain", sampleReport()); err != nil {
		t.Fatal(err)
	}
	release := s.TryLock("locked")
	if release == nil {
		t.Fatal("TryLock on a free key failed")
	}
	defer release()
	if err := s.Put("locked", sampleReport()); err != nil {
		t.Fatal(err)
	}
	plain, err := os.Stat(s.path("plain"))
	if err != nil {
		t.Fatal(err)
	}
	locked, err := os.Stat(s.path("locked"))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Mode() != locked.Mode() {
		t.Errorf("temp-file record mode %v, lock-file record mode %v", plain.Mode(), locked.Mode())
	}
}

// TestDirsRaceOnSharedKeys: goroutines on two Dirs over one directory
// (two processes) Do a shared set of keys in different orders. Each key
// is computed once, every record verifies, and no lock or temp file is
// left. Run it with -race -count=10.
func TestDirsRaceOnSharedKeys(t *testing.T) {
	dir := t.TempDir()
	var dirs [2]*Dir
	for i := range dirs {
		d, err := OpenOptions(dir, Options{StealAge: time.Minute, LockPoll: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		dirs[i] = d
	}
	const nkeys, workers = 16, 8
	report := func(k int) *stats.Report {
		rep := sampleReport()
		rep.Cycles = int64(k)
		return rep
	}
	var computes [nkeys]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d := dirs[w%2]
			for n := 0; n < nkeys; n++ {
				k := (n*(2*w+1) + w) % nkeys
				rep, _, err := d.Do(context.Background(), fmt.Sprintf("key-%d", k), func() (*stats.Report, error) {
					computes[k].Add(1)
					return report(k), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(rep, report(k)) {
					t.Errorf("key %d answered %+v", k, rep)
				}
			}
		}(w)
	}
	wg.Wait()
	for k := range computes {
		key := fmt.Sprintf("key-%d", k)
		if n := computes[k].Load(); n != 1 {
			t.Errorf("%s computed %d times, want 1", key, n)
		}
		verifyRecord(t, dirs[0], key, report(k))
		if left := shardLeftovers(t, dirs[0], key); len(left) != 0 {
			t.Errorf("%s: shard holds %v", key, left)
		}
	}
}

// TestReadFile: readFile returns a file's bytes whatever the buffer it
// is handed, and a missing file reads as os.IsNotExist, naming the
// path without its NUL.
func TestReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	want := bytes.Repeat([]byte("0123456789abcdef"), 1000)
	if err := os.WriteFile(path, want, 0o600); err != nil {
		t.Fatal(err)
	}
	name := append([]byte(path), 0)
	for _, buf := range [][]byte{nil, make([]byte, 0, 7), make([]byte, 3, 64<<10)} {
		got, err := readFile(name, buf)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("cap %d: read %d bytes, %v", cap(buf), len(got), err)
		}
	}
	_, err := readFile(append([]byte(path+".missing"), 0), nil)
	var perr *os.PathError
	if !os.IsNotExist(err) || !errors.As(err, &perr) || perr.Path != path+".missing" {
		t.Fatalf("missing file: %v", err)
	}
}
