package store

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
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
	// Put's pooled encoder writes EncodeRecord's bytes, between newlines.
	rec, err := EncodeRecord(key, want)
	if err != nil {
		t.Fatal(err)
	}
	if log, line := readLog(t, s), append(append([]byte{'\n'}, rec...), '\n'); !bytes.Equal(log, line) {
		t.Fatalf("log holds\n%q\nwant\n%q", log, line)
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

// TestCorruptRecordsRecovered: each way a record can go bad reads as a
// miss, is counted corrupt and dropped from the index, and is never
// served, by the Dir that indexed it or by a fresh one; a Put heals it.
func TestCorruptRecordsRecovered(t *testing.T) {
	cases := []struct {
		name   string
		mangle func(line []byte, t *testing.T) []byte
	}{
		{"truncated", func(line []byte, t *testing.T) []byte {
			return line[:len(line)/2]
		}},
		{"bitflip-payload", func(line []byte, t *testing.T) []byte {
			// Flip a digit inside the report payload without breaking
			// the JSON: the integrity hash must catch it.
			var rec record
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatal(err)
			}
			rec.Report = []byte(`{"Cycles":1}`)
			out, _ := json.Marshal(rec)
			return out
		}},
		{"wrong-schema", func(line []byte, t *testing.T) []byte {
			var rec record
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatal(err)
			}
			rec.Schema = Schema + 1
			out, _ := json.Marshal(rec)
			return out
		}},
		{"wrong-key", func(line []byte, t *testing.T) []byte {
			// Filed under the key's hash, as a hash collision would.
			var rec record
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatal(err)
			}
			rec.Key = "someone-else"
			out, _ := json.Marshal(rec)
			return out
		}},
		{"not-json", func(line []byte, t *testing.T) []byte {
			return []byte("hello\x00world")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			const key = "k"
			if err := s.Put(key, sampleReport()); err != nil {
				t.Fatal(err)
			}
			_, off, n := recordLine(t, s, key)
			replaceRecord(t, s, key, tc.mangle(readLog(t, s)[off:off+n], t))
			fresh, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, tier := fresh.Get(key); tier.Hit() {
				t.Fatal("corrupt record served to a fresh Dir")
			}
			if _, tier := s.Get(key); tier.Hit() {
				t.Fatal("corrupt record served")
			}
			if s.Stats().Corrupt != 1 {
				t.Errorf("corrupt counter = %d, want 1", s.Stats().Corrupt)
			}
			if _, ok := s.index[keySum(key)]; ok {
				t.Error("corrupt record not dropped from the index")
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
		s, err := OpenOptions(dir, Options{LockPoll: time.Millisecond})
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
	s, err := OpenOptions(t.TempDir(), Options{LockPoll: time.Millisecond})
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
	s, err := OpenOptions(t.TempDir(), Options{LockPoll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the lock from a fake peer.
	unlock := s.TryLock("k")
	if unlock == nil {
		t.Fatal("seed lock not taken")
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

func TestTryLock(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	release := s.TryLock("k")
	if release == nil {
		t.Fatal("TryLock on a free key failed")
	}
	// Held: a second claim, from this Dir or another on the directory,
	// must not block, just miss.
	if again := s.TryLock("k"); again != nil {
		again()
		t.Fatal("TryLock succeeded on a held key")
	}
	if again := other.TryLock("k"); again != nil {
		again()
		t.Fatal("another Dir took a held key's lock")
	}
	if free := other.TryLock("k2"); free == nil {
		t.Error("another key's lock is not free")
	} else {
		free()
	}
	release()
	// Released: claimable again, by either Dir.
	if release = other.TryLock("k"); release == nil {
		t.Fatal("TryLock after release failed")
	}
	release()
	if release = s.TryLock("k"); release == nil {
		t.Fatal("TryLock after the other Dir's release failed")
	}
	release()
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty directory accepted")
	}
}

// TestKeySumMatchesLine: the hash a log line is indexed under is the
// hash a lookup computes for its key, for keys that JSON must escape,
// an empty key and a key longer than keySum's buffer; and hashing a
// key or a line allocates nothing.
func TestKeySumMatchesLine(t *testing.T) {
	keys := append([]string{"", strings.Repeat("k", 2000)}, escapingKeys...)
	for _, key := range keys {
		data, err := EncodeRecord(key, sampleReport())
		if err != nil {
			t.Fatal(err)
		}
		got, ok := lineKeySum(data)
		if want := sha256.Sum256([]byte(key)); !ok || got != want || keySum(key) != want {
			t.Errorf("key %q: line sum %x (%v), key sum %x, want %x", key, got, ok, keySum(key), want)
		}
	}
	line, _ := EncodeRecord(longKey, sampleReport())
	if n := testing.AllocsPerRun(100, func() { keySum(longKey); lineKeySum(line) }); n != 0 {
		t.Errorf("hashing a key and its line allocates %.0f times", n)
	}
	for _, bad := range []string{"", "{", `{"schema":1,"key":"unterminated`, `{"schema":1,"key":"bad\u12"}`, `{"schema":2,"key":"k"}`} {
		if _, ok := lineKeySum([]byte(bad)); ok {
			t.Errorf("line %q names a key", bad)
		}
	}
}

// logPath is d's record log.
func logPath(d *Dir) string { return filepath.Join(d.root, "records.log") }

// closeDir closes d's files, as its process's exit would.
func closeDir(d *Dir) {
	d.log.Close()
	d.locks.Close()
}

// readLog returns d's log.
func readLog(t *testing.T, d *Dir) []byte {
	t.Helper()
	data, err := os.ReadFile(logPath(d))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// recordLine returns d's log and the offset and length of key's first
// record line in it.
func recordLine(t *testing.T, d *Dir, key string) (data []byte, off, n int) {
	t.Helper()
	data = readLog(t, d)
	if off = bytes.Index(data, appendHead(nil, key)); off < 0 {
		t.Fatalf("no record of %q in the log", key)
	}
	return data, off, bytes.IndexByte(data[off:], '\n')
}

// replaceRecord rewrites key's record line in d's log as bad and points
// d's index entry for key at it, as if d had indexed those bytes as
// key's record.
func replaceRecord(t *testing.T, d *Dir, key string, bad []byte) {
	t.Helper()
	data, off, n := recordLine(t, d, key)
	out := append(append(append([]byte(nil), data[:off]...), bad...), data[off+n:]...)
	if err := os.WriteFile(logPath(d), out, 0o644); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	d.index[keySum(key)] = span{int64(off), len(bad)}
	d.scanned = int64(len(out))
	d.mu.Unlock()
}

// verifyRecord checks that a fresh Dir on s's directory reads key's
// record as want.
func verifyRecord(t *testing.T, s *Dir, key string, want *stats.Report) {
	t.Helper()
	fresh, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer closeDir(fresh)
	got, tier := fresh.Get(key)
	if tier != TierLocal || !reflect.DeepEqual(got, want) {
		t.Fatalf("record of %q reads %+v (tier %v), want %+v", key, got, tier, want)
	}
}

// TestPutPublishesThroughHeldLock: a Put of a key this Dir has locked
// is visible to another Dir while the lock is still held, so a waiter
// that takes the lock next finds it; the release then frees the key.
func TestPutPublishesThroughHeldLock(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const key = "k"
	release := s.TryLock(key)
	if release == nil {
		t.Fatal("TryLock on a free key failed")
	}
	if err := s.Put(key, sampleReport()); err != nil {
		t.Fatal(err)
	}
	if got, tier := other.Get(key); tier != TierLocal || !reflect.DeepEqual(got, sampleReport()) {
		t.Fatalf("record invisible to another Dir before the release (tier %v)", tier)
	}
	if again := other.TryLock(key); again != nil {
		again()
		t.Fatal("the Put released the lock")
	}
	release()
	otherRelease := other.TryLock(key)
	if otherRelease == nil {
		t.Fatal("lock not released")
	}
	otherRelease()
	if st := s.Stats(); st.Writes != 1 {
		t.Errorf("stats %+v, want 1 write", st)
	}
}

// TestPutFallsBackWhenLockReplaced: a Put never goes through the key's
// lock, so when the locks file is removed or renamed under a holder and
// a foreign file takes its place, the holder's Put still publishes, its
// release leaves the foreign file alone, and a release without a Put
// publishes nothing.
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
			lockPath := filepath.Join(s.root, "locks")
			want := []string{"locks", "records.log"}
			if how == "renamed" {
				err = os.Rename(lockPath, lockPath+".stale.test")
				want = []string{"locks", "locks.stale.test", "records.log"}
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
				t.Fatalf("foreign locks file disturbed: %q, %v", data, err)
			}
			entries, err := os.ReadDir(s.root)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, e := range entries {
				got = append(got, e.Name())
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("store holds %v, want %v", got, want)
			}
			if how == "released-unput" {
				fresh, err := Open(s.Dir())
				if err != nil {
					t.Fatal(err)
				}
				defer closeDir(fresh)
				if _, tier := fresh.Get(key); tier.Hit() {
					t.Error("a release without a Put published a record")
				}
			}
		})
	}
}

// TestDoPublishesThroughItsLock: Do writes the record it computed while
// it holds the key's lock, and leaves the lock free.
func TestDoPublishesThroughItsLock(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const key = "k"
	_, tier, err := s.Do(context.Background(), key, func() (*stats.Report, error) {
		if release := other.TryLock(key); release != nil {
			release()
			return nil, errors.New("compute runs without the key's lock")
		}
		return sampleReport(), nil
	})
	if err != nil || tier.Hit() {
		t.Fatalf("Do: tier %v, err %v", tier, err)
	}
	verifyRecord(t, s, key, sampleReport())
	release := other.TryLock(key)
	if release == nil {
		t.Fatal("Do left its lock held")
	}
	release()
}

// TestTornTail: a record torn by a crash, its leading newline and part
// of its bytes, becomes one corrupt line when the next Put appends, and
// the record after it reads. The tear falls inside the key or after it.
func TestTornTail(t *testing.T) {
	for name, cut := range map[string]int{"in-key": 10, "in-payload": -1} {
		t.Run(name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			torn, _ := EncodeRecord("torn", sampleReport())
			if cut < 0 {
				cut = len(torn) / 2
			}
			f, err := os.OpenFile(logPath(s), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(append([]byte{'\n'}, torn[:cut]...)); err != nil {
				t.Fatal(err)
			}
			f.Close()
			if err := s.Put("next", sampleReport()); err != nil {
				t.Fatal(err)
			}
			fresh, err := Open(s.Dir())
			if err != nil {
				t.Fatal(err)
			}
			if got, tier := fresh.Get("next"); tier != TierLocal || !reflect.DeepEqual(got, sampleReport()) {
				t.Fatalf("record after a torn one reads %v", tier)
			}
			if _, tier := fresh.Get("torn"); tier.Hit() {
				t.Fatal("torn record served")
			}
			if st := fresh.Stats(); st.Corrupt != 1 || st.Hits != 1 || st.Misses != 1 {
				t.Errorf("stats %+v, want 1 hit, 1 miss, 1 corrupt line", st)
			}
		})
	}
}

// TestBitRotMidLog: a record damaged in the middle of the log misses
// and counts corrupt while its neighbours read; a Put supersedes it,
// and a fresh Dir reads the healed copy.
func TestBitRotMidLog(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	report := func(k int) *stats.Report {
		rep := sampleReport()
		rep.Cycles = int64(k)
		return rep
	}
	for k := 0; k < 3; k++ {
		if err := s.Put(fmt.Sprint("key-", k), report(k)); err != nil {
			t.Fatal(err)
		}
	}
	_, off, n := recordLine(t, s, "key-1")
	f, err := os.OpenFile(logPath(s), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{'X'}, int64(off+n-20)); err != nil { // inside the payload
		t.Fatal(err)
	}
	f.Close()
	d, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if _, tier := d.Get("key-1"); tier.Hit() {
		t.Fatal("rotten record served")
	}
	if c := d.Stats().Corrupt; c != 1 {
		t.Errorf("corrupt = %d, want 1", c)
	}
	for _, k := range []int{0, 2} {
		if got, tier := d.Get(fmt.Sprint("key-", k)); !tier.Hit() || !reflect.DeepEqual(got, report(k)) {
			t.Errorf("neighbour key-%d reads %v", k, tier)
		}
	}
	if err := d.Put("key-1", report(1)); err != nil {
		t.Fatal(err)
	}
	if got, tier := d.Get("key-1"); !tier.Hit() || !reflect.DeepEqual(got, report(1)) {
		t.Fatal("healed record not served")
	}
	verifyRecord(t, s, "key-1", report(1))
}

// TestLogVisibility: a record another Dir appends after this one has
// indexed the log is found by this one's next lookup.
func TestLogVisibility(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, tier := a.Get("k"); tier.Hit() {
		t.Fatal("empty store hit")
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put("k", sampleReport()); err != nil {
		t.Fatal(err)
	}
	if got, tier := a.Get("k"); tier != TierLocal || !reflect.DeepEqual(got, sampleReport()) {
		t.Fatalf("another Dir's record reads %v", tier)
	}
}

// TestLongRecordLine: a record longer than the scan buffer is indexed
// whole, and the lines after it too.
func TestLongRecordLine(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	long := sampleReport()
	for i := 0; i < 2000; i++ {
		long.Spans = append(long.Spans, stats.Span{Thread: i % 4, Program: "tf", Start: int64(i), End: int64(i + 1)})
	}
	if err := s.Put("long", long); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("short", sampleReport()); err != nil {
		t.Fatal(err)
	}
	if len(readLog(t, s)) <= scanChunk {
		t.Fatal("the long record fits the scan buffer")
	}
	verifyRecord(t, s, "short", sampleReport())
	verifyRecord(t, s, "long", long)
}

// lockChildEnv names the directory a re-executed test binary locks a
// key in (see TestLockHolderChild).
const lockChildEnv = "MTVEC_STORE_LOCK_CHILD"

// TestLockHolderChild is the child of TestCrossProcessLock, a separate
// process: it takes the key's lock, says so on stdout, and then, for
// each line on stdin, Puts the key's record. It never releases the
// lock: it ends when killed or when stdin closes.
func TestLockHolderChild(t *testing.T) {
	dir := os.Getenv(lockChildEnv)
	if dir == "" {
		t.Skip("run as TestCrossProcessLock's child")
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.TryLock("k") == nil {
		t.Fatal("child could not take the lock")
	}
	fmt.Println("locked")
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		if err := s.Put("k", sampleReport()); err != nil {
			t.Fatal(err)
		}
		fmt.Println("put")
	}
	os.Exit(0) // exit holding the lock: the kernel releases it
}

// TestCrossProcessLock: a key's lock excludes another process, and the
// kernel frees it the moment its holder dies, with no age involved. A
// holder that writes the record and exits answers a Do waiting on it.
func TestCrossProcessLock(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("cross-process locks are Linux's")
	}
	start := func(t *testing.T, dir string) (*exec.Cmd, io.WriteCloser, *bufio.Scanner) {
		cmd := exec.Command(os.Args[0], "-test.run=^TestLockHolderChild$")
		cmd.Env = append(os.Environ(), lockChildEnv+"="+dir)
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			t.Fatal(err)
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
		out := bufio.NewScanner(stdout)
		if !out.Scan() || out.Text() != "locked" {
			t.Fatalf("child did not lock: %q", out.Text())
		}
		return cmd, stdin, out
	}
	t.Run("killed", func(t *testing.T) {
		dir := t.TempDir()
		cmd, _, _ := start(t, dir)
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if release := s.TryLock("k"); release != nil {
			release()
			t.Fatal("TryLock took a lock another process holds")
		}
		if err := cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
			t.Fatal(err)
		}
		cmd.Wait()
		release := s.TryLock("k")
		if release == nil {
			t.Fatal("a killed holder's lock is still held")
		}
		release()
	})
	t.Run("holder-puts", func(t *testing.T) {
		dir := t.TempDir()
		cmd, stdin, out := start(t, dir)
		s, err := OpenOptions(dir, Options{LockPoll: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		type result struct {
			tier Tier
			err  error
		}
		done := make(chan result, 1)
		go func() {
			_, tier, err := s.Do(context.Background(), "k", func() (*stats.Report, error) {
				return nil, errors.New("compute ran under a live holder")
			})
			done <- result{tier, err}
		}()
		time.Sleep(50 * time.Millisecond) // let Do wait on the lock
		fmt.Fprintln(stdin, "put")
		if !out.Scan() || out.Text() != "put" {
			t.Fatalf("child did not put: %q", out.Text())
		}
		stdin.Close()
		cmd.Wait()
		select {
		case r := <-done:
			if r.err != nil || r.tier != TierLocal {
				t.Fatalf("Do: tier %v, err %v, want the holder's record", r.tier, r.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Do still waits after the holder exited")
		}
	})
}

// FuzzStoreLog: whatever bytes a log starts with, a Dir never panics,
// finds every record Put after them, and serves only records that were
// Put or that the bytes hold whole.
func FuzzStoreLog(f *testing.F) {
	valid, _ := EncodeRecord("absent", sampleReport())
	for _, seed := range [][]byte{
		nil, []byte("\n"), []byte("garbage"), valid, append(append([]byte("\n"), valid...), '\n'),
		valid[:len(valid)/2], []byte(`{"schema":1,"key":"k\"`), []byte(`{"schema":1,"key":"ab"`),
	} {
		f.Add(seed)
	}
	keys := []string{"k", "a<b>", "ab"}
	f.Fuzz(func(t *testing.T, prefix []byte) {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer closeDir(s)
		if err := os.WriteFile(logPath(s), prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		want := map[string]*stats.Report{}
		for i, key := range keys {
			rep := sampleReport()
			rep.Cycles = int64(i)
			if err := s.Put(key, rep); err != nil {
				t.Fatal(err)
			}
			want[key] = rep
		}
		fresh, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer closeDir(fresh)
		for _, key := range append(keys, "absent", "") {
			got, tier := fresh.Get(key)
			if w, ok := want[key]; ok {
				if tier != TierLocal || !reflect.DeepEqual(got, w) {
					t.Fatalf("%q reads %+v (tier %v), want %+v", key, got, tier, w)
				}
				continue
			}
			if tier.Hit() {
				rec, _ := EncodeRecord(key, got)
				if !bytes.Contains(prefix, rec) {
					t.Fatalf("%q served a record the log does not hold", key)
				}
			}
		}
	})
}

// TestDirsRaceOnSharedKeys: goroutines on two Dirs over one directory
// (two processes) Do a shared set of keys in different orders. Each key
// is computed once, every record verifies, and no lock is left held.
// Run it with -race -count=10.
func TestDirsRaceOnSharedKeys(t *testing.T) {
	dir := t.TempDir()
	var dirs [2]*Dir
	for i := range dirs {
		d, err := OpenOptions(dir, Options{LockPoll: time.Millisecond})
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
		release := dirs[0].TryLock(key)
		if release == nil {
			t.Errorf("%s: lock left held", key)
			continue
		}
		release()
	}
}
