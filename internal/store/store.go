// Package store is the persistent second tier under the session memo
// cache: a content-addressed table of simulation Reports behind a small
// Backend interface, implemented on disk by Dir.
//
// Every record is keyed by the session's canonical persist key — the
// full (mode, workload provenance, policy, machine shape, stop rule)
// encoding, covering the arch/register-file/VLen dimensions — hashed
// with SHA-256 into a sharded file path under a format-versioned root:
//
//	<dir>/v1/<hh>/<sha256>.json
//
// Records are self-describing JSON envelopes carrying the format
// schema, the full key (so hash collisions and cross-key file moves are
// detected, never trusted), and an integrity hash of the report
// payload. A record that fails any of those checks — truncated write,
// bit rot, schema from a future version, key mismatch — is treated as a
// miss and deleted, so corrupt or stale entries are recomputed rather
// than served.
//
// The envelope has one canonical byte form, the one EncodeRecord
// writes: {"schema":N,"key":<key>,"sum":"<64 hex>","report":<report>}
// in that order, compact, with the key encoded as encoding/json encodes
// a string and the report as json.Marshal writes a stats.Report,
// optionally followed by one newline. DecodeRecord accepts only that
// form. Any other JSON, however equivalent, is corrupt, so a read
// matches the envelope by prefix and parses the report with a
// hand-written parser for exactly json.Marshal's bytes.
//
// # Concurrency
//
// A Dir is safe for concurrent use by any number of goroutines and
// processes sharing the directory. Writes are atomic (a complete file
// renamed over the record path), and because every simulation is a
// pure function of its key, concurrent writers of one key write
// byte-identical records — last writer wins harmlessly. Do adds
// cross-process single-flight on top: a lock file elects one computing
// process per key while the others poll for its result, so a fleet of
// processes warming one store directory simulates each point once.
// TryLock takes the same lock without waiting. The holder writes the
// record into its lock file and renames it over the record path, so
// one rename publishes the record and releases the lock; a Put without
// the lock writes a temp file instead. Lock holders that die are
// detected by age and their locks stolen (the bound is
// Options.StealAge); a cancelled compute releases the lock without
// writing, preserving the engine's forget-on-cancel semantics on disk.
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
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"mtvec/internal/runner"
	"mtvec/internal/stats"
)

// Schema versions the record envelope. Readers reject records with a
// different schema (treated as a miss, recomputed); the layout version
// in the directory path isolates incompatible path schemes.
const Schema = 1

// layoutVersion names the on-disk layout root. Bump it together with
// Schema when the path scheme or envelope changes incompatibly: old and
// new binaries then share a directory without serving each other's
// records.
const layoutVersion = "v1"

// Options tunes a Dir. The zero value selects every default.
type Options struct {
	// StealAge is the age after which another process's lock file is
	// presumed abandoned (its holder crashed) and stolen. Zero selects
	// DefaultStealAge. Set it below the longest simulation a deployment
	// can run and a healthy holder will be displaced — the loser only
	// duplicates work, never corrupts it, but the single-flight is gone.
	StealAge time.Duration
	// LockPoll is the interval at which lock waiters re-check for the
	// holder's result. Zero selects 25ms.
	LockPoll time.Duration
}

// DefaultStealAge is the default lock-file steal age.
const DefaultStealAge = 10 * time.Minute

// Dir is one on-disk result store rooted at a directory.
type Dir struct {
	root string // <dir>/<layoutVersion>

	// lockStale is the age after which another process's lock file is
	// presumed abandoned (its holder crashed) and stolen.
	lockStale time.Duration
	// lockPoll is the interval at which lock waiters re-check for the
	// holder's result.
	lockPoll time.Duration

	// held maps each key whose lock file this Dir holds to that file
	// (see Put).
	mu   sync.Mutex
	held map[string]*heldLock

	hits    atomic.Int64
	misses  atomic.Int64
	writes  atomic.Int64
	corrupt atomic.Int64
}

// Stats is a snapshot of a backend's counters (process-local, not
// persisted).
type Stats struct {
	Hits    int64 `json:"hits"`    // Get/Do served a verified record
	Misses  int64 `json:"misses"`  // no record (or none that verified)
	Writes  int64 `json:"writes"`  // records written
	Corrupt int64 `json:"corrupt"` // records dropped for failing verification
}

// Open creates (if needed) and opens the store rooted at dir with
// default Options.
func Open(dir string) (*Dir, error) { return OpenOptions(dir, Options{}) }

// OpenOptions creates (if needed) and opens the store rooted at dir.
func OpenOptions(dir string, o Options) (*Dir, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if o.StealAge < 0 || o.LockPoll < 0 {
		return nil, fmt.Errorf("store: negative lock tuning (steal age %v, poll %v)", o.StealAge, o.LockPoll)
	}
	root := filepath.Join(dir, layoutVersion)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &Dir{
		root:      root,
		lockStale: DefaultStealAge,
		lockPoll:  25 * time.Millisecond,
		held:      make(map[string]*heldLock),
	}
	if o.StealAge > 0 {
		d.lockStale = o.StealAge
	}
	if o.LockPoll > 0 {
		d.lockPoll = o.LockPoll
	}
	return d, nil
}

// Dir returns the store's root directory (the one passed to Open).
func (s *Dir) Dir() string { return filepath.Dir(s.root) }

// Stats returns a snapshot of the store's counters.
func (s *Dir) Stats() Stats {
	return Stats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Writes:  s.writes.Load(),
		Corrupt: s.corrupt.Load(),
	}
}

// appendHead appends the canonical envelope (see the package comment)
// for key up to the hex sum.
func appendHead(b []byte, key string) []byte {
	b = append(b, `{"schema":`...)
	b = strconv.AppendInt(b, Schema, 10)
	b = append(b, `,"key":`...)
	b = appendKey(b, key)
	return append(b, `,"sum":"`...)
}

// appendKey appends key as encoding/json encodes a string. Keys are
// plain printable ASCII in practice and are copied between quotes;
// anything that might need escaping goes through json.Marshal, which
// defines the encoding.
func appendKey(b []byte, key string) []byte {
	for i := 0; i < len(key); i++ {
		if c := key[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			k, _ := json.Marshal(key) // a string always marshals
			return append(b, k...)
		}
	}
	b = append(b, '"')
	b = append(b, key...)
	return append(b, '"')
}

// envelopeMid sits between the hex sum and the report payload.
const envelopeMid = `","report":`

// EncodeRecord builds the self-describing envelope for a report — the
// exact bytes Dir persists. Envelope bytes are a pure function of (key,
// report), so every encoder of one result produces identical bytes.
func EncodeRecord(key string, rep *stats.Report) ([]byte, error) {
	payload, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("store: encode report: %w", err)
	}
	sum := sha256.Sum256(payload)
	// One allocation for a plain key, with room for the newline that Put
	// appends.
	data := make([]byte, 0, len(key)+len(payload)+128)
	data = appendHead(data, key)
	data = hex.AppendEncode(data, sum[:])
	data = append(data, envelopeMid...)
	data = append(data, payload...)
	return append(data, '}'), nil
}

// DecodeRecord verifies an envelope against the key it was requested
// under and decodes the report. It is the single verification path for
// records read from disk. It accepts
// only the canonical envelope EncodeRecord writes for key, optionally
// followed by one newline, whose sum matches the SHA-256 of the report
// payload and whose payload is the bytes json.Marshal writes for a
// stats.Report: any other bytes — another schema or key, reordered
// fields, added whitespace, trailing data — are rejected as corrupt.
func DecodeRecord(data []byte, key string) (*stats.Report, error) {
	if !utf8.ValidString(key) {
		// encoding/json would rewrite the key, so no record can echo it.
		return nil, errors.New("store: key is not valid UTF-8")
	}
	var buf [512]byte
	head := appendHead(buf[:0], key)
	body, _ := bytes.CutSuffix(data, []byte{'\n'})
	if !bytes.HasPrefix(body, head) {
		return nil, errors.New("store: envelope does not match the schema and key")
	}
	rest := body[len(head):]
	const hexLen = sha256.Size * 2
	if len(rest) < hexLen+len(envelopeMid)+1 || string(rest[hexLen:hexLen+len(envelopeMid)]) != envelopeMid || rest[len(rest)-1] != '}' {
		return nil, errors.New("store: malformed envelope")
	}
	payload := rest[hexLen+len(envelopeMid) : len(rest)-1]
	sum := sha256.Sum256(payload)
	var want [hexLen]byte
	hex.Encode(want[:], sum[:])
	if string(rest[:hexLen]) != string(want[:]) {
		return nil, errors.New("store: integrity hash mismatch")
	}
	return decodeReport(payload)
}

// path returns the sharded record path for a key,
// filepath.Join(root, hex[:2], hex+".json") for the key's SHA-256 hex,
// built in one fixed buffer that first holds the key for hashing. root
// is clean and ends in layoutVersion (OpenOptions joins it), and the
// hex parts hold no separator, so the join is a concatenation. Only a
// key or root longer than the buffer costs more than the returned
// string.
func (s *Dir) path(key string) string {
	var buf [1024]byte
	h := sha256.Sum256(append(buf[:0], key...))
	b := append(buf[:0], s.root...)
	b = append(b, filepath.Separator)
	var name [sha256.Size * 2]byte
	hex.Encode(name[:], h[:])
	b = append(b, name[:2]...)
	b = append(b, filepath.Separator)
	b = append(b, name[:]...)
	b = append(b, ".json"...)
	return string(b)
}

// Get returns the stored report for key (tier TierLocal), or TierMiss.
// A record that fails verification (schema, key, integrity hash, or
// malformed JSON) is deleted and reported as a miss — corruption is
// recomputed, never trusted.
func (s *Dir) Get(key string) (*stats.Report, Tier) {
	rep, ok := s.load(key)
	if ok {
		s.hits.Add(1)
		return rep, TierLocal
	}
	s.misses.Add(1)
	return nil, TierMiss
}

// load is Get without the hit/miss accounting (corrupt records are
// still counted and deleted): Do re-checks the record several times per
// logical lookup and must not inflate the counters.
func (s *Dir) load(key string) (*stats.Report, bool) {
	path := s.path(key)
	rep, err := readRecord(path, key)
	if err == nil {
		return rep, true
	}
	if !os.IsNotExist(err) {
		// Present but unusable: drop it so the slot heals on rewrite.
		s.corrupt.Add(1)
		os.Remove(path)
	}
	return nil, false
}

// readBufs recycles the buffers records are read into. A decoded
// Report copies what it keeps, so a buffer is free again as soon as
// DecodeRecord returns.
var readBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

// readRecord loads and verifies one record file.
func readRecord(path, key string) (*stats.Report, error) {
	buf := readBufs.Get().(*[]byte)
	data, err := readFile(path, *buf)
	if err != nil {
		readBufs.Put(buf)
		return nil, err
	}
	rep, err := DecodeRecord(data, key)
	if cap(data) <= 64<<10 { // an outsized file does not pin its buffer
		*buf = data[:0]
		readBufs.Put(buf)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// Put writes the report under key. The write is atomic: readers see
// either the old record or the complete new one, never a torn file.
// Concurrent writers of one key write identical bytes (simulations are
// pure functions of their key), so last-writer-wins is harmless.
//
// When this Dir holds key's lock (TryLock, or Do computing), Put writes
// the record into the lock file and renames it over the record path:
// one rename publishes the record and releases the lock, and the key
// costs one file creation instead of two. Ownership is checked just
// before the rename; a lock that was stolen meanwhile, or any failure
// on the way, falls back to a temp file plus rename, as for a Put
// without a held lock.
func (s *Dir) Put(key string, rep *stats.Report) error {
	data, err := EncodeRecord(key, rep)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	path := s.path(key)
	if h := s.takeHeld(key); h != nil {
		fi, ok := h.publish(data, path)
		if ok {
			s.writes.Add(1)
			return nil
		}
		// Release the lock only once the fallback's record is in place,
		// so that a waiter never sees neither.
		defer func() {
			if owns(h.path, fi) {
				os.Remove(h.path)
			}
		}()
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		tmp, err = os.CreateTemp(filepath.Dir(path), ".tmp-*")
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s: %w", path, errors.Join(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	s.writes.Add(1)
	return nil
}

// Do returns the stored report for key, computing and persisting it
// with compute on a verified miss. The returned tier is TierLocal when
// the result was served from disk (by this call's own read — a compute
// that raced another process still reports TierMiss).
//
// Across processes Do is single-flight: a lock file elects one computer
// per key and the others poll, re-checking for the winner's record. A
// compute that fails — including ctx cancellation — releases the lock
// without writing, so errors are never persisted and a cancelled run is
// recomputed by the next requester (the on-disk mirror of the session
// cache's forget-on-cancel rule). Lock files older than the staleness
// bound are presumed abandoned and stolen.
//
// Do returns an error only from ctx or from compute itself: store I/O
// failures (unwritable lock, failed record write) degrade to computing
// without the single-flight or to a plain miss next time, never to a
// failed call — so callers may safely memoize what Do returns.
func (s *Dir) Do(ctx context.Context, key string, compute func() (*stats.Report, error)) (rep *stats.Report, tier Tier, err error) {
	// One logical lookup counts exactly one hit (served from disk at any
	// of the checks below) or one miss (computed).
	if rep, ok := s.load(key); ok {
		s.hits.Add(1)
		return rep, TierLocal, nil
	}
	unlock, err := s.lock(ctx, key)
	if err != nil {
		if runner.IsContextErr(err) {
			return nil, TierMiss, err
		}
		// Lock bookkeeping failed — a full or read-only store volume.
		// The lock is pure work-deduplication, so degrade to computing
		// without it rather than failing the run: a concurrent process
		// may duplicate the simulation, never corrupt it. Crucially the
		// caller's memo must not get poisoned by a transient I/O error
		// that a retry would not reproduce.
		unlock = nil
	}
	if unlock == nil {
		// The lock holder finished while we waited; its record must be
		// there now. If it isn't (holder failed), compute without the
		// lock: correctness never depends on the single-flight.
		if rep, ok := s.load(key); ok {
			s.hits.Add(1)
			return rep, TierLocal, nil
		}
	} else {
		defer unlock()
		// Double-check under the lock: another process may have written
		// between our miss and the acquisition.
		if rep, ok := s.load(key); ok {
			s.hits.Add(1)
			return rep, TierLocal, nil
		}
	}
	s.misses.Add(1)
	rep, err = compute()
	if err != nil {
		return nil, TierMiss, err
	}
	if perr := s.Put(key, rep); perr != nil {
		// A failed write degrades the store to a cache miss next time;
		// the computed result is still good.
		return rep, TierMiss, nil
	}
	return rep, TierMiss, nil
}

// lockSeq disambiguates lock tokens taken by one process at one
// instant (two goroutines can lock different keys concurrently).
var lockSeq atomic.Int64

// heldLock is a lock file this Dir created and still holds open. The
// held table owns the descriptor: whoever removes an entry closes it.
type heldLock struct {
	f    *os.File
	path string
}

// createLock creates key's lock file at path and records it as held.
// It fails with an os.IsExist error while another holder has the lock.
// The file is created 0600, the mode os.CreateTemp gives a record
// written through a temp file, because Put may publish it as the
// record.
//
// The file carries a token naming its creator (pid, sequence, time)
// for a reader diagnosing a stuck lock. Ownership is never read back
// from it: a holder owns the lock while the lock path still names the
// file it created (os.SameFile against the open descriptor).
func (s *Dir) createLock(key, path string) (release func(), err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		f, err = os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
	}
	if err != nil {
		return nil, err
	}
	token := fmt.Sprintf("%d.%d %s\n", os.Getpid(), lockSeq.Add(1), time.Now().UTC().Format(time.RFC3339Nano))
	if _, err := f.WriteString(token); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	h := &heldLock{f: f, path: path}
	s.mu.Lock()
	if old := s.held[key]; old != nil {
		// A lock of ours that was stolen while its holder ran; the
		// holder's release finds it displaced and leaves it be.
		old.f.Close()
	}
	s.held[key] = h
	s.mu.Unlock()
	return func() { s.release(key, h) }, nil
}

// takeHeld removes key's held lock from the table and returns it, or
// nil when this Dir holds none.
func (s *Dir) takeHeld(key string) *heldLock {
	s.mu.Lock()
	h := s.held[key]
	delete(s.held, key)
	s.mu.Unlock()
	return h
}

// release gives up h: it closes the descriptor and deletes the lock
// file, if h is still held and the lock path still names its file.
// After Put published the record through h, release does nothing.
func (s *Dir) release(key string, h *heldLock) {
	s.mu.Lock()
	mine := s.held[key] == h
	if mine {
		delete(s.held, key)
	}
	s.mu.Unlock()
	if !mine {
		return
	}
	fi, _ := h.f.Stat()
	h.f.Close()
	if owns(h.path, fi) {
		os.Remove(h.path)
	}
}

// publish writes a record into the lock file, closes it, and renames it
// to path if the lock path still names it. It returns the lock file's
// identity (nil if unknown) and whether the record was published. The
// record overwrites the token whole: a token is at most 64 bytes, and
// a record's hex sum alone is that long.
func (h *heldLock) publish(data []byte, path string) (os.FileInfo, bool) {
	_, werr := h.f.WriteAt(data, 0)
	fi, serr := h.f.Stat()
	cerr := h.f.Close()
	if serr != nil {
		return nil, false
	}
	// A holder displaced between the check and the rename would move
	// its usurper's lock over the record. That needs a steal — a lock
	// older than the staleness bound, which the write just refreshed —
	// inside those two calls, and costs one corrupt record that the
	// next read deletes.
	if werr != nil || cerr != nil || !owns(h.path, fi) {
		return fi, false
	}
	return fi, os.Rename(h.path, path) == nil
}

// owns reports whether path names the file fi describes.
func owns(path string, fi os.FileInfo) bool {
	if fi == nil {
		return false
	}
	cur, err := os.Stat(path)
	return err == nil && os.SameFile(fi, cur)
}

// lock acquires the cross-process lock for key. It returns a release
// function on acquisition, or (nil, nil) when the previous holder
// released while we waited (the caller should re-check the store), or
// ctx.Err() when cancelled while waiting.
//
// The lock is advisory work-deduplication, not a correctness
// mechanism: record writes are atomic and all writers of one key write
// identical bytes, so the worst a lost race can cost is a duplicate
// simulation. Staleness handling is therefore built to never break
// another holder's lock by accident: a stale lock is stolen by atomic
// rename (exactly one stealer wins; the losers just re-poll), and
// release deletes the lock file only while the lock path still names
// the file this acquisition created — a holder displaced for exceeding
// the staleness bound will not remove its usurper's lock.
func (s *Dir) lock(ctx context.Context, key string) (func(), error) {
	path := s.path(key) + ".lock"
	for {
		release, err := s.createLock(key, path)
		if err == nil {
			return release, nil
		}
		if !os.IsExist(err) {
			return nil, fmt.Errorf("store: lock %s: %w", path, err)
		}
		// Someone else is computing. Wait for the lock to clear, stealing
		// it if its holder looks dead.
		info, serr := os.Stat(path)
		if serr == nil && time.Since(info.ModTime()) > s.lockStale {
			// Steal atomically: rename sideways, then delete the moved
			// file. Concurrent stealers race on the rename and exactly
			// one wins; a lock re-acquired between our stat and rename is
			// younger than the staleness bound only if the filesystem
			// clock jumped, and even then the loser merely recomputes.
			stealLock(path)
			continue
		}
		if serr != nil && os.IsNotExist(serr) {
			// Released between our open and stat: the holder finished.
			return nil, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(s.lockPoll):
		}
		if _, serr := os.Stat(path); os.IsNotExist(serr) {
			return nil, nil
		}
	}
}

// stealLock moves an abandoned lock file aside and deletes it.
func stealLock(path string) {
	stale := fmt.Sprintf("%s.stale.%d.%d", path, os.Getpid(), lockSeq.Add(1))
	if os.Rename(path, stale) == nil {
		os.Remove(stale)
	}
}

// TryLocker is the optional non-blocking face of a backend's
// cross-process single-flight. TryLock claims key's lock without
// waiting and returns its release function, or nil when the lock is
// held elsewhere (or the backend cannot lock). The locks stay
// advisory, exactly like Do's (all writers of one key write identical
// bytes). Session sweeps claim their points' locks through it.
type TryLocker interface {
	TryLock(key string) (release func())
}

// TryLock claims key's lock file without blocking: one creation
// attempt, plus one steal-and-retry when the existing lock is older
// than the staleness bound (its holder crashed — without this, an
// abandoned lock would block the key's claims forever). Returns nil
// when the lock is live elsewhere. A Put of key before the release
// publishes the record through the lock file (see Put); the release
// then has nothing left to do.
func (s *Dir) TryLock(key string) (release func()) {
	path := s.path(key) + ".lock"
	for attempt := 0; attempt < 2; attempt++ {
		release, err := s.createLock(key, path)
		if err == nil {
			return release
		}
		if !os.IsExist(err) {
			return nil
		}
		info, serr := os.Stat(path)
		if serr != nil || time.Since(info.ModTime()) <= s.lockStale {
			return nil // live lock (or vanished: holder just released)
		}
		// Stale: steal by atomic rename, then retry the creation once.
		stealLock(path)
	}
	return nil
}
