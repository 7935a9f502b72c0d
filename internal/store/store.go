// Package store is the persistent second tier under the session memo
// cache: a content-addressed table of simulation Reports behind a small
// Backend interface with three implementations — Dir (on-disk), HTTPPeer
// (a remote worker's record API) and Tiered (local disk warmed from
// peers).
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
// a string, optionally followed by one newline. DecodeRecord accepts
// only that form. Any other JSON, however equivalent, is corrupt, so a
// read matches the envelope by prefix and parses JSON once, for the
// report. The same envelope travels the wire between peers, and
// HTTPPeer re-verifies it on receipt: a peer is trusted no more than
// the local disk.
//
// # Concurrency
//
// A Dir is safe for concurrent use by any number of goroutines and
// processes sharing the directory. Writes are atomic (temp file +
// rename), and because every simulation is a pure function of its key,
// concurrent writers of one key write byte-identical records — last
// writer wins harmlessly. Do adds cross-process single-flight on top: a
// lock file elects one computing process per key while the others poll
// for its result, so a fleet of processes warming one store directory
// simulates each point once. Lock holders that die are detected by age
// and their locks stolen (the bound is Options.StealAge); a cancelled
// compute releases the lock without writing, preserving the engine's
// forget-on-cancel semantics on disk.
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

	hits    atomic.Int64
	misses  atomic.Int64
	writes  atomic.Int64
	corrupt atomic.Int64
}

// Store is the historical name of the on-disk tier.
//
// Deprecated: use Dir (the Backend interface has other implementations
// now). The alias is permanent; existing code keeps compiling.
type Store = Dir

// Stats is a snapshot of a backend's counters (process-local, not
// persisted).
type Stats struct {
	Hits    int64 `json:"hits"`    // Get/Do served a verified record
	Misses  int64 `json:"misses"`  // no record (or none that verified)
	Writes  int64 `json:"writes"`  // records written
	Corrupt int64 `json:"corrupt"` // records dropped for failing verification
	// PeerHits counts the subset of Hits served by a remote peer rather
	// than local disk (Tiered and HTTPPeer backends; always 0 on a Dir).
	PeerHits int64 `json:"peer_hits,omitempty"`
}

// add accumulates o into s (Tiered aggregates its children).
func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Writes += o.Writes
	s.Corrupt += o.Corrupt
	s.PeerHits += o.PeerHits
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
	}
	d.SetLockTuning(o.StealAge, o.LockPoll)
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
// exact bytes Dir persists and the record API serves. Envelope bytes
// are a pure function of (key, report), so every encoder of one result
// produces identical bytes.
func EncodeRecord(key string, rep *stats.Report) ([]byte, error) {
	payload, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("store: encode report: %w", err)
	}
	sum := sha256.Sum256(payload)
	// One allocation for a plain key, with room for the newline that Put
	// and the record API append.
	data := make([]byte, 0, len(key)+len(payload)+128)
	data = appendHead(data, key)
	data = hex.AppendEncode(data, sum[:])
	data = append(data, envelopeMid...)
	data = append(data, payload...)
	return append(data, '}'), nil
}

// DecodeRecord verifies an envelope against the key it was requested
// under and decodes the report. It is the single verification path for
// records read from disk and records received from peers. It accepts
// only the canonical envelope EncodeRecord writes for key, optionally
// followed by one newline, whose sum matches the SHA-256 of the report
// payload: any other bytes — another schema or key, reordered fields,
// added whitespace, trailing data — are rejected as corrupt.
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
	rep := new(stats.Report)
	if err := json.Unmarshal(payload, rep); err != nil {
		return nil, fmt.Errorf("store: report payload: %w", err)
	}
	return rep, nil
}

// path returns the sharded record path for a key.
func (s *Dir) path(key string) string {
	h := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(h[:])
	return filepath.Join(s.root, name[:2], name+".json")
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

// readRecord loads and verifies one record file.
func readRecord(path, key string) (*stats.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep, err := DecodeRecord(data, key)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// Put writes the report under key. The write is atomic: readers see
// either the old record or the complete new one, never a torn file.
// Concurrent writers of one key write identical bytes (simulations are
// pure functions of their key), so last-writer-wins is harmless.
func (s *Dir) Put(key string, rep *stats.Report) error {
	data, err := EncodeRecord(key, rep)
	if err != nil {
		return err
	}
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, werr := tmp.Write(append(data, '\n'))
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
		if IsContextErr(err) {
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
// release deletes the lock file only while it still carries this
// acquisition's unique token — a holder displaced for exceeding the
// staleness bound will not remove its usurper's lock.
func (s *Dir) lock(ctx context.Context, key string) (func(), error) {
	path := s.path(key) + ".lock"
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			token := fmt.Sprintf("%d.%d %s\n", os.Getpid(), lockSeq.Add(1), time.Now().UTC().Format(time.RFC3339Nano))
			_, werr := f.WriteString(token)
			f.Close()
			if werr != nil {
				os.Remove(path)
				return nil, fmt.Errorf("store: lock %s: %w", path, werr)
			}
			return func() {
				if data, rerr := os.ReadFile(path); rerr == nil && string(data) == token {
					os.Remove(path)
				}
			}, nil
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
			stale := fmt.Sprintf("%s.stale.%d.%d", path, os.Getpid(), lockSeq.Add(1))
			if os.Rename(path, stale) == nil {
				os.Remove(stale)
			}
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
// when the lock is live elsewhere.
func (s *Dir) TryLock(key string) (release func()) {
	path := s.path(key) + ".lock"
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil
	}
	for attempt := 0; attempt < 2; attempt++ {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			token := fmt.Sprintf("%d.%d %s\n", os.Getpid(), lockSeq.Add(1), time.Now().UTC().Format(time.RFC3339Nano))
			_, werr := f.WriteString(token)
			f.Close()
			if werr != nil {
				os.Remove(path)
				return nil
			}
			return func() {
				if data, rerr := os.ReadFile(path); rerr == nil && string(data) == token {
					os.Remove(path)
				}
			}
		}
		if !os.IsExist(err) {
			return nil
		}
		info, serr := os.Stat(path)
		if serr != nil || time.Since(info.ModTime()) <= s.lockStale {
			return nil // live lock (or vanished: holder just released)
		}
		// Stale: steal by atomic rename, then retry the creation once.
		stale := fmt.Sprintf("%s.stale.%d.%d", path, os.Getpid(), lockSeq.Add(1))
		if os.Rename(path, stale) == nil {
			os.Remove(stale)
		}
	}
	return nil
}

// IsContextErr mirrors the engine's cancellation predicate for callers
// that hold only a store.
func IsContextErr(err error) bool { return runner.IsContextErr(err) }

// SetLockTuning overrides the cross-process lock's staleness bound and
// poll interval (zero keeps the current value). Equivalent to opening
// with Options; kept as a method so tests and long-lived processes can
// retune a live store.
func (s *Dir) SetLockTuning(stale, poll time.Duration) {
	if stale > 0 {
		s.lockStale = stale
	}
	if poll > 0 {
		s.lockPoll = poll
	}
}
