// Package store is the persistent second tier under the session memo
// cache: a content-addressed table of simulation Reports behind a small
// Backend interface, implemented on disk by Dir.
//
// Every record is keyed by the session's canonical persist key — the
// full (mode, workload provenance, policy, machine shape, stop rule)
// encoding, covering the arch/register-file/VLen dimensions. A store is
// one append-only log of records, one per line, under a
// format-versioned root, beside the file whose bytes are its locks:
//
//	<dir>/v2/records.log
//	<dir>/v2/locks
//
// Each Put appends "\n" + record + "\n" in one write, so a write torn
// by a crash is one corrupt line and never swallows the next record. A
// Dir indexes the log in memory by the SHA-256 of each line's key; a
// lookup that misses the index first indexes the lines appended since
// its last look, and a later line for a key supersedes an earlier one.
// A v1 store (one file per record) is neither read nor removed.
//
// Records are self-describing JSON envelopes carrying the format
// schema, the full key (so a record is never served for another key),
// and an integrity hash of the report payload. A record that fails any
// of those checks — torn write, bit rot, schema from a future version,
// key mismatch — is counted corrupt and read as a miss, so it is
// recomputed rather than served, and the recomputed record supersedes
// it.
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
// A Dir is safe for concurrent use by any number of goroutines, and any
// number of Dirs and processes may share a directory. Because every
// simulation is a pure function of its key, concurrent writers of one
// key append byte-identical records, and whichever a reader indexes
// last serves. Do adds cross-process single-flight on top: each key's
// lock elects one computing process while the others poll for its
// result, so a fleet of processes warming one store directory simulates
// each point once. TryLock takes the same lock without waiting. A lock
// is one byte of the locks file, at an offset derived from the key's
// hash, held as a Linux open-file-description lock (F_OFD_SETLK): the
// kernel releases it when its holder exits or dies, so no lock outlives
// its process. Within a process, a Dir's held set excludes its own
// goroutines. On other systems only that in-process exclusion applies.
// A cancelled compute releases the lock without writing, preserving the
// engine's forget-on-cancel semantics on disk.
package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"mtvec/internal/stats"
)

// Schema versions the record envelope. Readers reject records with a
// different schema (treated as a miss, recomputed); the layout version
// in the directory path isolates incompatible layouts.
const Schema = 1

// layoutVersion names the on-disk layout root. Bump it when the layout
// or the envelope changes incompatibly: old and new binaries then share
// a directory without serving each other's records.
const layoutVersion = "v2"

// Options tunes a Dir. The zero value selects every default.
type Options struct {
	// LockPoll is the interval at which lock waiters re-check for the
	// holder's result. Zero selects 25ms.
	LockPoll time.Duration
}

// span locates one record, a line of the log without its newline.
type span struct {
	off int64
	n   int
}

// scanChunk is the size of the buffer the log's tail is read through.
// It grows only to hold one line longer than itself.
const scanChunk = 32 << 10

// Dir is one on-disk result store rooted at a directory. It keeps its
// log, and its locks file once it has claimed a lock, open for as long
// as it lives: the descriptors close when the Dir is garbage collected
// or its process exits, and the kernel then drops any lock still held.
type Dir struct {
	root string // <dir>/<layoutVersion>

	// lockPoll is the interval at which lock waiters re-check for the
	// holder's result.
	lockPoll time.Duration

	log *os.File // records.log, appended to and read at offsets
	// appending orders this Dir's appends, so that the log descriptor's
	// offset after a write is where that write's line ends.
	appending sync.Mutex

	mu sync.Mutex
	// locks is the file whose bytes are the keys' locks (see
	// lockOffset), opened by the first TryLock, so that opening a store
	// creates one file.
	locks *os.File
	// index maps the SHA-256 of a key to its latest record in the log
	// up to scanned, the offset of the first line not yet indexed.
	index   map[[sha256.Size]byte]span
	scanned int64
	scan    []byte // catchUp's read buffer
	// held is the set of lock offsets this Dir holds.
	held map[int64]bool

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
	if o.LockPoll < 0 {
		return nil, fmt.Errorf("store: negative lock poll %v", o.LockPoll)
	}
	root := filepath.Join(dir, layoutVersion)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	log, err := os.OpenFile(filepath.Join(root, "records.log"), os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &Dir{
		root:     root,
		lockPoll: 25 * time.Millisecond,
		log:      log,
		index:    make(map[[sha256.Size]byte]span),
		held:     make(map[int64]bool),
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

// keyHead opens every envelope, up to the key's opening quote.
var keyHead = `{"schema":` + strconv.Itoa(Schema) + `,"key":`

// appendHead appends the canonical envelope (see the package comment)
// for key up to the hex sum.
func appendHead(b []byte, key string) []byte {
	b = append(b, keyHead...)
	b = appendKey(b, key)
	return append(b, `,"sum":"`...)
}

// appendKey appends key as encoding/json encodes a string. Keys are
// plain printable ASCII in practice and are copied between quotes;
// anything that might need escaping goes through json.Marshal, which
// defines the encoding.
func appendKey(b []byte, key string) []byte {
	if !plainKey(key) {
		k, _ := json.Marshal(key) // a string always marshals
		return append(b, k...)
	}
	b = append(b, '"')
	b = append(b, key...)
	return append(b, '"')
}

// plainKey reports whether encoding/json writes key as itself between
// quotes: every byte is a plainByte. It reads a table, since a record
// read checks a whole key.
func plainKey(key string) bool {
	for i := 0; i < len(key); i++ {
		if !plainBytes[key[i]] {
			return false
		}
	}
	return true
}

// plainBytes tabulates plainByte.
var plainBytes = func() (t [256]bool) {
	for c := range t {
		t[c] = plainByte(byte(c))
	}
	return t
}()

// cutHead reports whether b starts with the envelope head appendHead
// writes for key and returns what follows it. It compares the head's
// pieces in place, so a record read copies no key; only a key that
// JSON must escape is encoded first.
func cutHead(b []byte, key string) ([]byte, bool) {
	enc, quote := key, `"`
	if !plainKey(key) {
		enc, quote = string(appendKey(nil, key)), ""
	}
	ok := true
	for _, piece := range [...]string{keyHead, quote, enc, quote, `,"sum":"`} {
		if b, ok = cut(b, piece); !ok {
			break
		}
	}
	return b, ok
}

// cut is bytes.CutPrefix for a string prefix.
func cut(b []byte, prefix string) ([]byte, bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return b, false
	}
	return b[len(prefix):], true
}

// envelopeMid sits between the hex sum and the report payload.
const envelopeMid = `","report":`

// appendRecord appends key's envelope around a report payload, the
// bytes json.Marshal writes for the report.
func appendRecord(b []byte, key string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	b = appendHead(b, key)
	b = hex.AppendEncode(b, sum[:])
	b = append(b, envelopeMid...)
	b = append(b, payload...)
	return append(b, '}')
}

// EncodeRecord builds the self-describing envelope for a report — the
// exact bytes Dir persists. Envelope bytes are a pure function of (key,
// report), so every encoder of one result produces identical bytes.
func EncodeRecord(key string, rep *stats.Report) ([]byte, error) {
	payload, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("store: encode report: %w", err)
	}
	return appendRecord(make([]byte, 0, len(key)+len(payload)+128), key, payload), nil
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
	body, _ := bytes.CutSuffix(data, []byte{'\n'})
	rest, ok := cutHead(body, key)
	if !ok {
		return nil, errors.New("store: envelope does not match the schema and key")
	}
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

// keySum returns the SHA-256 of key, hashed from a stack copy: only a
// key longer than the buffer allocates.
func keySum(key string) [sha256.Size]byte {
	var buf [1024]byte
	return sha256.Sum256(append(buf[:0], key...))
}

// lineKeySum returns the SHA-256 of the key a log line's envelope
// names, or false when the line does not open with an envelope head. A
// key is hashed where it lies in the line; only one with JSON escapes
// is decoded first.
func lineKeySum(line []byte) (sum [sha256.Size]byte, ok bool) {
	rest, ok := cut(line, keyHead+`"`)
	if !ok {
		return sum, false
	}
	escaped := false
	for i := 0; i < len(rest); i++ {
		switch rest[i] {
		case '\\':
			escaped = true
			i++
		case '"':
			if !escaped {
				return sha256.Sum256(rest[:i]), true
			}
			var key string
			if json.Unmarshal(line[len(keyHead):len(keyHead)+i+2], &key) != nil {
				return sum, false
			}
			return keySum(key), true
		}
	}
	return sum, false
}

// catchUp indexes the complete lines the log holds past s.scanned and
// leaves s.scanned at the start of the first incomplete one: a record
// still being appended, or a torn write that the next append turns into
// a corrupt line. A later line for a key replaces the earlier one, and
// a line that names no key is counted corrupt. The lines are read
// through s.scan, which grows only to hold a line longer than itself.
// The caller holds s.mu.
func (s *Dir) catchUp() {
	for {
		if s.scan == nil {
			s.scan = make([]byte, scanChunk)
		}
		n, err := s.log.ReadAt(s.scan, s.scanned)
		data, done := s.scan[:n], 0
		for {
			i := bytes.IndexByte(data[done:], '\n')
			if i < 0 {
				break
			}
			if line := data[done : done+i]; len(line) > 0 {
				if sum, ok := lineKeySum(line); ok {
					s.index[sum] = span{s.scanned + int64(done), len(line)}
				} else {
					s.corrupt.Add(1)
				}
			}
			done += i + 1
		}
		s.scanned += int64(done)
		if err != nil { // the end of the log, or a failed read
			break
		}
		if done == 0 {
			s.scan = make([]byte, 2*len(s.scan))
		}
	}
	if len(s.scan) > scanChunk {
		s.scan = nil // a long line does not pin its buffer
	}
}

// Get returns the stored report for key (tier TierLocal), or TierMiss.
// A record that fails verification (schema, key, integrity hash, or
// malformed JSON) is reported as a miss — corruption is recomputed,
// never trusted.
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
// still counted): Do re-checks the record after taking the lock and
// must not inflate the counters. A key the index misses first makes it
// catch up with the log. A record that fails verification is dropped
// from the index, so the key misses until a newer line supersedes it.
func (s *Dir) load(key string) (*stats.Report, bool) {
	sum := keySum(key)
	s.mu.Lock()
	at, ok := s.index[sum]
	if !ok {
		s.catchUp()
		at, ok = s.index[sum]
	}
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	rep, err := s.readRecord(at, key)
	if err != nil {
		s.mu.Lock()
		if s.index[sum] == at {
			delete(s.index, sum)
			s.corrupt.Add(1)
		}
		s.mu.Unlock()
		return nil, false
	}
	return rep, true
}

// readBufs recycles the buffers records are read into. A decoded
// Report copies what it keeps, so a buffer is free again as soon as
// DecodeRecord returns.
var readBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

// readRecord reads and verifies the record at one span of the log.
func (s *Dir) readRecord(at span, key string) (*stats.Report, error) {
	buf := readBufs.Get().(*[]byte)
	if cap(*buf) < at.n {
		*buf = make([]byte, at.n)
	}
	data := (*buf)[:at.n]
	_, err := s.log.ReadAt(data, at.off)
	var rep *stats.Report
	if err == nil {
		rep, err = DecodeRecord(data, key)
	}
	if cap(data) <= 64<<10 { // an outsized record does not pin its buffer
		readBufs.Put(buf)
	}
	return rep, err
}

// lineBuf builds one log line. Put recycles them, so a write allocates
// nothing once the pool is warm.
type lineBuf struct {
	payload bytes.Buffer
	enc     *json.Encoder // writes json.Marshal's bytes and a newline into payload
	line    []byte
}

var lineBufs = sync.Pool{New: func() any {
	b := new(lineBuf)
	b.enc = json.NewEncoder(&b.payload)
	return b
}}

// Put appends the report's record to the log under key, between
// newlines and in one write. Readers see either no record or the
// complete one: a line is indexed only once its closing newline is in
// the log. Concurrent writers of one key write identical records
// (simulations are pure functions of their key), so which one a reader
// indexes is harmless.
//
// A Dir indexes its own appends: when the line starts where the index
// stops, Put indexes it and moves s.scanned past it, so a later miss
// reads nothing it wrote. When another process appended in between, or
// a lookup has already caught up past the line, s.scanned stays and
// catchUp reads or has read both lines.
func (s *Dir) Put(key string, rep *stats.Report) error {
	b := lineBufs.Get().(*lineBuf)
	defer lineBufs.Put(b)
	b.payload.Reset()
	if err := b.enc.Encode(rep); err != nil {
		return fmt.Errorf("store: encode report: %w", err)
	}
	payload := bytes.TrimSuffix(b.payload.Bytes(), []byte{'\n'})
	b.line = append(appendRecord(append(b.line[:0], '\n'), key, payload), '\n')
	s.appending.Lock()
	_, err := s.log.Write(b.line)
	end, seekErr := s.log.Seek(0, io.SeekCurrent)
	s.appending.Unlock()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.writes.Add(1)
	if seekErr != nil {
		return nil // the next miss reads the line instead
	}
	// A lookup holding the index leaves the line to the next catch-up:
	// waiting for it here parked Put for longer than reading the line
	// back costs.
	sum := keySum(key)
	if !s.mu.TryLock() {
		return nil
	}
	if start := end - int64(len(b.line)); start == s.scanned {
		s.index[sum] = span{start + 1, len(b.line) - 2}
		s.scanned = end
	}
	s.mu.Unlock()
	return nil
}

// Do returns the stored report for key, computing and persisting it
// with compute on a verified miss. The returned tier is TierLocal when
// the result was served from disk (by this call's own read — a compute
// that raced another process still reports TierMiss).
//
// Across processes Do is single-flight: key's lock elects one computer
// and the others poll for it, re-checking for the winner's record once
// they hold the lock. A compute that fails — including ctx cancellation
// — releases the lock without writing, so errors are never persisted
// and a cancelled run is recomputed by the next requester (the on-disk
// mirror of the session cache's forget-on-cancel rule).
//
// Do returns an error only from ctx or from compute itself: a failed
// record write degrades to a miss next time, never to a failed call —
// so callers may safely memoize what Do returns.
func (s *Dir) Do(ctx context.Context, key string, compute func() (*stats.Report, error)) (rep *stats.Report, tier Tier, err error) {
	// One logical lookup counts exactly one hit (served from disk at
	// either check below) or one miss (computed).
	if rep, ok := s.load(key); ok {
		s.hits.Add(1)
		return rep, TierLocal, nil
	}
	release, err := s.lock(ctx, key)
	if err != nil {
		return nil, TierMiss, err
	}
	defer release()
	// Re-check under the lock: the previous holder may have written it.
	if rep, ok := s.load(key); ok {
		s.hits.Add(1)
		return rep, TierLocal, nil
	}
	s.misses.Add(1)
	rep, err = compute()
	if err != nil {
		return nil, TierMiss, err
	}
	// A failed write degrades the store to a miss next time; the
	// computed result is still good.
	_ = s.Put(key, rep)
	return rep, TierMiss, nil
}

// lock takes key's lock, polling while another holder has it, and
// returns its release function, or ctx's error when cancelled while
// waiting.
func (s *Dir) lock(ctx context.Context, key string) (func(), error) {
	for {
		if release := s.TryLock(key); release != nil {
			return release, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(s.lockPoll):
		}
	}
}

// lockOffset is the byte of the locks file that is key's lock, taken
// from 48 bits of the key's SHA-256. Two keys that share a byte share a
// lock, which costs at worst a wait, never a wrong record.
func lockOffset(sum [sha256.Size]byte) int64 {
	return int64(binary.LittleEndian.Uint64(sum[:8]) & (1<<48 - 1))
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

// TryLock claims key's lock without blocking and returns its release
// function, which must be called once, or nil while another goroutine
// of this Dir, or another Dir or process, holds it. A lock the kernel
// cannot take for a reason other than a holder (a locks file that
// cannot be opened, a filesystem without byte-range locks) leaves the
// in-process exclusion alone in force.
func (s *Dir) TryLock(key string) (release func()) {
	off := lockOffset(keySum(key))
	s.mu.Lock()
	if s.held[off] {
		s.mu.Unlock()
		return nil
	}
	s.held[off] = true
	if s.locks == nil {
		s.locks, _ = os.OpenFile(filepath.Join(s.root, "locks"), os.O_RDWR|os.O_CREATE, 0o644)
	}
	locks := s.locks
	s.mu.Unlock()
	if !lockByte(locks, off) {
		s.mu.Lock()
		delete(s.held, off)
		s.mu.Unlock()
		return nil
	}
	return func() {
		// The kernel lock goes first: once off leaves the held set,
		// another goroutine may take it through the same descriptor.
		unlockByte(locks, off)
		s.mu.Lock()
		delete(s.held, off)
		s.mu.Unlock()
	}
}
