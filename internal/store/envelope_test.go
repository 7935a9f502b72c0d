package store

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// record is the envelope as a generic JSON struct. Stores written
// before the canonical decoder existed encoded records with
// json.Marshal of this struct, so it pins the byte format they share.
type record struct {
	Schema int             `json:"schema"`
	Key    string          `json:"key"`
	Sum    string          `json:"sum"`
	Report json.RawMessage `json:"report"`
}

// escapingKeys need JSON escaping: quotes, backslashes, HTML-sensitive
// bytes (encoding/json escapes <, > and &), control bytes, non-ASCII
// and the line separators encoding/json always escapes.
var escapingKeys = []string{
	"plain",
	`quote"d`,
	`back\slash`,
	"<tag>&amp;",
	"tab\tnew\nline\x01",
	"ünïcödé·κλειδί·鍵",
	"sep\u2028par\u2029",
	"del\x7fbyte",
	"mode=1,|ws=tf@0.001+fp1f2e,|policy=default|ctx=1,",
	longKey,
}

// longKey is as long as a ten-program queue point's persist key, more
// than an envelope head's old stack buffer held.
var longKey = "mode=2,|ws=" + strings.Repeat("swm256@0.0001+fp0123456789abcdef,", 20) + "|policy=default|ctx=4,"

// TestKeyEncodingMatchesJSON: appendKey writes every one-byte key, and
// every byte between plain ones, exactly as encoding/json does.
func TestKeyEncodingMatchesJSON(t *testing.T) {
	for c := 0; c < 256; c++ {
		for _, key := range []string{string(rune(c)), string([]byte{byte(c)}), "a" + string([]byte{byte(c)}) + "b"} {
			want, _ := json.Marshal(key)
			if got := appendKey(nil, key); !bytes.Equal(got, want) {
				t.Errorf("key %q: appendKey %s, json.Marshal %s", key, got, want)
			}
		}
	}
}

// TestDecodeRecordAllocs: verifying a record's envelope copies nothing,
// so a record under a long key decodes with the allocations of one
// under a short key: its Report's.
func TestDecodeRecordAllocs(t *testing.T) {
	allocs := func(key string) float64 {
		data, err := EncodeRecord(key, sampleReport())
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := DecodeRecord(data, key); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs("k"), allocs(longKey); long != short {
		t.Errorf("a record under a %d-byte key allocates %.0f times, under a short key %.0f", len(longKey), long, short)
	}
}

func TestEnvelopeRoundTripEscapedKeys(t *testing.T) {
	want := sampleReport()
	for _, key := range escapingKeys {
		data, err := EncodeRecord(key, want)
		if err != nil {
			t.Fatal(err)
		}
		// Byte-identical to the generic encoding older stores hold.
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatalf("%q: envelope is not JSON: %v", key, err)
		}
		if rec.Key != key || rec.Schema != Schema {
			t.Fatalf("%q: envelope carries key %q schema %d", key, rec.Key, rec.Schema)
		}
		if generic, _ := json.Marshal(rec); !bytes.Equal(generic, data) {
			t.Fatalf("%q: envelope differs from json.Marshal:\n%s\n%s", key, data, generic)
		}
		for _, in := range [][]byte{data, append(append([]byte(nil), data...), '\n')} {
			got, err := DecodeRecord(in, key)
			if err != nil {
				t.Fatalf("%q: %v", key, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q: round trip differs", key)
			}
		}
		if _, err := DecodeRecord(data, key+"x"); err == nil {
			t.Fatalf("%q: record accepted under another key", key)
		}
	}
}

// nonCanonical rewrites a valid record into JSON that means the same
// envelope but is not the bytes EncodeRecord writes.
var nonCanonical = []struct {
	name    string
	rewrite func(data []byte) []byte
}{
	{"reordered-fields", func(data []byte) []byte {
		var rec record
		json.Unmarshal(data, &rec)
		out, _ := json.Marshal(struct {
			Key    string          `json:"key"`
			Schema int             `json:"schema"`
			Sum    string          `json:"sum"`
			Report json.RawMessage `json:"report"`
		}{rec.Key, rec.Schema, rec.Sum, rec.Report})
		return out
	}},
	{"extra-whitespace", func(data []byte) []byte {
		var buf bytes.Buffer
		json.Indent(&buf, data, "", " ")
		return buf.Bytes()
	}},
	{"leading-space", func(data []byte) []byte { return append([]byte(" "), data...) }},
	{"trailing-bytes", func(data []byte) []byte { return append(data, "\n\n"...) }},
	{"trailing-garbage", func(data []byte) []byte { return append(data, "{}"...) }},
	{"short-sum", func(data []byte) []byte {
		var rec record
		json.Unmarshal(data, &rec)
		rec.Sum = rec.Sum[:63]
		out, _ := json.Marshal(rec)
		return out
	}},
	{"upper-case-sum", func(data []byte) []byte {
		var rec record
		json.Unmarshal(data, &rec)
		rec.Sum = strings.ToUpper(rec.Sum)
		out, _ := json.Marshal(rec)
		return out
	}},
	{"unescaped-html-key", func(data []byte) []byte {
		return bytes.Replace(data, []byte(`\u003c`), []byte(`<`), 1)
	}},
}

// TestNonCanonicalEnvelopeIsCorrupt: valid JSON that is not the
// canonical envelope, found where a Dir indexed key's record, is a miss
// that the Dir counts as Corrupt and drops from its index.
func TestNonCanonicalEnvelopeIsCorrupt(t *testing.T) {
	const key = "k<1>"
	for _, tc := range nonCanonical {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(key, sampleReport()); err != nil {
				t.Fatal(err)
			}
			log, off, n := recordLine(t, s, key)
			data := log[off : off+n]
			bad := tc.rewrite(bytes.Clone(data))
			if bytes.Equal(bad, data) || bytes.Equal(bad, append(bytes.Clone(data), '\n')) {
				t.Fatal("rewrite left the record canonical")
			}
			replaceRecord(t, s, key, bad)
			if _, tier := s.Get(key); tier.Hit() {
				t.Fatal("non-canonical record served")
			}
			if st := s.Stats(); st.Corrupt != 1 || st.Misses != 1 {
				t.Errorf("stats %+v, want 1 corrupt miss", st)
			}
			if _, ok := s.index[keySum(key)]; ok {
				t.Error("non-canonical record not dropped from the index")
			}
		})
	}
}

// TestDecodeRecordRejectsInvalidUTF8Key: encoding/json rewrites invalid
// UTF-8, so a record can never echo such a key and must not verify.
func TestDecodeRecordRejectsInvalidUTF8Key(t *testing.T) {
	key := "bad\xffkey"
	data, err := EncodeRecord(key, sampleReport())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRecord(data, key); err == nil {
		t.Fatal("record under an invalid UTF-8 key verified")
	}
}

// FuzzDecodeRecord: DecodeRecord never panics, and whatever it accepts
// is exactly EncodeRecord(key, report), optionally followed by one
// newline.
func FuzzDecodeRecord(f *testing.F) {
	for _, key := range escapingKeys {
		data, err := EncodeRecord(key, sampleReport())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, key)
		f.Add(append(data, '\n'), key)
		f.Add(data, key+"x")
	}
	f.Add([]byte(`{"schema":1,"key":"k","sum":"deadbeef","report":{}}`), "k")
	f.Add([]byte(`{"schema":1,"key":"k","sum":"`), "k")
	f.Add([]byte{}, "")
	f.Fuzz(func(t *testing.T, data []byte, key string) {
		rep, err := DecodeRecord(data, key)
		if err != nil {
			return
		}
		enc, err := EncodeRecord(key, rep)
		if err != nil {
			t.Fatalf("accepted report does not re-encode: %v", err)
		}
		if !bytes.Equal(data, enc) && !bytes.Equal(data, append(enc, '\n')) {
			t.Fatalf("accepted non-canonical bytes:\n%q\ncanonical:\n%q", data, enc)
		}
	})
}
