package store

import (
	"bytes"
	"encoding/json"
	"os"
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
	"mode=1,|ws=tf@0.001+fp1f2e,|policy=default|ctx=1,",
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
// canonical envelope is a miss that Dir counts as Corrupt and deletes.
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
			data, err := os.ReadFile(s.path(key))
			if err != nil {
				t.Fatal(err)
			}
			bad := tc.rewrite(bytes.TrimSuffix(data, []byte{'\n'}))
			if bytes.Equal(bad, data) || bytes.Equal(bad, bytes.TrimSuffix(data, []byte{'\n'})) {
				t.Fatal("rewrite left the record canonical")
			}
			if err := os.WriteFile(s.path(key), bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, tier := s.Get(key); tier.Hit() {
				t.Fatal("non-canonical record served")
			}
			if st := s.Stats(); st.Corrupt != 1 || st.Misses != 1 {
				t.Errorf("stats %+v, want 1 corrupt miss", st)
			}
			if _, err := os.Stat(s.path(key)); !os.IsNotExist(err) {
				t.Error("non-canonical record not deleted")
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
