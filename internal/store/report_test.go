package store

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mtvec/internal/stats"
)

// awkwardNames are program names encoding/json must escape or check:
// quotes, backslashes, HTML bytes, control bytes, DEL, non-ASCII, the
// line separators it always escapes, U+FFFD itself and invalid UTF-8
// (which it writes as \ufffd).
var awkwardNames = []string{
	"tf",
	`quo"te`,
	`back\slash`,
	"<tag>&amp;",
	"ctl\x00\x01\b\f\n\r\t\x1f\x7f",
	"ünïcödé·κλειδί·鍵·\U0001F642",
	"sep\u2028par\u2029",
	"repl\ufffdchar",
	"bad\xffutf8\xc3",
	`\u0041 not an escape`,
}

// fillNonzero sets every field reachable from v to a random nonzero
// value: integers anywhere in their range, strings from awkwardNames,
// slices of one to four elements. It fails on a kind it does not know,
// so a field of a new kind cannot slip past the tests built on it.
func fillNonzero(t testing.TB, rng *rand.Rand, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		var n int64
		switch rng.Intn(4) {
		case 0:
			n = math.MaxInt64
		case 1:
			n = math.MinInt64
		default:
			n = rng.Int63() - rng.Int63()
		}
		if v.OverflowInt(n) {
			n = int64(int32(n))
		}
		if n == 0 {
			n = 1
		}
		v.SetInt(n)
	case reflect.String:
		v.SetString(awkwardNames[rng.Intn(len(awkwardNames))])
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillNonzero(t, rng, v.Index(i))
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1+rng.Intn(4), 4)
		for i := 0; i < s.Len(); i++ {
			fillNonzero(t, rng, s.Index(i))
		}
		v.Set(s)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonzero(t, rng, v.Field(i))
		}
	default:
		t.Fatalf("fillNonzero: field kind %s is new; teach decodeReport and this test about it", v.Kind())
	}
}

// checkDecode asserts that decodeReport accepts json.Marshal(rep) and
// returns exactly what json.Unmarshal returns for those bytes.
func checkDecode(t *testing.T, rep *stats.Report) {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeReport(data)
	if err != nil {
		t.Fatalf("decodeReport rejected json.Marshal's bytes: %v\n%s", err, data)
	}
	want := new(stats.Report)
	if err := json.Unmarshal(data, want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeReport differs from json.Unmarshal:\ngot  %#v\nwant %#v\nfrom %s", got, want, data)
	}
}

// TestDecodeReportMatchesUnmarshal: random Reports with every field
// nonzero, with nil and empty slices, and with awkward program names
// decode exactly as json.Unmarshal decodes them.
func TestDecodeReportMatchesUnmarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		rep := new(stats.Report)
		fillNonzero(t, rng, reflect.ValueOf(rep).Elem())
		switch i % 5 {
		case 1:
			rep.Threads = nil
		case 2:
			rep.Spans = []stats.Span{}
		case 3:
			rep.Threads, rep.Spans = []stats.ThreadReport{}, nil
		}
		checkDecode(t, rep)
	}
	checkDecode(t, &stats.Report{})
	checkDecode(t, sampleReport())
	for _, name := range append([]string{""}, awkwardNames...) {
		rep := sampleReport()
		rep.Threads[1].Program = name
		rep.Spans[0].Program = name
		checkDecode(t, rep)
	}
}

// TestDecodeReportCoversEveryField sets each field of Report, and of
// the ThreadReport and Span elements of its slices, alone to a nonzero
// value, which must decode as json.Unmarshal decodes it and come back
// nonzero. A field added to any of the three types without a matching
// line in decodeReport fails here — without this test it would turn
// every record read into a corrupt-record delete.
func TestDecodeReportCoversEveryField(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// field returns field i of rep, or field j of the first element of
	// field i when j >= 0, growing that slice to one element if grow.
	field := func(rep *stats.Report, i, j int, grow bool) reflect.Value {
		v := reflect.ValueOf(rep).Elem().Field(i)
		if j < 0 {
			return v
		}
		if grow {
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		}
		return v.Index(0).Field(j)
	}
	check := func(name string, i, j int) {
		t.Run(name, func(t *testing.T) {
			rep := new(stats.Report)
			fillNonzero(t, rng, field(rep, i, j, true))
			checkDecode(t, rep)
			data, _ := json.Marshal(rep)
			got, _ := decodeReport(data)
			if field(got, i, j, false).IsZero() {
				t.Fatalf("%s does not survive a round trip", name)
			}
		})
	}
	typ := reflect.TypeOf(stats.Report{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() == reflect.Slice && f.Type.Elem().Kind() == reflect.Struct {
			elem := f.Type.Elem()
			for j := 0; j < elem.NumField(); j++ {
				check(f.Name+"."+elem.Field(j).Name, i, j)
			}
			continue
		}
		check(f.Name, i, -1)
	}
}

// TestDecodeReportRejectsNonCanonical: JSON that means the same report
// as json.Marshal's bytes, or nearly, but is not those bytes, is
// rejected.
func TestDecodeReportRejectsNonCanonical(t *testing.T) {
	good, err := json.Marshal(sampleReport())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeReport(good); err != nil {
		t.Fatal(err)
	}
	edit := func(old, new string) []byte {
		if !bytes.Contains(good, []byte(old)) {
			t.Fatalf("sample payload lacks %q", old)
		}
		return bytes.Replace(good, []byte(old), []byte(new), 1)
	}
	var indented bytes.Buffer
	json.Indent(&indented, good, "", " ")
	cases := map[string][]byte{
		"empty":             {},
		"indented":          indented.Bytes(),
		"leading-space":     append([]byte(" "), good...),
		"trailing-newline":  append(append([]byte(nil), good...), '\n'),
		"trailing-garbage":  append(append([]byte(nil), good...), "{}"...),
		"truncated":         good[:len(good)-1],
		"plus-sign":         edit(`"Cycles":123456`, `"Cycles":+123456`),
		"leading-zero":      edit(`"Cycles":123456`, `"Cycles":0123456`),
		"minus-zero":        edit(`"Start":0`, `"Start":-0`),
		"fraction":          edit(`"Cycles":123456`, `"Cycles":123456.0`),
		"exponent":          edit(`"Cycles":123456`, `"Cycles":1.23456e5`),
		"overflow":          edit(`"Cycles":123456`, `"Cycles":9223372036854775808`),
		"underflow":         edit(`"Cycles":123456`, `"Cycles":-9223372036854775809`),
		"huge":              edit(`"Cycles":123456`, `"Cycles":123456789012345678901234567890`),
		"quoted-number":     edit(`"Cycles":123456`, `"Cycles":"123456"`),
		"lower-case-field":  edit(`"Cycles"`, `"cycles"`),
		"reordered":         edit(`"MemBusyCycles":999,"MemRequests":888`, `"MemRequests":888,"MemBusyCycles":999`),
		"missing-field":     edit(`,"LostDecode":44`, ``),
		"extra-field":       edit(`,"LostDecode":44`, `,"LostDecode":44,"Extra":1`),
		"short-breakdown":   edit(`[10,20,30,40,50,60,70,80]`, `[10,20,30,40,50,60,70]`),
		"long-breakdown":    edit(`[10,20,30,40,50,60,70,80]`, `[10,20,30,40,50,60,70,80,90]`),
		"trailing-comma":    edit(`"Dispatched":444}]`, `"Dispatched":444},]`),
		"leading-comma":     edit(`"Threads":[{`, `"Threads":[,{`),
		"null-element":      edit(`"Spans":[{`, `"Spans":[null,{`),
		"escaped-plain":     edit(`"Program":"tf"`, `"Program":"\u0074f"`),
		"escaped-slash":     edit(`"Program":"tf"`, `"Program":"t\/f"`),
		"upper-hex-escape":  edit(`"Program":"tf"`, `"Program":"t\u003Cf"`),
		"raw-html":          edit(`"Program":"tf"`, `"Program":"t<f"`),
		"raw-control":       edit(`"Program":"tf"`, "\"Program\":\"t\tf\""),
		"long-form-tab":     edit(`"Program":"tf"`, `"Program":"t\u0009f"`),
		"raw-line-sep":      edit(`"Program":"tf"`, "\"Program\":\"t\u2028f\""),
		"invalid-utf8":      edit(`"Program":"tf"`, "\"Program\":\"t\xfff\""),
		"surrogate-escape":  edit(`"Program":"tf"`, `"Program":"t\ud83d\ude42f"`),
		"unknown-escape":    edit(`"Program":"tf"`, `"Program":"t\qf"`),
		"cut-escape":        edit(`"Program":"tf"`, `"Program":"t\u00"`),
		"unterminated-name": good[:bytes.Index(good, []byte(`"Program":"tf"`))+13],
		"null-name":         edit(`"Program":"tf"`, `"Program":null`),
		"null-report-slice": edit(`"Threads":[`, `"Threads":nul[`),
	}
	for name, data := range cases {
		if rep, err := decodeReport(data); err == nil {
			t.Errorf("%s: accepted %q as %+v", name, data, rep)
		}
	}
}

// FuzzDecodeReport: decodeReport never panics, and whatever it accepts
// is bytes json.Marshal writes for the report it returns, which is the
// report json.Unmarshal returns for them. One allowance: json.Marshal
// writes \ufffd for each byte of invalid UTF-8, which both decoders
// read back as U+FFFD, so each such escape re-marshals as the raw rune.
// FuzzDecodeRecord cannot reach the parser with anything but valid
// payloads: the envelope's SHA-256 stands in front of it.
func FuzzDecodeReport(f *testing.F) {
	for _, rep := range []*stats.Report{{}, sampleReport(), {Threads: []stats.ThreadReport{}, Spans: []stats.Span{}}} {
		data, err := json.Marshal(rep)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4; i++ {
		rep := new(stats.Report)
		fillNonzero(f, rng, reflect.ValueOf(rep).Elem())
		data, err := json.Marshal(rep)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := decodeReport(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if want := rawReplacementChars(data); !bytes.Equal(enc, want) {
			t.Fatalf("accepted bytes json.Marshal does not write:\n%q\nre-marshalled:\n%q", data, enc)
		}
		var std stats.Report
		if err := json.Unmarshal(data, &std); err != nil {
			t.Fatalf("accepted bytes json.Unmarshal rejects: %v\n%q", err, data)
		}
		if !reflect.DeepEqual(rep, &std) {
			t.Fatalf("decodeReport and json.Unmarshal disagree on %q:\n%#v\n%#v", data, rep, &std)
		}
	})
}

// rawReplacementChars rewrites each \ufffd escape inside the JSON
// strings of data as the raw UTF-8 of U+FFFD, leaving every other byte
// and escape alone.
func rawReplacementChars(data []byte) []byte {
	var out []byte
	inString := false
	for i := 0; i < len(data); i++ {
		c := data[i]
		switch {
		case !inString:
			inString = c == '"'
		case c == '"':
			inString = false
		case c == '\\' && bytes.HasPrefix(data[i:], []byte(`\ufffd`)):
			out = append(out, "\ufffd"...)
			i += len(`\ufffd`) - 1
			continue
		case c == '\\' && i+1 < len(data):
			out = append(out, c)
			c = data[i+1]
			i++
		}
		out = append(out, c)
	}
	return out
}
