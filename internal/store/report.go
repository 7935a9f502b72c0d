package store

import (
	"errors"
	"math"
	"unicode/utf8"

	"mtvec/internal/stats"
)

// errReport is the one error the payload parser returns: the bytes are
// not what json.Marshal writes for a stats.Report.
var errReport = errors.New("store: report payload is not canonical")

// decodeReport parses a record's report payload. It accepts exactly the
// bytes json.Marshal(*stats.Report) writes, field by field in
// declaration order, and rejects anything else, however equivalent as
// JSON — the payload half of the package's one canonical envelope.
// Records are read far more often than written, and encoding/json's
// reflective decoding took about 40% of a record read.
//
// It is deliberately not a json.Unmarshaler on stats.Report: HTTP
// clients may send a Report as any valid JSON. A field added to Report,
// ThreadReport or Span must be added here too; the reflection test
// TestDecodeReportCoversEveryField fails until it is.
func decodeReport(b []byte) (*stats.Report, error) {
	p := reportParser{b: b}
	rep := new(stats.Report)
	p.lit(`{"Cycles":`)
	rep.Cycles = p.int64()
	p.lit(`,"Breakdown":[`)
	for s := range rep.Breakdown {
		if s > 0 {
			p.lit(`,`)
		}
		rep.Breakdown[s] = p.int64()
	}
	p.lit(`],"MemBusyCycles":`)
	rep.MemBusyCycles = p.int64()
	p.lit(`,"MemRequests":`)
	rep.MemRequests = p.int64()
	p.lit(`,"MemPorts":`)
	rep.MemPorts = p.int()
	p.lit(`,"VectorArithOps":`)
	rep.VectorArithOps = p.int64()
	p.lit(`,"VectorOps":`)
	rep.VectorOps = p.int64()
	p.lit(`,"Insts":`)
	rep.Insts = p.int64()
	p.lit(`,"LostDecode":`)
	rep.LostDecode = p.int64()
	p.lit(`,"Threads":`)
	if p.list() {
		rep.Threads = []stats.ThreadReport{}
		for p.next(len(rep.Threads)) {
			var t stats.ThreadReport
			p.lit(`{"Program":`)
			t.Program = p.str()
			p.lit(`,"Completions":`)
			t.Completions = p.int64()
			p.lit(`,"PartialInsts":`)
			t.PartialInsts = p.int64()
			p.lit(`,"Dispatched":`)
			t.Dispatched = p.int64()
			p.lit(`}`)
			rep.Threads = append(rep.Threads, t)
		}
	}
	p.lit(`,"Spans":`)
	if p.list() {
		rep.Spans = []stats.Span{}
		for p.next(len(rep.Spans)) {
			var s stats.Span
			p.lit(`{"Thread":`)
			s.Thread = p.int()
			p.lit(`,"Program":`)
			s.Program = p.str()
			p.lit(`,"Start":`)
			s.Start = p.int64()
			p.lit(`,"End":`)
			s.End = p.int64()
			p.lit(`}`)
			rep.Spans = append(rep.Spans, s)
		}
	}
	p.lit(`}`)
	if p.bad || p.i != len(b) {
		return nil, errReport
	}
	return rep, nil
}

// reportParser walks canonical JSON. The first mismatch sets bad, and
// every later step is then a no-op returning zero, so decodeReport
// checks once at the end.
type reportParser struct {
	b   []byte
	i   int
	bad bool
}

// lit consumes s verbatim.
func (p *reportParser) lit(s string) {
	if p.bad || len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		p.bad = true
		return
	}
	p.i += len(s)
}

// list consumes the start of a slice field: null (nil, reported false)
// or the opening bracket of an array (reported true).
func (p *reportParser) list() bool {
	if p.bad || p.i >= len(p.b) {
		p.bad = true
		return false
	}
	if p.b[p.i] == '[' {
		p.i++
		return true
	}
	p.lit(`null`)
	return false
}

// next reports whether another element follows, given how many were
// read: it consumes the separating comma, or the closing bracket.
func (p *reportParser) next(n int) bool {
	if p.bad || p.i >= len(p.b) {
		p.bad = true
		return false
	}
	if p.b[p.i] == ']' {
		p.i++
		return false
	}
	if n > 0 {
		p.lit(`,`)
	}
	return !p.bad
}

// int64 consumes an integer as strconv.AppendInt writes it: an
// optional minus sign and digits without a leading zero, no "-0", and
// within the int64 range.
func (p *reportParser) int64() int64 {
	return p.integer(math.MinInt64, math.MaxInt64)
}

// int is int64 for an int field, bounded by the platform's int.
func (p *reportParser) int() int {
	return int(p.integer(math.MinInt, math.MaxInt))
}

func (p *reportParser) integer(lo, hi int64) int64 {
	if p.bad {
		return 0
	}
	b, i := p.b, p.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		if u > (math.MaxUint64-9)/10 {
			p.bad = true // far beyond any int64
			return 0
		}
		u = u*10 + uint64(b[i]-'0')
	}
	digits := i - start
	if digits == 0 || (b[start] == '0' && (digits > 1 || neg)) {
		p.bad = true
		return 0
	}
	var v int64
	switch {
	case !neg && u <= uint64(hi):
		v = int64(u)
	case neg && u <= uint64(-(lo+1))+1:
		v = int64(-u) // two's complement; exact down to lo
	default:
		p.bad = true
		return 0
	}
	p.i = i
	return v
}

// str consumes a string as encoding/json writes it. Printable ASCII
// other than the quote, the backslash and the HTML bytes encoding/json
// escapes (<, >, &) stands for itself, and a name made only of such
// bytes — every program tag — is copied out directly. Anything else
// takes escapedStr.
func (p *reportParser) str() string {
	if p.bad || p.i >= len(p.b) || p.b[p.i] != '"' {
		p.bad = true
		return ""
	}
	b := p.b
	for i := p.i + 1; i < len(b); i++ {
		c := b[i]
		if c == '"' {
			s := string(b[p.i+1 : i])
			p.i = i + 1
			return s
		}
		if !plainByte(c) {
			return p.escapedStr()
		}
	}
	p.bad = true
	return ""
}

// plainByte reports whether encoding/json writes c as itself.
func plainByte(c byte) bool {
	return c >= 0x20 && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// escapedStr decodes a string token unit by unit, accepting each unit
// only in the form encoding/json writes it:
//   - a plain byte (plainByte) or a valid UTF-8 sequence other than
//     U+2028 and U+2029, as itself;
//   - \", \\, \b, \f, \n, \r and \t for those characters;
//   - \u00xx, in lower-case hex, for the other control bytes and for <,
//     > and &;
//   - \u2028 and \u2029 for those separators;
//   - \ufffd, which encoding/json writes for each byte of invalid UTF-8
//     and which decodes, as there, to U+FFFD.
func (p *reportParser) escapedStr() string {
	b := p.b
	out := make([]byte, 0, 16)
	for i := p.i + 1; i < len(b); {
		c := b[i]
		switch {
		case c == '"':
			p.i = i + 1
			return string(out)
		case plainByte(c):
			out = append(out, c)
			i++
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(b[i:])
			if (r == utf8.RuneError && n == 1) || r == '\u2028' || r == '\u2029' {
				p.bad = true
				return ""
			}
			out = append(out, b[i:i+n]...)
			i += n
		case c == '\\' && i+1 < len(b):
			if e := shortEscape(b[i+1]); e != 0 {
				out = append(out, e)
				i += 2
				continue
			}
			r, ok := unicodeEscape(b[i+1:])
			if !ok {
				p.bad = true
				return ""
			}
			out = utf8.AppendRune(out, r)
			i += 6
		default: // a raw control byte or HTML byte, or a cut-off escape
			p.bad = true
			return ""
		}
	}
	p.bad = true
	return ""
}

// shortEscape returns the character a two-byte escape \e stands for, or
// 0 when encoding/json does not write \e.
func shortEscape(e byte) byte {
	switch e {
	case '"', '\\':
		return e
	case 'b':
		return '\b'
	case 'f':
		return '\f'
	case 'n':
		return '\n'
	case 'r':
		return '\r'
	case 't':
		return '\t'
	}
	return 0
}

// unicodeEscape decodes u plus four lower-case hex digits at the start
// of b, and reports whether encoding/json writes that escape.
func unicodeEscape(b []byte) (rune, bool) {
	if len(b) < 5 || b[0] != 'u' {
		return 0, false
	}
	var r rune
	for _, c := range b[1:5] {
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		default:
			return 0, false
		}
	}
	switch {
	case r < 0x20:
		// \b, \f, \n, \r and \t have short escapes of their own.
		return r, r != '\b' && r != '\f' && r != '\n' && r != '\r' && r != '\t'
	case r == '<', r == '>', r == '&', r == '\u2028', r == '\u2029', r == utf8.RuneError:
		return r, true
	}
	return 0, false
}
