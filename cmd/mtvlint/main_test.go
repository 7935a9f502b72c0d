package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestJSONSmoke drives run over the deliberately-broken testdata
// package and checks the machine-readable output end to end: exit
// status 1, a parseable array, and the expected single slotpair
// finding.
func TestJSONSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "./testdata/jsonsmoke"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	var findings []finding
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, stdout.String())
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %+v, want exactly one", findings)
	}
	f := findings[0]
	if f.Analyzer != "slotpair" {
		t.Errorf("analyzer = %q, want slotpair", f.Analyzer)
	}
	if !strings.HasSuffix(f.File, "j.go") || f.Line == 0 || f.Col == 0 {
		t.Errorf("position = %s:%d:%d, want a real j.go position", f.File, f.Line, f.Col)
	}
	if !strings.Contains(f.Message, "g.Acquire") {
		t.Errorf("message = %q, want the unmatched acquire named", f.Message)
	}
}

// TestTextOutput checks the default human format on the same fixture.
func TestTextOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"./testdata/jsonsmoke"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	line := strings.TrimSpace(stdout.String())
	if !strings.Contains(line, "slotpair:") || !strings.Contains(line, "j.go:") {
		t.Fatalf("text output = %q, want file:line:col: slotpair: message", line)
	}
}

// TestBadPattern pins the load-error exit status.
func TestBadPattern(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./no/such/dir"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if stderr.Len() == 0 {
		t.Fatal("load error produced no stderr")
	}
}

// TestCleanPackage: a package with no findings exits 0 and, in JSON
// mode, still emits a well-formed (empty) array.
func TestCleanPackage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0; stdout: %s stderr: %s", code, stdout.String(), stderr.String())
	}
	var findings []finding
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("clean JSON output invalid: %v\n%s", err, stdout.String())
	}
	if len(findings) != 0 {
		t.Fatalf("findings = %+v, want none", findings)
	}
}
