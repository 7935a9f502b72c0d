package lint

import (
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func TestDeterminism(t *testing.T) {
	runFixture(t, Determinism, "det/internal/core", "det/plain")
}

func TestKeyComplete(t *testing.T) {
	runFixture(t, KeyComplete, "keys/session", "keys/internal/arch")
}

// TestKeyCompleteBinary: with a text and a binary machine encoder, a
// field only one of them drops is still flagged, naming that encoder.
func TestKeyCompleteBinary(t *testing.T) {
	runFixture(t, KeyComplete, "keys/binary/session", "keys/binary/internal/arch")
}

func TestJoinedValidate(t *testing.T) {
	runFixture(t, JoinedValidate, "jv/internal/memsys", "jv/plain")
}

func TestObserverPure(t *testing.T) {
	runFixture(t, ObserverPure, "obs/internal/core", "obs/impl")
}

// TestRepoIsClean runs the whole suite over the actual module — the
// same gate CI applies via cmd/mtvlint. A finding here means either new
// code broke an invariant or an analyzer grew a false positive; both
// block the build on purpose.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the full module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, ix, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("Load matched no packages")
	}
	for _, d := range Run(pkgs, ix, All()) {
		t.Errorf("%s", d)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Analyzer: "determinism",
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Message:  "boom",
	}
	if got, want := d.String(), "x.go:3:7: determinism: boom"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestLookupPrefersExactThenLexical(t *testing.T) {
	ix := &Index{pkgs: map[string]*Package{
		"b/internal/arch": {Path: "b/internal/arch"},
		"a/internal/arch": {Path: "a/internal/arch"},
		"internal/arch":   {Path: "internal/arch"},
	}}
	if p := ix.Lookup("internal/arch"); p == nil || p.Path != "internal/arch" {
		t.Fatalf("exact lookup = %v", p)
	}
	delete(ix.pkgs, "internal/arch")
	// With only suffix matches left, ties must break lexically — never
	// by map iteration order.
	for i := 0; i < 10; i++ {
		if p := ix.Lookup("internal/arch"); p == nil || p.Path != "a/internal/arch" {
			t.Fatalf("suffix lookup = %v, want a/internal/arch", p)
		}
	}
	if p := ix.Lookup("no/such/pkg"); p != nil {
		t.Fatalf("missing lookup = %v, want nil", p)
	}
}

func TestAllowDirectiveParsing(t *testing.T) {
	ix := &Index{fset: token.NewFileSet(), allow: map[string]map[int][]string{
		"f.go": {10: {"determinism", "joinedvalidate"}},
	}}
	for _, tc := range []struct {
		analyzer string
		line     int
		want     bool
	}{
		{"determinism", 10, true},    // same line
		{"joinedvalidate", 11, true}, // directive directly above
		{"determinism", 12, false},   // too far below
		{"keycomplete", 10, false},   // different analyzer
		{"determinism", 9, false},    // directive below the diagnostic
	} {
		pos := token.Position{Filename: "f.go", Line: tc.line}
		if got := ix.Allowed(tc.analyzer, pos); got != tc.want {
			t.Errorf("Allowed(%s, line %d) = %v, want %v", tc.analyzer, tc.line, got, tc.want)
		}
	}
}

func TestAnalyzerNamesAreUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) != 4 {
		t.Fatalf("expected 4 analyzers, have %d", len(seen))
	}
}

func TestLoadRejectsBrokenPatterns(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(root, "./no/such/dir/..."); err == nil {
		t.Fatal("Load of a nonexistent pattern succeeded")
	} else if !strings.Contains(err.Error(), "go list") {
		t.Fatalf("unexpected error: %v", err)
	}
}
