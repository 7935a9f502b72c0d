package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mtvec"
	"mtvec/internal/stats"
)

func TestRunSingleExperiment(t *testing.T) {
	for _, format := range []string{"text", "markdown"} {
		var buf bytes.Buffer
		if err := run(context.Background(), &buf, "table1,table2", 1e-4, format, 2, true, ""); err != nil {
			t.Errorf("format %s: %v", format, err)
		}
		if buf.Len() == 0 {
			t.Errorf("format %s: no output", format)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, "nope", 1e-4, "text", 1, true, ""); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("err = %v", err)
	}
	if err := run(context.Background(), &buf, "table1", 1e-4, "pdf", 1, true, ""); err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Errorf("err = %v", err)
	}
}

// TestWarmStoreByteIdenticalZeroSimulations is the tentpole acceptance
// check in miniature (CI runs the full -all version): a second pass of
// the suite subset over the same store directory must simulate nothing
// and render byte-identical output — the golden fixture doubles as the
// store's round-trip fixture.
func TestWarmStoreByteIdenticalZeroSimulations(t *testing.T) {
	const exps = "table2,fig5,fig9,fig10,ext-banks"
	dir := t.TempDir()
	var cold, warm bytes.Buffer
	if err := run(context.Background(), &cold, exps, 1e-4, "text", 4, true, dir); err != nil {
		t.Fatal(err)
	}
	// A fresh Env per run() call models a fresh process; only the store
	// directory is shared.
	if err := run(context.Background(), &warm, exps, 1e-4, "text", 4, true, dir); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Fatal("warm-store output differs from cold run")
	}
	if cold.Len() == 0 {
		t.Fatal("no output")
	}

	// Third pass, instrumented: the store must answer every run.
	st, err := mtvec.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	env := mtvec.NewEnv(1e-4)
	env.SetStore(st)
	var ids []mtvec.Experiment
	for _, id := range strings.Split(exps, ",") {
		ids = append(ids, *mtvec.ExperimentByID(id))
	}
	if _, stats, err := mtvec.RunExperiments(env, ids, 4); err != nil {
		t.Fatal(err)
	} else if stats.Simulations != 0 {
		t.Fatalf("warm store still simulated %d points", stats.Simulations)
	}
	if env.StoreHits() == 0 {
		t.Fatal("no store hits recorded")
	}
}

// TestParallelOutputByteIdentical is the acceptance check: the same
// experiment subset rendered with -jobs 1 and -jobs 8 must produce
// byte-identical stdout.
func TestParallelOutputByteIdentical(t *testing.T) {
	const exps = "table3,fig4,fig5,fig9,ext-banks,ext-regfile"
	var serial, parallel bytes.Buffer
	if err := run(context.Background(), &serial, exps, 1e-4, "text", 1, true, ""); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), &parallel, exps, 1e-4, "text", 8, true, ""); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatal("-jobs 8 output differs from -jobs 1")
	}
	if serial.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestCatalogListsEveryExperiment(t *testing.T) {
	var buf bytes.Buffer
	writeCatalog(&buf)
	out := buf.String()
	ids := []string{
		"table1", "table2", "table3",
		"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"ext-policies", "ext-ports", "ext-banks", "ext-issue", "ext-compiler",
		"ext-regfile", "ext-benchsuite",
	}
	for _, id := range ids {
		if !strings.Contains(out, "## `"+id+"`") {
			t.Errorf("catalog missing experiment %q", id)
		}
		if !strings.Contains(out, "-exp "+id) {
			t.Errorf("catalog missing regen command for %q", id)
		}
	}
	if !strings.Contains(out, "mtvbench -catalog") {
		t.Error("catalog missing its own regeneration note")
	}
}

// TestBenchDocMatchesCommitted regenerates the docs/BENCHMARKS.md
// generated section and diffs it against the committed document — the
// same freshness gate the CI golden job applies.
func TestBenchDocMatchesCommitted(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "BENCHMARKS.md"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeBenchDoc(&buf); err != nil {
		t.Fatal(err)
	}
	for _, marker := range []string{benchdocBegin, benchdocEnd} {
		if !strings.Contains(buf.String(), marker) {
			t.Fatalf("generated section missing marker %q", marker)
		}
	}
	if !bytes.Contains(doc, buf.Bytes()) {
		t.Fatal("docs/BENCHMARKS.md generated section is stale (run: go run ./cmd/mtvbench -benchdoc)")
	}
}

// TestGoldenPrefixByteIdentical is the arch-layer golden-equivalence
// gate in test form: every machine in the suite is now built through
// arch.ConvexC3400() (the default spec), and the rendered output must
// still match the committed docs/GOLDEN.txt byte for byte. Running the
// full suite here would double the CI golden job, so the test pins the
// leading experiments and leaves the full-file diff to that job; the
// golden file renders experiments in registry order, so a subset is an
// exact prefix.
func TestGoldenPrefixByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("golden prefix needs default-scale simulations")
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "docs", "GOLDEN.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, "table1,table2,table3,fig4,fig5", mtvec.DefaultScale, "text", 0, true, ""); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 || buf.Len() > len(golden) {
		t.Fatalf("prefix length %d vs golden %d", buf.Len(), len(golden))
	}
	if !bytes.Equal(buf.Bytes(), golden[:buf.Len()]) {
		t.Fatal("default arch spec no longer reproduces docs/GOLDEN.txt (run: go run ./cmd/mtvbench -golden)")
	}
	if n := stats.TimelineViolations(); n != 0 {
		t.Fatalf("%d busy interval(s) booked out of start order", n)
	}
}

func TestRunHonorsDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	var buf bytes.Buffer
	err := run(ctx, &buf, "table3", 1e-4, "text", 2, true, "")
	if err == nil || !strings.Contains(err.Error(), context.DeadlineExceeded.Error()) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("cancelled suite rendered output:\n%s", buf.String())
	}
}
