package report

import (
	"bytes"
	"strings"
	"testing"

	"mtvec/internal/stats"
)

func sample() *Table {
	t := NewTable("Sample", "prog", "cycles", "occ")
	t.AddRow("swm256", "12345", "0.81")
	t.AddRow("hy", "99", "0.92")
	return t
}

func TestRenderAligned(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Sample") {
		t.Errorf("missing title: %q", lines[0])
	}
	if !strings.Contains(lines[1], "prog") || !strings.Contains(lines[1], "occ") {
		t.Errorf("header: %q", lines[1])
	}
	// Column alignment: "cycles" column starts at the same offset in
	// every row.
	idx := strings.Index(lines[1], "cycles")
	if !strings.HasPrefix(lines[3][idx:], "12345") {
		t.Errorf("misaligned data row: %q", lines[3])
	}
}

func TestMarkdown(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().Markdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "| prog | cycles | occ |") {
		t.Errorf("markdown header missing:\n%s", out)
	}
	if !strings.Contains(out, "| --- | --- | --- |") {
		t.Errorf("markdown separator missing:\n%s", out)
	}
	if !strings.Contains(out, "| swm256 | 12345 | 0.81 |") {
		t.Errorf("markdown row missing:\n%s", out)
	}
}

func TestFormatters(t *testing.T) {
	if F(1.23456, 2) != "1.23" {
		t.Error("F broken")
	}
	if I(42) != "42" {
		t.Error("I broken")
	}
	if Pct(0.856) != "85.6%" {
		t.Error("Pct broken")
	}
}

func TestChartContainsSeriesAndScale(t *testing.T) {
	xs := []float64{1, 20, 40, 60, 80, 100}
	s := []Series{
		{Name: "baseline", Ys: []float64{10, 20, 30, 40, 50, 60}},
		{Name: "2 threads", Ys: []float64{12, 13, 14, 15, 16, 17}},
	}
	out := Chart("Fig", "latency", xs, s, 40, 10)
	if !strings.Contains(out, "baseline") || !strings.Contains(out, "2 threads") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "60") || !strings.Contains(out, "10") {
		t.Fatalf("y scale missing:\n%s", out)
	}
	if !strings.Contains(out, "o") || !strings.Contains(out, "x") {
		t.Fatalf("markers missing:\n%s", out)
	}
}

func TestChartDegenerate(t *testing.T) {
	if out := Chart("empty", "x", nil, nil, 30, 8); !strings.Contains(out, "no data") {
		t.Fatalf("empty chart: %q", out)
	}
	// Flat series must not divide by zero.
	out := Chart("flat", "x", []float64{0, 1}, []Series{{Name: "f", Ys: []float64{5, 5}}}, 30, 8)
	if !strings.Contains(out, "f") {
		t.Fatal("flat chart broken")
	}
}

func TestGantt(t *testing.T) {
	spans := []stats.Span{
		{Thread: 0, Program: "tf", Start: 0, End: 500},
		{Thread: 0, Program: "su", Start: 500, End: 1000},
		{Thread: 1, Program: "sw", Start: 0, End: 1000},
	}
	out := Gantt(spans, 40)
	if !strings.Contains(out, "ctx0") || !strings.Contains(out, "ctx1") {
		t.Fatalf("lanes missing:\n%s", out)
	}
	if !strings.Contains(out, "1000 cycles") {
		t.Fatalf("scale missing:\n%s", out)
	}
	if Gantt(nil, 40) != "(no spans)\n" {
		t.Fatal("empty gantt broken")
	}
}
