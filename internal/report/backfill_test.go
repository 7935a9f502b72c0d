package report

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"mtvec/internal/stats"
)

// failAfter is a writer that accepts n writes and then fails, steering
// each renderer down every short-circuit return in turn.
type failAfter struct {
	n   int
	err error
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	w.n--
	return len(p), nil
}

// writeCount counts the writes a successful render performs, so the
// failure tests can enumerate every prefix.
func writeCount(render func(w *failAfter) error) int {
	probe := &failAfter{n: 1 << 20, err: errors.New("unreachable")}
	if err := render(probe); err != nil {
		panic(err)
	}
	return 1<<20 - probe.n
}

// TestRenderersPropagateWriteErrors drives Render and Markdown into
// a writer failing at every possible position: each must surface the
// writer's error rather than swallow it.
func TestRenderersPropagateWriteErrors(t *testing.T) {
	renderers := map[string]func(*failAfter) error{
		"render":   func(w *failAfter) error { return sample().Render(w) },
		"markdown": func(w *failAfter) error { return sample().Markdown(w) },
	}
	for name, render := range renderers {
		writes := writeCount(render)
		if writes == 0 {
			t.Fatalf("%s performed no writes", name)
		}
		for n := 0; n < writes; n++ {
			boom := errors.New("disk full")
			if err := render(&failAfter{n: n, err: boom}); !errors.Is(err, boom) {
				t.Errorf("%s with writer failing at write %d: err = %v, want propagated", name, n, err)
			}
		}
	}
}

// TestRenderUntitled: an empty title renders no title line and no blank
// markdown header.
func TestRenderUntitled(t *testing.T) {
	tbl := NewTable("", "a", "b")
	tbl.AddRow("1", "2")

	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n"); len(lines) != 3 {
		t.Errorf("untitled table rendered %d lines, want 3:\n%s", len(lines), buf.String())
	}

	buf.Reset()
	if err := tbl.Markdown(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(buf.String(), "**") {
		t.Errorf("untitled markdown emitted a title: %q", buf.String())
	}
}

// TestMarkdownPadsShortRows: rows narrower than the header still render
// one cell per column.
func TestMarkdownPadsShortRows(t *testing.T) {
	tbl := NewTable("T", "a", "b", "c")
	tbl.AddRow("1")
	var buf bytes.Buffer
	if err := tbl.Markdown(&buf); err != nil {
		t.Fatal(err)
	}
	last := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if got := last[len(last)-1]; strings.Count(got, "|") != 4 {
		t.Errorf("short row rendered %q, want 4 pipes", got)
	}
}

// TestChartClampsAndFlatSeries: undersized dimensions clamp to the
// minimum canvas, flat series and single x values get synthetic ranges,
// and every series still lands on the grid.
func TestChartClampsAndFlatSeries(t *testing.T) {
	out := Chart("flat", "x", []float64{5}, []Series{{Name: "s", Ys: []float64{2, 2}}}, 1, 1)
	if !strings.Contains(out, "flat") || !strings.Contains(out, "s") {
		t.Fatalf("degenerate chart missing title or legend:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if len(line) > 12+16+2+2 {
			t.Fatalf("clamped chart wider than the 16-column minimum: %q", line)
		}
	}
	if !strings.Contains(out, "o") {
		t.Errorf("flat series not plotted:\n%s", out)
	}
}

// TestChartNoData: series without points render the no-data placeholder.
func TestChartNoData(t *testing.T) {
	out := Chart("empty", "x", nil, []Series{{Name: "s"}}, 40, 8)
	if !strings.Contains(out, "(no data)") {
		t.Errorf("empty chart = %q", out)
	}
}

// TestGanttEdgeCases: zero-length spans still paint one cell with their
// start marker, long programs truncate into '=' fill, spans at the right
// edge stay inside the lane, and the empty profile short-circuits.
func TestGanttEdgeCases(t *testing.T) {
	if out := Gantt(nil, 40); !strings.Contains(out, "no spans") {
		t.Errorf("empty gantt = %q", out)
	}
	spans := []stats.Span{
		{Thread: 0, Program: "longname", Start: 0, End: 100},
		{Thread: 1, Program: "z", Start: 50, End: 50}, // zero-length mid-lane
	}
	out := Gantt(spans, 10) // width clamps up to 20
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("gantt lanes = %d, want ctx0+ctx1+scale:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "=") || !strings.Contains(lines[0], "|") {
		t.Errorf("long span not painted with tag+fill: %q", lines[0])
	}
	if !strings.Contains(lines[1], "|") {
		t.Errorf("zero-length span at the edge left no mark: %q", lines[1])
	}
	if len(lines[0]) != len(lines[1]) {
		t.Errorf("lanes differ in width: %q vs %q", lines[0], lines[1])
	}
}

// TestGanttZeroEnd: all-zero spans must not divide by zero.
func TestGanttZeroEnd(t *testing.T) {
	out := Gantt([]stats.Span{{Thread: 0, Program: "p", Start: 0, End: 0}}, 20)
	if !strings.Contains(out, "ctx0") {
		t.Errorf("zero-cycle gantt = %q", out)
	}
}
