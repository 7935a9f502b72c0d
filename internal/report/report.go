// Package report renders experiment results: aligned text tables,
// markdown and CSV writers, ASCII line charts for the paper's
// latency-sweep figures and a Gantt profile for Figure 9.
package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"mtvec/internal/stats"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Cell formats helpers. They use strconv directly — cells are formatted
// once per simulation point across every experiment table, and the
// reflection-driven fmt path showed up in build profiles.

// F formats a float with the given decimals.
func F(v float64, decimals int) string {
	return strconv.FormatFloat(v, 'f', decimals, 64)
}

// I formats an integer.
func I(v int64) string { return strconv.FormatInt(v, 10) }

// Pct formats a ratio as a percentage.
func Pct(v float64) string { return strconv.FormatFloat(100*v, 'f', 1, 64) + "%" }

func (t *Table) widths() []int {
	w := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		w[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(w) && len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := t.widths()
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, width := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for pad := width - len(c); pad > 0; pad-- {
				b.WriteByte(' ')
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i, width := range widths {
		sep[i] = strings.Repeat("-", width)
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// Markdown writes the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "**%s**\n\n", t.Title); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | ")); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | ")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		cells := make([]string, len(t.Columns))
		copy(cells, row)
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | ")); err != nil {
			return err
		}
	}
	return nil
}

// Series is one line of a chart.
type Series struct {
	Name string
	Ys   []float64
}

// Chart renders an ASCII line chart of the series over shared x values.
// Each series is drawn with its own marker; a legend follows.
func Chart(title, xlabel string, xs []float64, series []Series, width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	markers := "ox*+#@%&"
	var minY, maxY float64
	first := true
	for _, s := range series {
		for _, y := range s.Ys {
			if first {
				minY, maxY, first = y, y, false
				continue
			}
			if y < minY {
				minY = y
			}
			if y > maxY {
				maxY = y
			}
		}
	}
	if first {
		return title + "\n(no data)\n"
	}
	if maxY == minY {
		maxY = minY + 1
	}
	var minX, maxX float64 = xs[0], xs[0]
	for _, x := range xs {
		if x < minX {
			minX = x
		}
		if x > maxX {
			maxX = x
		}
	}
	if maxX == minX {
		maxX = minX + 1
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	plot := func(x, y float64, m byte) {
		col := int((x - minX) / (maxX - minX) * float64(width-1))
		row := int((maxY - y) / (maxY - minY) * float64(height-1))
		grid[row][col] = m
	}
	for si, s := range series {
		m := markers[si%len(markers)]
		for i, y := range s.Ys {
			if i < len(xs) {
				plot(xs[i], y, m)
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for i, row := range grid {
		label := ""
		switch i {
		case 0:
			label = fmt.Sprintf("%10.3g", maxY)
		case height - 1:
			label = fmt.Sprintf("%10.3g", minY)
		default:
			label = strings.Repeat(" ", 10)
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, row)
	}
	fmt.Fprintf(&b, "%s %-*s\n", strings.Repeat(" ", 10),
		width+2, fmt.Sprintf(" %.4g .. %.4g (%s)", minX, maxX, xlabel))
	for si, s := range series {
		fmt.Fprintf(&b, "%s %c = %s\n", strings.Repeat(" ", 10), markers[si%len(markers)], s.Name)
	}
	return b.String()
}

// Gantt renders Figure 9's execution profile: one lane per thread, one
// segment per program span.
func Gantt(spans []stats.Span, width int) string {
	if len(spans) == 0 {
		return "(no spans)\n"
	}
	if width < 20 {
		width = 20
	}
	var maxEnd stats.Cycle
	maxThread := 0
	for _, sp := range spans {
		if sp.End > maxEnd {
			maxEnd = sp.End
		}
		if sp.Thread > maxThread {
			maxThread = sp.Thread
		}
	}
	if maxEnd == 0 {
		maxEnd = 1
	}
	var b strings.Builder
	for th := 0; th <= maxThread; th++ {
		lane := []byte(strings.Repeat(".", width))
		for _, sp := range spans {
			if sp.Thread != th {
				continue
			}
			s := int(sp.Start * stats.Cycle(width) / maxEnd)
			e := int(sp.End * stats.Cycle(width) / maxEnd)
			if e <= s {
				e = s + 1
			}
			if e > width {
				e = width
			}
			tag := sp.Program
			for i := s; i < e && i < width; i++ {
				idx := i - s
				if idx < len(tag) {
					lane[i] = tag[idx]
				} else {
					lane[i] = '='
				}
			}
			if s < width {
				lane[s] = '|'
			}
		}
		fmt.Fprintf(&b, "ctx%d %s\n", th, lane)
	}
	fmt.Fprintf(&b, "     0 .. %d cycles\n", maxEnd)
	return b.String()
}
