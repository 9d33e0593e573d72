// Package metrics turns federated training results into the artifacts the
// paper reports: accuracy-over-rounds and accuracy-over-time series
// (Figs. 1b, 3–6, 8, 9), training-time bar charts (Figs. 3a/b, 5a/b, 7, 9a),
// and comparison tables (Table 2), with ASCII and CSV renderers so
// cmd/tifl-bench can print paper-shaped output and persist raw data.
package metrics

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/flcore"
)

// Series is one named line of a figure: y values over x positions.
type Series struct {
	Name string
	X, Y []float64
}

// Len returns the number of points.
func (s Series) Len() int { return len(s.X) }

// AccuracyOverRounds extracts the evaluated (round, accuracy) points from a
// training result — the x-axis of the paper's accuracy-over-rounds plots.
func AccuracyOverRounds(res *flcore.Result, name string) Series {
	s := Series{Name: name}
	for _, rec := range res.History {
		if !math.IsNaN(rec.Acc) {
			s.X = append(s.X, float64(rec.Round))
			s.Y = append(s.Y, rec.Acc)
		}
	}
	return s
}

// AccuracyOverTime extracts the evaluated (simulated seconds, accuracy)
// points — the x-axis of the paper's accuracy-over-wall-clock plots
// (Figs. 3e/f, 6e/f).
func AccuracyOverTime(res *flcore.Result, name string) Series {
	s := Series{Name: name}
	for _, rec := range res.History {
		if !math.IsNaN(rec.Acc) {
			s.X = append(s.X, rec.SimTime)
			s.Y = append(s.Y, rec.Acc)
		}
	}
	return s
}

// Table is a titled grid of cells rendered as aligned ASCII or CSV.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends one formatted row; values are rendered with %v, floats
// with 4 significant digits.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	av := math.Abs(v)
	switch {
	case av != 0 && av < 0.01:
		return fmt.Sprintf("%.3g", v)
	case av >= 10000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// Render returns the table as aligned ASCII with a title rule.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := len(t.Columns)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV returns the table in RFC-4180-ish CSV (cells containing commas or
// quotes are quoted).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteString(`"` + strings.ReplaceAll(cell, `"`, `""`) + `"`)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// WriteCSVFile writes the table's CSV to path, creating parent directories.
func (t *Table) WriteCSVFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	return os.WriteFile(path, []byte(t.CSV()), 0o644)
}

// BarChart renders named values as horizontal ASCII bars scaled to width,
// the stand-in for the paper's training-time bar figures.
func BarChart(title string, labels []string, values []float64, width int) string {
	if len(labels) != len(values) {
		panic(fmt.Sprintf("metrics: %d labels vs %d values", len(labels), len(values)))
	}
	if width <= 0 {
		width = 40
	}
	maxV := 0.0
	maxL := 0
	for i, v := range values {
		if v > maxV {
			maxV = v
		}
		if len(labels[i]) > maxL {
			maxL = len(labels[i])
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "== %s ==\n", title)
	}
	for i, v := range values {
		n := 0
		if maxV > 0 {
			n = int(v / maxV * float64(width))
		}
		fmt.Fprintf(&b, "%-*s | %s %s\n", maxL, labels[i], strings.Repeat("#", n), formatFloat(v))
	}
	return b.String()
}

// SeriesTable samples each series at `points` evenly spaced x positions
// (by index) and lays them side by side — a text rendition of a multi-line
// figure.
func SeriesTable(title string, series []Series, points int) Table {
	t := Table{Title: title, Columns: []string{"x"}}
	for _, s := range series {
		t.Columns = append(t.Columns, s.Name)
	}
	if points <= 0 {
		points = 10
	}
	// Use the densest series' x positions as the sample grid.
	ref := 0
	for i, s := range series {
		if s.Len() > series[ref].Len() {
			ref = i
		}
	}
	if len(series) == 0 || series[ref].Len() == 0 {
		return t
	}
	refX := series[ref].X
	step := float64(len(refX)-1) / float64(points-1)
	if len(refX) == 1 || points == 1 {
		step = 0
	}
	for p := 0; p < points; p++ {
		idx := int(float64(p)*step + 0.5)
		if idx >= len(refX) {
			idx = len(refX) - 1
		}
		x := refX[idx]
		row := []string{formatFloat(x)}
		for _, s := range series {
			row = append(row, formatFloat(valueAt(s, x)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// valueAt returns the series' last y at or before x (NaN before the first
// point) — step interpolation, matching how accuracy-over-time is read.
func valueAt(s Series, x float64) float64 {
	out := math.NaN()
	for i, xi := range s.X {
		if xi > x {
			break
		}
		out = s.Y[i]
	}
	return out
}

// SeriesCSV renders series as long-form CSV (series, x, y).
func SeriesCSV(series []Series) string {
	t := Table{Columns: []string{"series", "x", "y"}}
	for _, s := range series {
		for i := range s.X {
			t.AddRow(s.Name, s.X[i], s.Y[i])
		}
	}
	return t.CSV()
}

// WriteSeriesCSVFile writes long-form series CSV to path.
func WriteSeriesCSVFile(path string, series []Series) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	return os.WriteFile(path, []byte(SeriesCSV(series)), 0o644)
}
