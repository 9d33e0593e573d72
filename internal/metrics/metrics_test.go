package metrics

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/flcore"
)

func fakeResult() *flcore.Result {
	return &flcore.Result{History: []flcore.RoundRecord{
		{Round: 0, SimTime: 1, Acc: 0.1},
		{Round: 1, SimTime: 2, Acc: math.NaN()},
		{Round: 2, SimTime: 4, Acc: 0.5},
	}}
}

func TestAccuracyOverRoundsSkipsNaN(t *testing.T) {
	s := AccuracyOverRounds(fakeResult(), "test")
	if s.Len() != 2 {
		t.Fatalf("series has %d points, want 2", s.Len())
	}
	if s.X[1] != 2 || s.Y[1] != 0.5 {
		t.Fatalf("series = %+v", s)
	}
}

func TestAccuracyOverTimeUsesSimTime(t *testing.T) {
	s := AccuracyOverTime(fakeResult(), "test")
	if s.X[0] != 1 || s.X[1] != 4 {
		t.Fatalf("time axis = %v", s.X)
	}
}

func TestTableRenderAligned(t *testing.T) {
	tab := Table{Title: "T", Columns: []string{"policy", "time"}}
	tab.AddRow("vanilla", 12643.0)
	tab.AddRow("fast", 1750.0)
	out := tab.Render()
	if !strings.Contains(out, "== T ==") || !strings.Contains(out, "vanilla") {
		t.Fatalf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tab := Table{Columns: []string{"a", "b"}}
	tab.AddRow(`has,comma`, `has"quote`)
	csv := tab.CSV()
	if !strings.Contains(csv, `"has,comma"`) || !strings.Contains(csv, `"has""quote"`) {
		t.Fatalf("CSV quoting wrong:\n%s", csv)
	}
}

func TestFormatFloatCases(t *testing.T) {
	cases := map[float64]string{
		math.NaN(): "n/a",
		0.001:      "0.001",
		12345.0:    "12345",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestWriteCSVFile(t *testing.T) {
	dir := t.TempDir()
	tab := Table{Columns: []string{"x"}, Rows: [][]string{{"1"}}}
	path := filepath.Join(dir, "sub", "out.csv")
	if err := tab.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "x\n1\n" {
		t.Fatalf("file = %q", data)
	}
}

func TestBarChartScaling(t *testing.T) {
	out := BarChart("times", []string{"a", "b"}, []float64{10, 5}, 20)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	aBars := strings.Count(lines[1], "#")
	bBars := strings.Count(lines[2], "#")
	if aBars != 20 || bBars != 10 {
		t.Fatalf("bars = %d, %d; want 20, 10", aBars, bBars)
	}
}

func TestBarChartMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched labels/values did not panic")
		}
	}()
	BarChart("", []string{"a"}, []float64{1, 2}, 10)
}

func TestSeriesTableSampling(t *testing.T) {
	s1 := Series{Name: "one", X: []float64{0, 1, 2, 3}, Y: []float64{0.1, 0.2, 0.3, 0.4}}
	s2 := Series{Name: "two", X: []float64{0, 2}, Y: []float64{0.5, 0.6}}
	tab := SeriesTable("fig", []Series{s1, s2}, 4)
	if len(tab.Columns) != 3 {
		t.Fatalf("columns = %v", tab.Columns)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Last sampled row is x=3: series two holds its last value 0.6.
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "3" || last[2] != "0.6" {
		t.Fatalf("last row = %v", last)
	}
}

func TestSeriesTableEmpty(t *testing.T) {
	tab := SeriesTable("empty", nil, 5)
	if len(tab.Rows) != 0 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestValueAtStepInterpolation(t *testing.T) {
	s := Series{X: []float64{1, 3}, Y: []float64{0.2, 0.8}}
	if !math.IsNaN(valueAt(s, 0.5)) {
		t.Fatal("before first point must be NaN")
	}
	if valueAt(s, 2) != 0.2 {
		t.Fatalf("valueAt(2) = %v", valueAt(s, 2))
	}
	if valueAt(s, 3) != 0.8 {
		t.Fatalf("valueAt(3) = %v", valueAt(s, 3))
	}
}

func TestSeriesCSVLongForm(t *testing.T) {
	s := Series{Name: "a", X: []float64{1}, Y: []float64{0.5}}
	csv := SeriesCSV([]Series{s})
	if !strings.Contains(csv, "series,x,y") || !strings.Contains(csv, "a,1,0.5") {
		t.Fatalf("csv:\n%s", csv)
	}
}

func TestWriteSeriesCSVFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "series.csv")
	err := WriteSeriesCSVFile(path, []Series{{Name: "a", X: []float64{1}, Y: []float64{2}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}
