package report

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"afrixp/internal/timeseries"
)

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "Table 1", Header: []string{"VP", "5 ms", "10 ms"}}
	tb.AddRow("VP1", "4 (2)", "4 (2)")
	tb.AddRow("All VPs", "339 (6)")
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "All VPs") {
		t.Fatalf("output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Alignment: the second column starts at the same offset everywhere.
	hdrIdx := strings.Index(lines[1], "5 ms")
	rowIdx := strings.Index(lines[3], "4 (2)")
	if hdrIdx != rowIdx {
		t.Fatalf("misaligned: %d vs %d\n%s", hdrIdx, rowIdx, out)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	nan := timeseries.Missing
	a := timeseries.FromValues(0, 5*time.Minute, []float64{1.5, nan, 3.25})
	b := timeseries.FromValues(0, 5*time.Minute, []float64{nan, 2, nan})
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, []string{"near", "far"}, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "time,near,far" {
		t.Fatalf("header: %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("lines: %v", lines)
	}
	if !strings.HasSuffix(lines[1], ",1.500,") {
		t.Fatalf("row 1: %q", lines[1])
	}
	if !strings.HasSuffix(lines[2], ",,2.000") {
		t.Fatalf("row 2: %q", lines[2])
	}
}

func TestWriteSeriesCSVValidation(t *testing.T) {
	a := timeseries.FromValues(0, time.Minute, allMissing(1))
	b := timeseries.FromValues(0, 2*time.Minute, allMissing(1))
	if err := WriteSeriesCSV(&bytes.Buffer{}, []string{"x"}, a, b); err == nil {
		t.Fatal("name/series count mismatch must fail")
	}
	if err := WriteSeriesCSV(&bytes.Buffer{}, []string{"x", "y"}, a, b); err == nil {
		t.Fatal("grid mismatch must fail")
	}
	if err := WriteSeriesCSV(&bytes.Buffer{}, nil); err != nil {
		t.Fatal("empty call should be a no-op")
	}
}

func TestASCIIPlot(t *testing.T) {
	vs, ones := make([]float64, 48), make([]float64, 48)
	for i := range vs {
		vs[i], ones[i] = 2, 1
		if i%24 >= 9 && i%24 < 17 {
			vs[i] = 30
		}
	}
	s, flat := timeseries.FromValues(0, time.Hour, vs), timeseries.FromValues(0, time.Hour, ones)
	var buf bytes.Buffer
	err := ASCIIPlot(&buf, []string{"far", "near"}, []rune{'o', '.'}, 60, 10, s, flat)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "o") || !strings.Contains(out, ".") {
		t.Fatalf("markers missing:\n%s", out)
	}
	if !strings.Contains(out, "30.0") || !strings.Contains(out, "1.0") {
		t.Fatalf("scale labels missing:\n%s", out)
	}
	if !strings.Contains(out, "o = far") {
		t.Fatalf("legend missing:\n%s", out)
	}
}

func TestASCIIPlotValidation(t *testing.T) {
	vs := allMissing(4)
	s := timeseries.FromValues(0, time.Hour, vs)
	if err := ASCIIPlot(&bytes.Buffer{}, []string{"x"}, []rune{'o'}, 5, 2, s); err == nil {
		t.Fatal("tiny geometry must fail")
	}
	if err := ASCIIPlot(&bytes.Buffer{}, []string{"x"}, []rune{'o'}, 40, 8, s); err == nil {
		t.Fatal("all-missing series must fail")
	}
	vs[0] = 5
	s = timeseries.FromValues(0, time.Hour, vs)
	if err := ASCIIPlot(&bytes.Buffer{}, []string{"x"}, []rune{'o'}, 40, 8, s); err != nil {
		t.Fatalf("constant series should plot: %v", err)
	}
}

func TestRenderComparisons(t *testing.T) {
	var buf bytes.Buffer
	err := RenderComparisons(&buf, "Fig 1", []PaperComparison{
		{Experiment: "fig1", Metric: "A_w", Paper: "27.9 ms", Measured: "26.1 ms", ShapeHolds: true},
		{Experiment: "fig1", Metric: "weekend dip", Paper: "yes", Measured: "no", ShapeHolds: false, Note: "check"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "HOLDS") || !strings.Contains(out, "DIFFERS") {
		t.Fatalf("output:\n%s", out)
	}
}
