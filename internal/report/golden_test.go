package report

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
)

// allMissing returns n missing samples.
func allMissing(n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = timeseries.Missing
	}
	return vs
}

// wave returns n samples of a daily-ish waveform with every seventh
// slot and slots [100, 130) missing, so plots and CSVs cover present
// cells, missing cells and, in a long series, all-missing columns.
func wave(n int, phase float64) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		if i%7 == 3 || (i >= 100 && i < 130) {
			vs[i] = timeseries.Missing
			continue
		}
		vs[i] = 5 + 20*math.Max(0, math.Sin(float64(i)/9+phase)) + float64(i%5)/8
	}
	return vs
}

// TestReportGolden pins the rendered bytes of plots and CSVs: a series
// longer than the plot (several slots per column), one shorter than it
// (columns share a slot), and a CSV whose second series is shorter
// than the first.
func TestReportGolden(t *testing.T) {
	start := simclock.Date(2016, 3, 1)
	long := timeseries.FromValues(start, 5*time.Minute, wave(300, 0))
	long2 := timeseries.FromValues(start, 5*time.Minute, wave(300, 1.5))
	short := timeseries.FromValues(start, time.Hour, wave(7, 0))
	short2 := timeseries.FromValues(start, time.Hour, wave(5, 2))
	names, markers := []string{"far", "near"}, []rune{'o', '.'}
	for _, tc := range []struct {
		golden string
		render func(*bytes.Buffer) error
	}{
		{"plot_long.golden", func(b *bytes.Buffer) error {
			return ASCIIPlot(b, names, markers, 40, 8, long, long2)
		}},
		{"plot_short.golden", func(b *bytes.Buffer) error {
			return ASCIIPlot(b, names, markers, 30, 6, short, short2)
		}},
		{"csv_short.golden", func(b *bytes.Buffer) error {
			return WriteSeriesCSV(b, names, short, short2)
		}},
	} {
		var b bytes.Buffer
		if err := tc.render(&b); err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), want) {
			t.Errorf("%s: got\n%s\nwant\n%s", tc.golden, b.Bytes(), want)
		}
	}
}
