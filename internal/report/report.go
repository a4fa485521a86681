// Package report renders campaign results: aligned text tables
// (paper-vs-measured comparisons), CSV exports of time series (the
// figures' data), and quick ASCII time-series plots for terminal
// inspection of the RTT waveforms.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"afrixp/internal/timeseries"
)

// Table is a simple aligned text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row; cells beyond the header width are dropped,
// missing cells are blank.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the aligned table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteString("\n")
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteSeriesCSV exports one or more series sharing a grid: the first
// column is the sample timestamp, one column per series. Missing
// samples are empty cells. All series must share Start/Step; length
// may differ (short series pad with blanks).
func WriteSeriesCSV(w io.Writer, names []string, series ...*timeseries.Series) error {
	if len(names) != len(series) {
		return fmt.Errorf("report: %d names for %d series", len(names), len(series))
	}
	if len(series) == 0 {
		return nil
	}
	for _, s := range series[1:] {
		if s.Start != series[0].Start || s.Step != series[0].Step {
			return fmt.Errorf("report: series grids differ")
		}
	}
	if _, err := fmt.Fprintf(w, "time,%s\n", strings.Join(names, ",")); err != nil {
		return err
	}
	n := 0
	cols := make([][]float64, len(series))
	for k, s := range series {
		n = max(n, s.Len())
		cols[k] = make([]float64, s.Len())
		s.Each(func(base int, vals []float64) { copy(cols[k][base:], vals) })
	}
	for i := 0; i < n; i++ {
		cells := make([]string, 0, len(series)+1)
		cells = append(cells, series[0].TimeAt(i).Wall().Format("2006-01-02T15:04:05"))
		for _, col := range cols {
			if i < len(col) && !timeseries.IsMissing(col[i]) {
				cells = append(cells, fmt.Sprintf("%.3f", col[i]))
			} else {
				cells = append(cells, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// ASCIIPlot renders series as a (height × width) character plot:
// time on X (series resampled into width buckets by maximum), value
// on Y. Each series gets the corresponding marker rune.
func ASCIIPlot(w io.Writer, names []string, markers []rune, width, height int, series ...*timeseries.Series) error {
	if len(series) == 0 || width < 10 || height < 3 {
		return fmt.Errorf("report: bad plot geometry")
	}
	if len(markers) < len(series) || len(names) < len(series) {
		return fmt.Errorf("report: need a name and marker per series")
	}
	// Global scale.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		s.Each(func(_ int, vals []float64) {
			for _, v := range vals {
				if timeseries.IsMissing(v) {
					continue
				}
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
		})
	}
	if math.IsInf(lo, 1) {
		return fmt.Errorf("report: nothing to plot")
	}
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", width))
	}
	for si := len(series) - 1; si >= 0; si-- {
		for col, vmax := range columnMax(series[si], width) {
			if math.IsInf(vmax, -1) {
				continue
			}
			row := int((vmax - lo) / (hi - lo) * float64(height-1))
			if row < 0 {
				row = 0
			}
			if row > height-1 {
				row = height - 1
			}
			grid[height-1-row][col] = markers[si]
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%8.1f ┤%s\n", hi, string(grid[0]))
	for r := 1; r < height-1; r++ {
		fmt.Fprintf(&b, "%8s │%s\n", "", string(grid[r]))
	}
	fmt.Fprintf(&b, "%8.1f ┤%s\n", lo, string(grid[height-1]))
	fmt.Fprintf(&b, "%8s └%s\n", "", strings.Repeat("─", width))
	fmt.Fprintf(&b, "%9s %s  →  %s\n", "", series[0].TimeAt(0), series[0].TimeAt(series[0].Len()-1))
	for i := 0; i < len(series); i++ {
		fmt.Fprintf(&b, "%9s %c = %s\n", "", markers[i], names[i])
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// columnMax resamples s into width plot columns by maximum: column c
// covers slots [c*n/width, (c+1)*n/width), or the one slot c*n/width
// when that range is empty (a series shorter than the plot), and reads
// -Inf when it holds no present sample. The series is read once,
// through Each.
func columnMax(s *timeseries.Series, width int) []float64 {
	n := s.Len()
	out := make([]float64, width)
	for c := range out {
		out[c] = math.Inf(-1)
	}
	end := func(c int) int { return max((c+1)*n/width, c*n/width+1) }
	c := 0 // first column whose range has not ended before the slot
	s.Each(func(base int, vals []float64) {
		for k, v := range vals {
			i := base + k
			for end(c) <= i {
				c++
			}
			if timeseries.IsMissing(v) {
				continue
			}
			// Columns covering slot i are contiguous from c: both range
			// ends grow with the column.
			for d := c; d < width && d*n/width <= i; d++ {
				if v > out[d] {
					out[d] = v
				}
			}
		}
	})
	return out
}

// PaperComparison is one paper-vs-measured line in EXPERIMENTS.md
// style output.
type PaperComparison struct {
	Experiment string
	Metric     string
	Paper      string
	Measured   string
	ShapeHolds bool
	Note       string
}

// RenderComparisons prints comparison rows as a table.
func RenderComparisons(w io.Writer, title string, rows []PaperComparison) error {
	t := &Table{Title: title,
		Header: []string{"experiment", "metric", "paper", "measured", "shape", "note"}}
	for _, r := range rows {
		shape := "HOLDS"
		if !r.ShapeHolds {
			shape = "DIFFERS"
		}
		t.AddRow(r.Experiment, r.Metric, r.Paper, r.Measured, shape, r.Note)
	}
	return t.Render(w)
}
