package loss

import (
	"math"
	"testing"
	"time"

	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
)

func TestBatchRate(t *testing.T) {
	b := Batch{Sent: 100, Lost: 25}
	if b.Rate() != 25 {
		t.Fatalf("rate = %v", b.Rate())
	}
	if (Batch{}).Rate() != 0 {
		t.Fatal("empty batch rate must be 0")
	}
}

func TestCollectorBatching(t *testing.T) {
	var c Collector
	for i := 0; i < 250; i++ {
		c.Record(simclock.Time(time.Duration(i)*time.Second), i%10 == 0)
	}
	batches := c.Batches()
	// 250 probes = 2 complete batches + 50-probe partial (included).
	if len(batches) != 3 {
		t.Fatalf("batches = %d", len(batches))
	}
	if batches[0].Sent != 100 || batches[0].Lost != 10 {
		t.Fatalf("batch 0: %+v", batches[0])
	}
	if batches[2].Sent != 50 {
		t.Fatalf("partial batch: %+v", batches[2])
	}
	if batches[1].Start != simclock.Time(100*time.Second) {
		t.Fatalf("batch 1 start = %v", batches[1].Start)
	}
}

func TestCollectorDropsTinyPartial(t *testing.T) {
	var c Collector
	for i := 0; i < 120; i++ {
		c.Record(simclock.Time(time.Duration(i)*time.Second), false)
	}
	if got := len(c.Batches()); got != 1 {
		t.Fatalf("20-probe partial should be dropped: %d batches", got)
	}
}

func TestSummarize(t *testing.T) {
	batches := []Batch{
		{Sent: 100, Lost: 0},
		{Sent: 100, Lost: 50},
		{Sent: 100, Lost: 10},
	}
	s := Summarize(batches)
	if s.Batches != 3 {
		t.Fatalf("batches = %d", s.Batches)
	}
	if s.MeanRate != 20 {
		t.Fatalf("mean = %v", s.MeanRate)
	}
	if s.MaxRate != 50 || s.MinRate != 0 {
		t.Fatalf("min/max = %v/%v", s.MinRate, s.MaxRate)
	}
	if math.Abs(s.FracLossy-2.0/3) > 1e-9 {
		t.Fatalf("fracLossy = %v", s.FracLossy)
	}
	if s.String() == "" {
		t.Fatal("String must render")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Batches != 0 || s.MeanRate != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}

func TestToSeries(t *testing.T) {
	start := simclock.Date(2016, time.July, 21)
	batches := []Batch{
		{Start: start, Sent: 100, Lost: 5},
		{Start: start.Add(100 * time.Second), Sent: 100, Lost: 20},
		{Start: start.Add(3 * time.Hour), Sent: 100, Lost: 1},
	}
	s, dropped := ToSeries(batches, start, 10*time.Minute, 24)
	if dropped != 0 {
		t.Fatalf("dropped = %d", dropped)
	}
	vals := gridValues(s)
	// Two batches fall into slot 0: the max rate wins.
	if vals[0] != 20 {
		t.Fatalf("slot 0 = %v", vals[0])
	}
	if vals[s.Index(start.Add(3*time.Hour))] != 1 {
		t.Fatal("late batch misplaced")
	}
	if !timeseries.IsMissing(vals[1]) {
		t.Fatal("empty slots must stay missing")
	}
}

// gridValues reads a series back through Each.
func gridValues(s *timeseries.Series) []float64 {
	out := make([]float64, 0, s.Len())
	s.Each(func(_ int, vals []float64) { out = append(out, vals...) })
	return out
}

func TestGridFor(t *testing.T) {
	iv := simclock.Interval{Start: 0, End: simclock.Time(24 * time.Hour)}
	start, step, n := GridFor(iv)
	// One slot past the 144 in-interval steps, for the trailing
	// partial batch.
	if start != 0 || step != 10*time.Minute || n != 145 {
		t.Fatalf("grid = %v %v %d", start, step, n)
	}
}

// TestToSeriesTrailingPartialBatch reproduces the dropped-batch bug:
// at 1 pps over a 20-minute window the collector flushes a full batch
// every 100 s, and the half-size trailing partial that Batches keeps
// starts exactly at the interval end. A grid cut at the end (the old
// GridFor) indexed it at −1 and silently discarded it.
func TestToSeriesTrailingPartialBatch(t *testing.T) {
	iv := simclock.Interval{Start: 0, End: simclock.Time(20 * time.Minute)}
	var c Collector
	for i := 0; i < 1250; i++ {
		c.Record(simclock.Time(time.Duration(i)*time.Second), i%5 == 0)
	}
	batches := c.Batches()
	if len(batches) != 13 {
		t.Fatalf("batches = %d", len(batches))
	}
	last := batches[len(batches)-1]
	if last.Start != simclock.Time(20*time.Minute) || last.Sent != 50 {
		t.Fatalf("trailing batch: %+v", last)
	}
	start, step, n := GridFor(iv)
	s, dropped := ToSeries(batches, start, step, n)
	if dropped != 0 {
		t.Fatalf("trailing partial batch dropped (%d)", dropped)
	}
	if timeseries.IsMissing(gridValues(s)[s.Index(last.Start)]) {
		t.Fatal("trailing partial batch missing from the grid")
	}
	// A deliberately short grid reports the drop instead of hiding it.
	if _, dropped := ToSeries(batches, start, step, n-1); dropped != 1 {
		t.Fatalf("short grid: dropped = %d, want 1", dropped)
	}
}
