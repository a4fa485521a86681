package timeseries

import (
	"math"
	"testing"
	"time"

	"afrixp/internal/simclock"
)

// filled returns n values fn(0), ..., fn(n-1).
func filled(n int, fn func(i int) float64) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = fn(i)
	}
	return vs
}

func missing(int) float64 { return Missing }

// collect reads a series back into one slice through Each.
func collect(s *Series) []float64 {
	out := make([]float64, s.Len())
	s.Each(func(base int, vals []float64) { copy(out[base:], vals) })
	return out
}

func TestFromValuesAllMissing(t *testing.T) {
	s := FromValues(0, time.Minute, filled(10, missing))
	if s.Len() != 10 || s.PresentCount() != 0 {
		t.Fatalf("len %d present %d", s.Len(), s.PresentCount())
	}
}

func TestIndexAndTimeAt(t *testing.T) {
	start := simclock.Date(2016, time.March, 1)
	s := FromValues(start, 5*time.Minute, filled(288, missing))
	if got := s.Index(start.Add(12 * time.Minute)); got != 2 {
		t.Fatalf("Index = %d", got)
	}
	if got := s.TimeAt(2); got != start.Add(10*time.Minute) {
		t.Fatalf("TimeAt = %v", got)
	}
	if s.Index(start.Add(-time.Minute)) != -1 {
		t.Fatal("before start must be -1")
	}
	if s.Index(start.Add(24*time.Hour)) != -1 {
		t.Fatal("past end must be -1")
	}
}

func TestSlice(t *testing.T) {
	start := simclock.Date(2016, time.March, 1)
	s := FromValues(start, 5*time.Minute, filled(288, func(i int) float64 { return float64(i) }))
	sub := s.Slice(start.Add(time.Hour), start.Add(2*time.Hour))
	if sub.Len() != 12 {
		t.Fatalf("slice len = %d", sub.Len())
	}
	if v := collect(sub)[0]; v != 12 {
		t.Fatalf("slice start value = %v", v)
	}
	if sub.Start != start.Add(time.Hour) {
		t.Fatal("slice start time wrong")
	}
	// Degenerate and out-of-range slices are safe.
	if s.Slice(start.Add(100*time.Hour), start.Add(200*time.Hour)).Len() != 0 {
		t.Fatal("past-end slice should be empty")
	}
	if s.Slice(start.Add(2*time.Hour), start.Add(time.Hour)).Len() != 0 {
		t.Fatal("inverted slice should be empty")
	}
}

func TestAggregateMin(t *testing.T) {
	vs := filled(12, func(i int) float64 { return float64(10 + i%6) })
	vs[3] = Missing
	agg := FromValues(0, 5*time.Minute, vs).Aggregate(6, Min)
	if agg.Len() != 2 || agg.Step != 30*time.Minute {
		t.Fatalf("agg: len %d step %v", agg.Len(), agg.Step)
	}
	if got := collect(agg); got[0] != 10 || got[1] != 10 {
		t.Fatalf("agg values: %v", got)
	}
}

func TestAggregateAllMissingBin(t *testing.T) {
	vs := filled(12, missing)
	vs[7] = 5
	agg := collect(FromValues(0, 5*time.Minute, vs).Aggregate(6, Min))
	if !IsMissing(agg[0]) {
		t.Fatal("empty bin must stay missing")
	}
	if agg[1] != 5 {
		t.Fatal("second bin should carry the sample")
	}
}

func TestQuantileAndMedian(t *testing.T) {
	vs := []float64{5, 1, 3, 2, 4}
	if got := Quantile(vs, 0.5); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if Quantile(vs, 0) != 1 || Quantile(vs, 1) != 5 {
		t.Fatal("extreme quantiles wrong")
	}
	if got := Quantile(vs, 0.25); got != 2 {
		t.Fatalf("q25 = %v", got)
	}
	if !IsMissing(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile must be missing")
	}
	// Input must not be mutated.
	if vs[0] != 5 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestSummarize(t *testing.T) {
	vs := filled(100, func(i int) float64 { return float64(i) })
	vs[50] = Missing
	st := FromValues(0, 5*time.Minute, vs).SummarizeInto(&StatsScratch{})
	if st.N != 99 || st.Min != 0 || st.Max != 99 {
		t.Fatalf("stats: %+v", st)
	}
	if math.Abs(st.Mean-49.49) > 0.05 {
		t.Fatalf("mean = %v", st.Mean)
	}
	if st.Stddev <= 0 {
		t.Fatal("stddev must be positive")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st := FromValues(0, time.Minute, filled(5, missing)).SummarizeInto(&StatsScratch{})
	if st.N != 0 || !IsMissing(st.Mean) || !IsMissing(st.Min) {
		t.Fatalf("empty stats: %+v", st)
	}
}

func TestFoldDaily(t *testing.T) {
	// Three days of samples: value = hour of day. Folding by hour
	// should return the hour index per bin.
	start := simclock.Date(2016, time.March, 1)
	s := FromValues(start, 5*time.Minute, filled(3*288, func(i int) float64 {
		return math.Floor(start.Add(time.Duration(i) * 5 * time.Minute).HourOfDay())
	}))
	prof := s.FoldDaily(time.Hour, Mean)
	if len(prof) != 24 {
		t.Fatalf("profile bins = %d", len(prof))
	}
	for h, v := range prof {
		if v != float64(h) {
			t.Fatalf("bin %d = %v", h, v)
		}
	}
}

func TestFoldDailyPanicsOnBadBin(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromValues(0, time.Minute, filled(10, missing)).FoldDaily(7*time.Hour, Mean)
}

func TestMinMeanHelpers(t *testing.T) {
	if Min([]float64{3, 1, 2}) != 1 {
		t.Fatal("Min wrong")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
}
