package timeseries

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"afrixp/internal/simclock"
)

// randomSeries builds values shaped like collector output — a regular
// grid with missing runs, repeated floors, and moving values — and the
// series sealed from them.
func randomSeries(rng *rand.Rand) ([]float64, *Series) {
	n := rng.Intn(1200) // spans several 256-slot blocks at the top end
	start := simclock.Time(rng.Intn(10_000)) * simclock.Time(time.Second)
	vals := filled(n, missing)
	floor := 1 + rng.Float64()*50
	for i := range vals {
		switch rng.Intn(5) {
		case 0: // missing
		case 1:
			vals[i] = floor
		default:
			vals[i] = floor + rng.Float64()*100
		}
	}
	return vals, FromValues(start, 30*time.Minute, vals)
}

// present is the oracle for Present: the non-missing values in order.
func present(vals []float64) []float64 {
	out := []float64{}
	for _, v := range vals {
		if !IsMissing(v) {
			out = append(out, v)
		}
	}
	return out
}

// aggregate is the oracle for Aggregate: fn over each bin's present
// values, missing for a bin without any.
func aggregate(vals []float64, factor int, fn func([]float64) float64) []float64 {
	out := filled((len(vals)+factor-1)/factor, missing)
	for j := range out {
		hi := min((j+1)*factor, len(vals))
		if bin := present(vals[j*factor : hi]); len(bin) > 0 {
			out[j] = fn(bin)
		}
	}
	return out
}

// foldDaily is the oracle for FoldDaily over vals sampled from start
// every step.
func foldDaily(vals []float64, start simclock.Time, step, binWidth simclock.Duration, fn func([]float64) float64) []float64 {
	nBins := int(24 * time.Hour / binWidth)
	bins := make([][]float64, nBins)
	for i, v := range vals {
		if !IsMissing(v) {
			b := start.Add(time.Duration(i)*step).SecondOfDay() / int(binWidth/time.Second)
			bins[b] = append(bins[b], v)
		}
	}
	out := filled(nBins, missing)
	for b, vs := range bins {
		if len(vs) > 0 {
			out[b] = fn(vs)
		}
	}
	return out
}

// summarize is the oracle for SummarizeInto: each statistic computed on
// its own, the quantiles by a fresh clone and sort each.
func summarize(vals []float64) Stats {
	vs := present(vals)
	st := Stats{N: len(vs), Min: Missing, Max: Missing, Mean: Missing,
		Median: Quantile(vs, 0.5), P5: Quantile(vs, 0.05), P95: Quantile(vs, 0.95), Stddev: Missing}
	if len(vs) == 0 {
		return st
	}
	st.Min, st.Max = vs[0], vs[0]
	var sum float64
	for _, v := range vs {
		st.Min, st.Max = math.Min(st.Min, v), math.Max(st.Max, v)
		sum += v
	}
	st.Mean = sum / float64(len(vs))
	var ss float64
	for _, v := range vs {
		ss += (v - st.Mean) * (v - st.Mean)
	}
	st.Stddev = math.Sqrt(ss / float64(len(vs)))
	return st
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func bitsSliceEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bitsEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestChunkedMatchesFlat is the property test of the chunk backing:
// every statistic on a sealed series matches an oracle computed
// straight from the values it was sealed from, bit for bit.
func TestChunkedMatchesFlat(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals, s := randomSeries(rng)
		if s.Len() != len(vals) || !bitsSliceEqual(collect(s), vals) {
			t.Logf("Each differs")
			return false
		}
		if s.PresentCount() != len(present(vals)) || !bitsSliceEqual(s.Present(), present(vals)) {
			t.Logf("Present differs")
			return false
		}
		last := len(vals) - 1
		for last >= 0 && IsMissing(vals[last]) {
			last--
		}
		if s.LastPresentIndex() != last {
			t.Logf("LastPresentIndex %d, want %d", s.LastPresentIndex(), last)
			return false
		}

		agg := s.Aggregate(6, Min)
		if agg.Start != s.Start || agg.Step != 6*s.Step || !bitsSliceEqual(collect(agg), aggregate(vals, 6, Min)) {
			t.Logf("Aggregate differs")
			return false
		}

		if !bitsSliceEqual(s.FoldDaily(30*time.Minute, Mean), foldDaily(vals, s.Start, s.Step, 30*time.Minute, Mean)) {
			t.Logf("FoldDaily differs")
			return false
		}

		got, want := s.SummarizeInto(&StatsScratch{}), summarize(vals)
		if got.N != want.N || !bitsEqual(got.Min, want.Min) || !bitsEqual(got.Max, want.Max) ||
			!bitsEqual(got.Mean, want.Mean) || !bitsEqual(got.Median, want.Median) ||
			!bitsEqual(got.P5, want.P5) || !bitsEqual(got.P95, want.P95) ||
			!bitsEqual(got.Stddev, want.Stddev) {
			t.Logf("SummarizeInto differs: %+v vs %+v", got, want)
			return false
		}

		// Slicing shares the chunk; a misaligned sub-view exercises the
		// partial-block paths in Each.
		if len(vals) > 3 {
			lo, hi := len(vals)/3, 2*len(vals)/3
			w := s.Slice(s.TimeAt(lo), s.TimeAt(hi))
			if w.Start != s.TimeAt(lo) || !bitsSliceEqual(collect(w), vals[lo:hi]) {
				t.Logf("Slice differs")
				return false
			}
			wLast := hi - lo - 1
			for wLast >= 0 && IsMissing(vals[lo+wLast]) {
				wLast--
			}
			if w.LastPresentIndex() != wLast {
				t.Logf("sliced LastPresentIndex %d, want %d", w.LastPresentIndex(), wLast)
				return false
			}
			if !bitsSliceEqual(w.FoldDaily(30*time.Minute, Mean), foldDaily(vals[lo:hi], w.Start, s.Step, 30*time.Minute, Mean)) {
				t.Logf("sliced FoldDaily differs")
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSummarizeSingleSortMatchesLegacy pins SummarizeInto's single
// sort against the per-quantile clone+sort, with one scratch reused
// across series.
func TestSummarizeSingleSortMatchesLegacy(t *testing.T) {
	var sc StatsScratch
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, s := randomSeries(rng)
		st := s.SummarizeInto(&sc)
		vs := s.Present()
		if st.N != len(vs) {
			return false
		}
		if len(vs) == 0 {
			return math.IsNaN(st.Median)
		}
		return bitsEqual(st.Median, Quantile(vs, 0.5)) &&
			bitsEqual(st.P5, Quantile(vs, 0.05)) &&
			bitsEqual(st.P95, Quantile(vs, 0.95))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuantileSortedMatchesQuantile pins the sorted fast path.
func TestQuantileSortedMatchesQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40)
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = rng.NormFloat64() * 100
		}
		sorted := append([]float64(nil), vs...)
		sort.Float64s(sorted)
		for _, q := range []float64{-1, 0, 0.05, 0.1, 0.5, 0.95, 1, 2} {
			if !bitsEqual(Quantile(vs, q), QuantileSorted(sorted, q)) {
				t.Fatalf("trial %d q=%v: Quantile %v != QuantileSorted %v",
					trial, q, Quantile(vs, q), QuantileSorted(sorted, q))
			}
		}
	}
}

// TestChunkedSeriesIsImmutable checks that a sealed series keeps no
// reference to the values it was sealed from.
func TestChunkedSeriesIsImmutable(t *testing.T) {
	vals := filled(10, func(i int) float64 { return float64(i) })
	s := FromValues(0, 5*time.Minute, vals)
	want := append([]float64(nil), vals...)
	for i := range vals {
		vals[i] = -1
	}
	if !bitsSliceEqual(collect(s), want) {
		t.Fatal("series changed with the slice it was sealed from")
	}
}
