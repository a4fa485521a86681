// Package timeseries stores and summarizes the regular-grid RTT series
// TSLP produces: one sample per 5-minute round per probed target, with
// explicit missing values for lost probes. All statistics skip missing
// samples.
//
// A Series is a sealed tschunk.Chunk, or a window of one:
// XOR-compressed fixed-size blocks that readers stream through Each one
// decoded block at a time, which is what lets a campaign hold months of
// per-link history (DESIGN.md §12). FromValues seals a plain []float64;
// the campaign's collectors seal their own builders and wrap them with
// FromChunk.
package timeseries

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"afrixp/internal/simclock"
	"afrixp/internal/tschunk"
)

// Missing marks a lost or never-taken sample.
var Missing = math.NaN()

// IsMissing reports whether v is the missing marker.
func IsMissing(v float64) bool { return math.IsNaN(v) }

// Series is an immutable regular-grid time series: sample i was taken
// at Start + i*Step. Values are RTT milliseconds (or loss percentages
// in the loss pipeline); NaN marks missing samples.
type Series struct {
	Start simclock.Time
	Step  simclock.Duration

	chunk *tschunk.Chunk
	cOff  int // first chunk slot of this view
	cLen  int // view length in slots
}

// FromValues seals vals as a series: slot i is vals[i], taken at
// start + i*step. Every value keeps its bits; vals is not retained.
func FromValues(start simclock.Time, step simclock.Duration, vals []float64) *Series {
	b := tschunk.NewBuilder(len(vals))
	for i, v := range vals {
		// The builder's open slots already hold the canonical missing
		// bits, so skipping them lets all-missing blocks share one
		// encoding.
		if math.Float64bits(v) != missingBits {
			b.Set(i, v)
		}
	}
	return FromChunk(start, step, b.Seal())
}

var missingBits = math.Float64bits(Missing)

// FromChunk wraps a sealed compressed chunk as a read-only series.
func FromChunk(start simclock.Time, step simclock.Duration, c *tschunk.Chunk) *Series {
	if step <= 0 {
		panic("timeseries: non-positive step")
	}
	return &Series{Start: start, Step: step, chunk: c, cLen: c.Len()}
}

// Len returns the number of grid slots.
func (s *Series) Len() int { return s.cLen }

// TimeAt returns the timestamp of slot i.
func (s *Series) TimeAt(i int) simclock.Time {
	return s.Start.Add(time.Duration(i) * s.Step)
}

// Index returns the slot for time t, or -1 when t is off the grid.
func (s *Series) Index(t simclock.Time) int {
	if t < s.Start {
		return -1
	}
	i := int(t.Sub(s.Start) / s.Step)
	if i >= s.Len() {
		return -1
	}
	return i
}

// blockBufs pools block decode buffers for Each. A stack array would
// be free, but the buffer is handed to an arbitrary callback, so
// escape analysis moves it to the heap on every call — and Each is the
// analysis read path, called thousands of times per link sweep. The
// pooled buffer is returned before Each exits; callbacks must not
// retain vals (documented on Each).
var blockBufs = sync.Pool{New: func() any { return new([tschunk.BlockLen]float64) }}

// Each streams the series in grid order as (base, vals) runs, where
// vals[k] is slot base+k, one run per decoded block. The vals slice is
// only valid within the callback. This is the bulk read path: every
// statistic below is built on it.
func (s *Series) Each(fn func(base int, vals []float64)) {
	if s.cLen == 0 {
		return
	}
	buf := blockBufs.Get().(*[tschunk.BlockLen]float64)
	defer blockBufs.Put(buf)
	first := s.cOff / tschunk.BlockLen
	last := (s.cOff + s.cLen - 1) / tschunk.BlockLen
	for b := first; b <= last; b++ {
		vals := s.chunk.DecodeBlock(b, buf[:0])
		base := s.chunk.BlockBase(b) - s.cOff // view-relative slot of vals[0]
		lo, hi := 0, len(vals)
		if base < 0 {
			lo = -base
		}
		if base+hi > s.cLen {
			hi = s.cLen - base
		}
		fn(base+lo, vals[lo:hi])
	}
}

// Window returns the sub-series covering [from, to), sharing the
// chunk. It is returned by value for callers that window inside hot
// loops.
func (s *Series) Window(from, to simclock.Time) Series {
	lo := 0
	if from.After(s.Start) {
		lo = int(from.Sub(s.Start) / s.Step)
	}
	hi := s.Len()
	if idx := s.Index(to); idx >= 0 {
		hi = idx
	}
	if lo > s.Len() {
		lo = s.Len()
	}
	if hi < lo {
		hi = lo
	}
	return Series{Start: s.TimeAt(lo), Step: s.Step, chunk: s.chunk, cOff: s.cOff + lo, cLen: hi - lo}
}

// Slice is Window on the heap.
func (s *Series) Slice(from, to simclock.Time) *Series {
	w := s.Window(from, to)
	return &w
}

// Present returns the non-missing values in order.
func (s *Series) Present() []float64 {
	return s.AppendPresent(make([]float64, 0, s.Len()))
}

// AppendPresent appends the non-missing values in grid order to dst
// and returns it — the Present fast path for callers with scratch.
func (s *Series) AppendPresent(dst []float64) []float64 {
	s.Each(func(_ int, vals []float64) {
		for _, v := range vals {
			if !IsMissing(v) {
				dst = append(dst, v)
			}
		}
	})
	return dst
}

// PresentCount returns the number of non-missing samples.
func (s *Series) PresentCount() int {
	n := 0
	s.Each(func(_ int, vals []float64) {
		for _, v := range vals {
			if !IsMissing(v) {
				n++
			}
		}
	})
	return n
}

// LastPresentIndex returns the highest slot with a present sample, or
// -1 when the series is all-missing. Blocks are scanned from the tail,
// so a recently-active link answers in one block decode.
func (s *Series) LastPresentIndex() int {
	if s.cLen == 0 {
		return -1
	}
	var buf [tschunk.BlockLen]float64
	first := s.cOff / tschunk.BlockLen
	last := (s.cOff + s.cLen - 1) / tschunk.BlockLen
	for b := last; b >= first; b-- {
		vals := s.chunk.DecodeBlock(b, buf[:0])
		base := s.chunk.BlockBase(b) - s.cOff
		lo, hi := 0, len(vals)
		if base < 0 {
			lo = -base
		}
		if base+hi > s.cLen {
			hi = s.cLen - base
		}
		for k := hi - 1; k >= lo; k-- {
			if !IsMissing(vals[k]) {
				return base + k
			}
		}
	}
	return -1
}

// Aggregate returns a coarser series whose slot j summarizes `factor`
// input slots with fn (e.g. Min over 6 five-minute samples → 30-minute
// minimum filtering, the standard TSLP noise reduction). Slots with no
// present inputs stay missing. The input streams block by block, the
// collected per-slot values reach fn in grid order, and the output is
// sealed as it is written.
func (s *Series) Aggregate(factor int, fn func([]float64) float64) *Series {
	if factor <= 0 {
		panic("timeseries: non-positive aggregation factor")
	}
	sLen := s.Len()
	n := (sLen + factor - 1) / factor
	out := tschunk.NewBuilder(n)
	buf := make([]float64, 0, factor)
	s.Each(func(base int, vals []float64) {
		for k, v := range vals {
			i := base + k
			if !IsMissing(v) {
				buf = append(buf, v)
			}
			if (i+1)%factor == 0 || i == sLen-1 {
				if len(buf) > 0 {
					out.Set(i/factor, fn(buf))
				}
				buf = buf[:0]
			}
		}
	})
	return FromChunk(s.Start, s.Step*time.Duration(factor), out.Seal())
}

// Min returns the smallest of vs. It is the canonical Aggregate fn.
func Min(vs []float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Mean returns the arithmetic mean of vs.
func Mean(vs []float64) float64 {
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Quantile returns the q-quantile of vs using linear interpolation.
// vs is not modified; callers that already hold a sorted buffer (or
// can afford to sort in place once for several quantiles) should use
// QuantileSorted instead — this convenience clones and sorts per call.
func Quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return Missing
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	return QuantileSorted(c, q)
}

// QuantileSorted returns the q-quantile of an ascending-sorted slice
// using the same linear interpolation as Quantile, without cloning or
// sorting. The fast path for deriving several quantiles from one sort.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return Missing
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Stats summarizes the present samples of a series.
type Stats struct {
	N            int
	Min, Max     float64
	Mean, Median float64
	P5, P95      float64
	Stddev       float64
}

// StatsScratch is reusable working memory for SummarizeInto, for
// callers that summarize many series (per-link Stats in figures and
// what-if sweeps).
type StatsScratch struct {
	buf []float64
}

// SummarizeInto computes Stats using sc's buffer. The present samples
// are gathered once, the order statistics come from a single in-place
// sort, and Median/P5/P95 are derived from it via QuantileSorted —
// bit-identical to three independent clone+sorts of the same values,
// at a third of the work.
func (s *Series) SummarizeInto(sc *StatsScratch) Stats {
	vs := s.AppendPresent(sc.buf[:0])
	sc.buf = vs[:0]
	st := Stats{N: len(vs)}
	if len(vs) == 0 {
		st.Min, st.Max, st.Mean, st.Median, st.P5, st.P95, st.Stddev =
			Missing, Missing, Missing, Missing, Missing, Missing, Missing
		return st
	}
	st.Min, st.Max = vs[0], vs[0]
	var sum float64
	for _, v := range vs {
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
		sum += v
	}
	st.Mean = sum / float64(len(vs))
	var ss float64
	for _, v := range vs {
		d := v - st.Mean
		ss += d * d
	}
	st.Stddev = math.Sqrt(ss / float64(len(vs)))
	sort.Float64s(vs)
	st.Median = QuantileSorted(vs, 0.5)
	st.P5 = QuantileSorted(vs, 0.05)
	st.P95 = QuantileSorted(vs, 0.95)
	return st
}

// FoldDaily folds the series by time of day into bins of the given
// width, returning per-bin aggregates (fn over all samples falling in
// that time-of-day bin across all days, in time order). The result has
// 24h/binWidth entries; empty bins are missing.
func (s *Series) FoldDaily(binWidth simclock.Duration, fn func([]float64) float64) []float64 {
	if binWidth <= 0 || 24*time.Hour%binWidth != 0 {
		panic(fmt.Sprintf("timeseries: bin width %v must divide 24h", binWidth))
	}
	nBins := int(24 * time.Hour / binWidth)
	secPerBin := int(binWidth / time.Second)
	bins := make([][]float64, nBins)
	s.Each(func(base int, vals []float64) {
		for k, v := range vals {
			if !IsMissing(v) {
				b := s.TimeAt(base+k).SecondOfDay() / secPerBin
				bins[b] = append(bins[b], v)
			}
		}
	})
	out := make([]float64, nBins)
	for b, vs := range bins {
		if len(vs) == 0 {
			out[b] = Missing
		} else {
			out[b] = fn(vs)
		}
	}
	return out
}
