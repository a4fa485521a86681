// Package timeseries stores and summarizes the regular-grid RTT series
// TSLP produces: one sample per 5-minute round per probed target, with
// explicit missing values for lost probes. All statistics skip missing
// samples.
//
// A Series has two backings. The flat backing is a plain []float64 —
// mutable, cheap for short grids and synthetic test inputs. The chunked
// backing is an immutable tschunk.Chunk: XOR-compressed fixed-size
// blocks that the statistics stream through one decode buffer at a
// time, which is what lets a campaign hold months of per-link history
// (DESIGN.md §12). Both backings produce bit-identical statistics; the
// campaign engine pins that equivalence in its determinism tests.
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

// Series is a regular-grid time series: sample i was taken at
// Start + i*Step. Values are RTT milliseconds (or loss percentages in
// the loss pipeline); NaN marks missing samples.
//
// Exactly one backing is active: Values (flat, mutable) or an
// immutable compressed chunk set via FromChunk. Mutating methods (Set,
// SetAt) panic on a chunked series; everything else works on both.
type Series struct {
	Start  simclock.Time
	Step   simclock.Duration
	Values []float64

	chunk *tschunk.Chunk // nil for flat series
	cOff  int            // first chunk slot of this view
	cLen  int            // view length in slots
}

// NewRegular allocates an all-missing flat series of n samples.
func NewRegular(start simclock.Time, step simclock.Duration, n int) *Series {
	if step <= 0 {
		panic("timeseries: non-positive step")
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = Missing
	}
	return &Series{Start: start, Step: step, Values: v}
}

// FromChunk wraps a sealed compressed chunk as a read-only series.
func FromChunk(start simclock.Time, step simclock.Duration, c *tschunk.Chunk) *Series {
	if step <= 0 {
		panic("timeseries: non-positive step")
	}
	return &Series{Start: start, Step: step, chunk: c, cLen: c.Len()}
}

// Chunked reports whether the series is backed by a compressed chunk.
func (s *Series) Chunked() bool { return s.chunk != nil }

// Chunk returns the compressed backing, or nil for a flat series. The
// returned chunk covers the whole underlying grid, not just this view;
// see ChunkSpan for the view's slot range.
func (s *Series) Chunk() *tschunk.Chunk { return s.chunk }

// ChunkSpan returns the [off, off+len) chunk-slot range this view
// covers. Meaningful only when Chunked.
func (s *Series) ChunkSpan() (off, n int) { return s.cOff, s.cLen }

// Len returns the number of grid slots.
func (s *Series) Len() int {
	if s.chunk != nil {
		return s.cLen
	}
	return len(s.Values)
}

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

// ValueAt returns the sample at slot i regardless of backing. On a
// chunked series each call decodes the covering block; batch reads
// should use Each instead.
func (s *Series) ValueAt(i int) float64 {
	if s.chunk != nil {
		return s.chunk.At(s.cOff + i)
	}
	return s.Values[i]
}

// Set records a sample at slot i. Panics on a chunked series.
func (s *Series) Set(i int, v float64) {
	s.mutable()
	s.Values[i] = v
}

// SetAt records a sample at the slot covering t; out-of-grid times are
// ignored (campaign edges). Panics on a chunked series.
func (s *Series) SetAt(t simclock.Time, v float64) {
	s.mutable()
	if i := s.Index(t); i >= 0 {
		s.Values[i] = v
	}
}

func (s *Series) mutable() {
	if s.chunk != nil {
		panic("timeseries: write to chunk-backed series (chunks are immutable; build via tschunk.Builder)")
	}
}

// At returns the sample at the slot covering t.
func (s *Series) At(t simclock.Time) float64 {
	if i := s.Index(t); i >= 0 {
		return s.ValueAt(i)
	}
	return Missing
}

// blockBufs pools block decode buffers for Each. A stack array would
// be free, but the buffer is handed to an arbitrary callback, so
// escape analysis moves it to the heap on every call — and Each is the
// analysis read path, called thousands of times per link sweep. The
// pooled buffer is returned before Each exits; callbacks must not
// retain vals (documented on Each).
var blockBufs = sync.Pool{New: func() any { return new([tschunk.BlockLen]float64) }}

// Each streams the series in grid order as (base, vals) runs, where
// vals[k] is slot base+k. A flat series arrives as one run; a chunked
// series as one run per decoded block. The vals slice is only valid
// within the callback. This is the backing-agnostic bulk read path:
// every statistic below is built on it.
func (s *Series) Each(fn func(base int, vals []float64)) {
	if s.chunk == nil {
		if len(s.Values) > 0 {
			fn(0, s.Values)
		}
		return
	}
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

// window returns the sub-view [lo, hi) by slot index, sharing the
// backing.
func (s *Series) window(lo, hi int) Series {
	w := Series{Start: s.TimeAt(lo), Step: s.Step}
	if s.chunk != nil {
		w.chunk = s.chunk
		w.cOff = s.cOff + lo
		w.cLen = hi - lo
	} else {
		w.Values = s.Values[lo:hi]
	}
	return w
}

// sliceBounds clamps [from, to) to slot indices the way Slice always
// has.
func (s *Series) sliceBounds(from, to simclock.Time) (lo, hi int) {
	lo = 0
	if from.After(s.Start) {
		lo = int(from.Sub(s.Start) / s.Step)
	}
	hi = s.Len()
	if idx := s.Index(to); idx >= 0 {
		hi = idx
	}
	if lo > s.Len() {
		lo = s.Len()
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Slice returns the sub-series covering [from, to), sharing the
// backing (flat slices alias Values; chunked slices alias the chunk).
func (s *Series) Slice(from, to simclock.Time) *Series {
	lo, hi := s.sliceBounds(from, to)
	w := s.window(lo, hi)
	return &w
}

// Window is Slice without the heap allocation: the sub-series is
// returned by value for callers that window inside hot loops.
func (s *Series) Window(from, to simclock.Time) Series {
	lo, hi := s.sliceBounds(from, to)
	return s.window(lo, hi)
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
// -1 when the series is all-missing. Chunked series scan blocks from
// the tail, so a recently-active link answers in one block decode.
func (s *Series) LastPresentIndex() int {
	if s.chunk == nil {
		for i := len(s.Values) - 1; i >= 0; i-- {
			if !IsMissing(s.Values[i]) {
				return i
			}
		}
		return -1
	}
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

// LossFraction returns the fraction of grid slots that are missing.
func (s *Series) LossFraction() float64 {
	if s.Len() == 0 {
		return 0
	}
	return 1 - float64(s.PresentCount())/float64(s.Len())
}

// Compress re-encodes a flat series into the chunked backing (missing
// slots stay missing bit-exactly). A chunked series is returned as is.
func Compress(s *Series) *Series {
	if s.chunk != nil {
		return s
	}
	b := tschunk.NewBuilder(len(s.Values))
	for i, v := range s.Values {
		b.Set(i, v)
	}
	return FromChunk(s.Start, s.Step, b.Seal())
}

// Aggregate returns a coarser flat series whose slot j summarizes
// `factor` input slots with fn (e.g. Min over 6 five-minute samples →
// 30-minute minimum filtering, the standard TSLP noise reduction).
// Slots with no present inputs stay missing. Chunked input streams
// block by block; the collected per-slot values reach fn in grid
// order either way.
func (s *Series) Aggregate(factor int, fn func([]float64) float64) *Series {
	if factor <= 0 {
		panic("timeseries: non-positive aggregation factor")
	}
	sLen := s.Len()
	n := (sLen + factor - 1) / factor
	out := NewRegular(s.Start, s.Step*time.Duration(factor), n)
	buf := make([]float64, 0, factor)
	s.Each(func(base int, vals []float64) {
		for k, v := range vals {
			i := base + k
			if !IsMissing(v) {
				buf = append(buf, v)
			}
			if (i+1)%factor == 0 || i == sLen-1 {
				if len(buf) > 0 {
					out.Values[i/factor] = fn(buf)
				}
				buf = buf[:0]
			}
		}
	})
	return out
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

// Median returns the median of vs (vs is not modified).
func Median(vs []float64) float64 {
	return Quantile(vs, 0.5)
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

// Summarize computes Stats over the present samples.
func (s *Series) Summarize() Stats {
	var sc StatsScratch
	return s.SummarizeInto(&sc)
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

// SplitDays returns one sub-series per UTC day, keyed by day index
// since the simclock epoch. Days with no present samples are omitted.
func (s *Series) SplitDays() map[int]*Series {
	out := make(map[int]*Series)
	perDay := int(24 * time.Hour / s.Step)
	if perDay == 0 {
		return out
	}
	for i := 0; i < s.Len(); {
		day := s.TimeAt(i).Day()
		// Collect slots in this day.
		j := i
		for j < s.Len() && s.TimeAt(j).Day() == day {
			j++
		}
		sub := s.window(i, j)
		if sub.PresentCount() > 0 {
			out[day] = &sub
		}
		i = j
	}
	return out
}
