// Package diurnal decides whether an RTT series exhibits a recurring
// daily pattern — the paper's criterion separating genuinely congested
// links ("persistent diurnal pattern indicating peak-hour congestion")
// from links that merely trip the level-shift threshold through noise
// or slow ICMP generation (the VP5/VP6 rows of Table 1, flagged but
// with zero diurnal links).
//
// The detector folds the series by time of day and requires both a
// sufficient daily amplitude and day-to-day consistency: each day's
// profile must correlate with the average profile. Random regime
// shifts produce amplitude without consistency; flat series produce
// neither.
package diurnal

import (
	"fmt"
	"math"
	"sort"
	"time"

	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
)

// Config tunes the detector.
type Config struct {
	// BinWidth is the time-of-day fold bin. Default 30 minutes.
	BinWidth simclock.Duration
	// MinAmplitudeMs is the required peak-to-floor amplitude of the
	// folded profile. Default 8 ms (just under the paper's 10 ms
	// level-shift threshold, since min-filtering shaves peaks).
	MinAmplitudeMs float64
	// MinDays is the minimum number of evaluable days. Default 5.
	MinDays int
}

// minConsistency is the required mean correlation between per-day
// profiles and the overall profile.
const minConsistency = 0.5

func (c Config) withDefaults() Config {
	if c.BinWidth <= 0 {
		c.BinWidth = 30 * time.Minute
	}
	if c.MinAmplitudeMs <= 0 {
		c.MinAmplitudeMs = 8
	}
	if c.MinDays <= 0 {
		c.MinDays = 5
	}
	return c
}

// Verdict is the detector output.
type Verdict struct {
	// Diurnal is the overall decision.
	Diurnal bool
	// AmplitudeMs is the folded profile's P95−P5 spread.
	AmplitudeMs float64
	// Consistency is the mean per-day correlation with the profile.
	Consistency float64
	// PeakHour is the fractional hour of the profile maximum.
	PeakHour float64
	// DaysEvaluated counts days with enough samples to score.
	DaysEvaluated int
}

// Scratch is reusable working memory for FoldWith: the per-bin and
// per-(day, bin) sums and counts, the profile buffers, the quantile
// buffer, and the correlation pair buffers. One scratch per sweep
// worker removes the per-(link, window) fold allocations; nothing in a
// Verdict aliases it.
type Scratch struct {
	binSum, daySum   []float64
	binCnt, dayCnt   []int
	profile, dayProf []float64
	present          []float64
	xs, ys           []float64
}

// FoldWith computes the threshold-independent statistics — the
// day-folded profile's amplitude, peak hour, and day-to-day
// consistency — through caller-owned scratch, leaving the Diurnal
// decision false. The amplitude gate (MinAmplitudeMs) is the only input
// that varies across a Table-1 threshold sweep, so one fold serves
// every threshold via Decide.
//
// One pass over the series (one decode of each compressed block)
// accumulates every present sample into its time-of-day bin and into
// its (day, bin) cell. Samples arrive in time order, so each bin's sum
// is built in the same order — and divided by the same count — as
// timeseries.Mean over that bin's time-ordered samples, the value
// FoldDaily gives a bin. Day and bin come from integer arithmetic on the
// regular grid: the slot's nanosecond offset into its UTC day, which is
// what Time.Day and Time.SecondOfDay compute through the wall clock.
func FoldWith(s *timeseries.Series, cfg Config, scr *Scratch) Verdict {
	cfg = cfg.withDefaults()
	var v Verdict
	n := s.Len()
	if n == 0 {
		return v
	}
	const dayNs = int64(24 * time.Hour)
	binNs := int64(cfg.BinWidth)
	if dayNs%binNs != 0 || binNs%int64(time.Second) != 0 {
		panic(fmt.Sprintf("diurnal: bin width %v must be whole seconds dividing 24h", cfg.BinWidth))
	}
	nBins := int(dayNs / binNs)

	// One row of (day, bin) cells per calendar day that holds a slot,
	// in day order; a grid coarser than a day skips the empty ones.
	firstDay := s.Start.Day()
	rows := min(n, s.TimeAt(n-1).Day()-firstDay+1)
	binSum, binCnt := zeroed(&scr.binSum, nBins), zeroed(&scr.binCnt, nBins)
	daySum, dayCnt := zeroed(&scr.daySum, rows*nBins), zeroed(&scr.dayCnt, rows*nBins)

	step := int64(s.Step)
	row, rem := 0, int64(s.Start)-int64(firstDay)*dayNs
	s.Each(func(_ int, vals []float64) {
		cell, r := row*nBins, rem
		for _, x := range vals {
			if !timeseries.IsMissing(x) {
				b := int(r / binNs)
				binSum[b] += x
				binCnt[b]++
				daySum[cell+b] += x
				dayCnt[cell+b]++
			}
			if r += step; r >= dayNs {
				r %= dayNs
				cell += nBins
			}
		}
		row, rem = cell/nBins, r
	})

	profile := meansInto(&scr.profile, binSum, binCnt)
	present := scr.present[:0]
	for _, p := range profile {
		if !timeseries.IsMissing(p) {
			present = append(present, p)
		}
	}
	scr.present = present[:0]
	if len(present) < len(profile)/2 {
		return v
	}
	// One in-place sort serves both quantiles — bit-identical to two
	// independent clone+sort Quantile calls on the unsorted values.
	sort.Float64s(present)
	v.AmplitudeMs = timeseries.QuantileSorted(present, 0.95) - timeseries.QuantileSorted(present, 0.05)

	// Peak hour.
	peakBin, peakVal := 0, math.Inf(-1)
	for b, p := range profile {
		if !timeseries.IsMissing(p) && p > peakVal {
			peakBin, peakVal = b, p
		}
	}
	v.PeakHour = float64(peakBin) * cfg.BinWidth.Hours()

	// Day-to-day consistency. Days are visited in calendar order: any
	// other order would vary the float summation order, perturbing
	// Consistency by an ulp — enough to break the campaign engine's
	// bit-identical reproducibility guarantee. Days with no present
	// samples contribute nothing, because correlate rejects their
	// all-missing profiles.
	var corrSum float64
	for d := 0; d < rows; d++ {
		cells := d * nBins
		dayProf := meansInto(&scr.dayProf, daySum[cells:cells+nBins], dayCnt[cells:cells+nBins])
		if r, ok := correlateWith(dayProf, profile, nBins/2, scr); ok {
			corrSum += r
			v.DaysEvaluated++
		}
	}
	if v.DaysEvaluated > 0 {
		v.Consistency = corrSum / float64(v.DaysEvaluated)
	}
	return v
}

// meansInto writes sum/count per bin into *dst (missing where the count
// is zero) and returns it — timeseries.Mean over each bin's samples.
func meansInto(dst *[]float64, sums []float64, counts []int) []float64 {
	out := (*dst)[:0]
	for b, c := range counts {
		if c == 0 {
			out = append(out, timeseries.Missing)
		} else {
			out = append(out, sums[b]/float64(c))
		}
	}
	*dst = out
	return out
}

// zeroed resizes *p to n zero elements, reusing its backing array.
func zeroed[T float64 | int](p *[]T, n int) []T {
	if cap(*p) < n {
		*p = make([]T, n)
	}
	*p = (*p)[:n]
	clear(*p)
	return *p
}

// Decide applies cfg's gates to folded statistics and returns the
// verdict with the Diurnal decision set. Pure — the same folded
// statistics can be gated at any number of amplitude thresholds.
func (v Verdict) Decide(cfg Config) Verdict {
	cfg = cfg.withDefaults()
	v.Diurnal = v.AmplitudeMs >= cfg.MinAmplitudeMs &&
		v.Consistency >= minConsistency &&
		v.DaysEvaluated >= cfg.MinDays
	return v
}

// correlateWith computes the Pearson correlation between two profiles
// over bins present in both, requiring at least minBins shared bins,
// through scratch pair buffers.
func correlateWith(a, b []float64, minBins int, scr *Scratch) (float64, bool) {
	xs, ys := scr.xs[:0], scr.ys[:0]
	defer func() { scr.xs, scr.ys = xs[:0], ys[:0] }()
	for i := range a {
		if i < len(b) && !timeseries.IsMissing(a[i]) && !timeseries.IsMissing(b[i]) {
			xs = append(xs, a[i])
			ys = append(ys, b[i])
		}
	}
	if len(xs) < minBins || len(xs) < 3 {
		return 0, false
	}
	mx, my := timeseries.Mean(xs), timeseries.Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, false
	}
	return sxy / math.Sqrt(sxx*syy), true
}
