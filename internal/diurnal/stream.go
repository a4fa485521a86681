package diurnal

import (
	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
)

// StreamFold is the incremental counterpart of FoldWith: it consumes one
// aggregated (time, value) bin at a time and maintains the day-folded
// profile statistics online — per-bin running means for the overall
// profile, the current day's partial profile, and a running mean of
// per-day correlations against the overall profile. Snapshot answers
// "does this link show a recurring daily pattern *so far*" at any
// point of the stream, which is what lets the observatory promote a
// suspected level shift to confirmed congestion mid-campaign instead
// of at campaign end.
//
// The statistics are an online approximation of FoldWith's, not a
// bit-identical replay: each completed day correlates against the
// overall profile *as of that day*, where the batch fold correlates
// every day against the final profile. The approximation only steers
// alert timing — final verdicts always come from the batch pipeline
// over the full series (see DESIGN.md §16) — and it is still a pure
// function of the fed sequence, so determinism holds. Allocation-free
// after New.
type StreamFold struct {
	cfg   Config
	nBins int

	binSum []float64 // overall profile accumulators
	binCnt []int
	daySum []float64 // current (open) day accumulators
	dayCnt []int

	curDay  int
	haveDay bool

	corrSum  float64
	daysEval int

	// scratch for Snapshot/closeDay, sized once.
	prof, dayProf, present []float64
	scr                    Scratch
}

// NewStreamFold builds an incremental fold. The amplitude, consistency
// and day gates used by Snapshot().Decide come from cfg exactly as in
// the batch detector.
func NewStreamFold(cfg Config) *StreamFold {
	cfg = cfg.withDefaults()
	nBins := int((24 * 60 * 60 * 1e9) / int64(cfg.BinWidth))
	if nBins < 1 {
		nBins = 1
	}
	f := &StreamFold{
		cfg:     cfg,
		nBins:   nBins,
		binSum:  make([]float64, nBins),
		binCnt:  make([]int, nBins),
		daySum:  make([]float64, nBins),
		dayCnt:  make([]int, nBins),
		prof:    make([]float64, nBins),
		dayProf: make([]float64, nBins),
		present: make([]float64, 0, nBins),
	}
	f.scr.xs = make([]float64, 0, nBins)
	f.scr.ys = make([]float64, 0, nBins)
	return f
}

// Observe feeds one aggregated bin. Missing values (NaN) advance the
// day bookkeeping but contribute nothing to the profiles, mirroring
// how the batch fold skips missing grid slots.
func (f *StreamFold) Observe(t simclock.Time, v float64) {
	day := t.Day()
	if f.haveDay && day != f.curDay {
		f.closeDay()
	}
	if !f.haveDay || day != f.curDay {
		f.curDay = day
		f.haveDay = true
	}
	if timeseries.IsMissing(v) {
		return
	}
	bin := t.SecondOfDay() / int(f.cfg.BinWidth/simclock.Duration(1e9))
	if bin < 0 || bin >= f.nBins {
		return
	}
	f.binSum[bin] += v
	f.binCnt[bin]++
	f.daySum[bin] += v
	f.dayCnt[bin]++
}

// closeDay folds the completed day into the running consistency mean:
// the day's profile is correlated against the overall profile (which
// includes the day, as the batch fold's does) and the day accumulators
// reset for the next day.
func (f *StreamFold) closeDay() {
	f.fillProfiles()
	if r, ok := correlateWith(f.dayProf, f.prof, f.nBins/2, &f.scr); ok {
		f.corrSum += r
		f.daysEval++
	}
	for i := range f.daySum {
		f.daySum[i] = 0
		f.dayCnt[i] = 0
	}
}

// fillProfiles renders the overall and current-day bin means into the
// scratch profile buffers (Missing where a bin has no samples).
func (f *StreamFold) fillProfiles() {
	for i := 0; i < f.nBins; i++ {
		if f.binCnt[i] > 0 {
			f.prof[i] = f.binSum[i] / float64(f.binCnt[i])
		} else {
			f.prof[i] = timeseries.Missing
		}
		if f.dayCnt[i] > 0 {
			f.dayProf[i] = f.daySum[i] / float64(f.dayCnt[i])
		} else {
			f.dayProf[i] = timeseries.Missing
		}
	}
}

// Profile appends the current overall folded profile (bin means,
// Missing where empty) to dst and returns it — the /links/{id} diurnal
// surface.
func (f *StreamFold) Profile(dst []float64) []float64 {
	f.fillProfiles()
	return append(dst, f.prof...)
}

// Snapshot computes the profile statistics accumulated so far, leaving
// the Diurnal decision to Decide exactly like the batch FoldWith. Days
// evaluated counts *completed* days — the open day joins when its
// first next-day sample arrives. Allocation-free.
func (f *StreamFold) Snapshot() Verdict {
	var v Verdict
	f.fillProfiles()
	present := f.present[:0]
	for _, p := range f.prof {
		if !timeseries.IsMissing(p) {
			present = append(present, p)
		}
	}
	if len(present) < f.nBins/2 {
		if f.daysEval > 0 {
			v.Consistency = f.corrSum / float64(f.daysEval)
			v.DaysEvaluated = f.daysEval
		}
		return v
	}
	insertionSort(present)
	v.AmplitudeMs = timeseries.QuantileSorted(present, 0.95) - timeseries.QuantileSorted(present, 0.05)
	peakBin, peakVal := 0, timeseries.Missing
	for b, p := range f.prof {
		if !timeseries.IsMissing(p) && (timeseries.IsMissing(peakVal) || p > peakVal) {
			peakBin, peakVal = b, p
		}
	}
	v.PeakHour = float64(peakBin) * f.cfg.BinWidth.Hours()
	if f.daysEval > 0 {
		v.Consistency = f.corrSum / float64(f.daysEval)
		v.DaysEvaluated = f.daysEval
	}
	return v
}

// Reset clears all accumulated state but keeps the tuning and the
// buffer allocations — the checkpoint-resume replay path.
func (f *StreamFold) Reset() {
	for i := range f.binSum {
		f.binSum[i] = 0
		f.binCnt[i] = 0
		f.daySum[i] = 0
		f.dayCnt[i] = 0
	}
	f.haveDay = false
	f.corrSum = 0
	f.daysEval = 0
}

// insertionSort sorts a short slice in place without the interface
// conversions sort.Float64s may allocate — profiles are ≤ 48 bins, so
// the quadratic bound is irrelevant and the zero-alloc guarantee is
// not.
func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
