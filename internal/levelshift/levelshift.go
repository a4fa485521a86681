// Package levelshift turns a TSLP RTT series into congestion-style
// level-shift events, following §5.2 of the paper: 5-minute latency
// samples are minimum-filtered, the rank-based CUSUM detector finds
// level changes, shifts shorter than 30 minutes or smaller than the
// magnitude threshold (10 ms by default, with 5/15/20 ms used in the
// sensitivity analysis of Table 1) are discarded, and the surviving
// upshift/downshift pairs become events whose average magnitude A_w
// and average duration Δt_UD characterize the congestion waveform.
package levelshift

import (
	"sort"
	"time"

	"afrixp/internal/cusum"
	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
)

// Config tunes the analysis. The magnitude threshold is not part of
// it: Detection.AtThreshold takes it, so one detection serves a whole
// threshold sweep.
type Config struct {
	// MinDuration is the minimum event length; the paper uses 30 min.
	MinDuration simclock.Duration
	// AggregateTo pre-aggregates the series with a minimum filter to
	// this bin width before detection (noise suppression). Zero keeps
	// the native resolution.
	AggregateTo simclock.Duration
	// Cusum configures the underlying change-point detector.
	Cusum cusum.Config
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	return Config{
		MinDuration: 30 * time.Minute,
		AggregateTo: 30 * time.Minute,
		Cusum:       cusum.Config{Bootstraps: 60, Confidence: 0.95, MinSegment: 2},
	}
}

// Event is one congestion episode: the span between an upshift away
// from baseline and the downshift back.
type Event struct {
	Start, End simclock.Time
	// Magnitude is the mean elevation above baseline, in the series'
	// units (ms).
	Magnitude float64
	// OpenEnded marks an event still elevated when the series ends
	// (sustained congestion, like GIXA–KNET through the end of the
	// campaign).
	OpenEnded bool
}

// Duration returns the event length (Δt between upshift and downshift).
func (e Event) Duration() simclock.Duration { return e.End.Sub(e.Start) }

// Result is the analysis output.
type Result struct {
	// Shifts are the raw accepted change points (indices refer to the
	// analyzed — possibly aggregated — series).
	Shifts []cusum.ChangePoint
	// Events are the baseline-exceeding episodes.
	Events []Event
	// Baseline is the inferred uncongested level (ms).
	Baseline float64
	// Series is the series the detector actually ran on.
	Series *timeseries.Series
}

// Flagged reports whether the link would be labeled potentially
// congested at the configured threshold: at least one event.
func (r Result) Flagged() bool { return len(r.Events) > 0 }

// AW returns the average event magnitude (mean elevation above
// baseline per event), or 0 when no events exist.
func (r Result) AW() float64 {
	if len(r.Events) == 0 {
		return 0
	}
	var sum float64
	for _, e := range r.Events {
		sum += e.Magnitude
	}
	return sum / float64(len(r.Events))
}

// ShiftAW returns the average magnitude of the accepted level shifts
// themselves — the paper's A_w ("the average magnitude between
// consecutive upshift and downshift"). For a clean plateau both
// definitions agree; for ramped waveforms the CUSUM steps climb in
// stages and ShiftAW sits below the plateau height.
func (r Result) ShiftAW() float64 {
	if len(r.Shifts) == 0 {
		return 0
	}
	var sum float64
	for _, cp := range r.Shifts {
		m := cp.Magnitude()
		if m < 0 {
			m = -m
		}
		sum += m
	}
	return sum / float64(len(r.Shifts))
}

// MeanDuration returns the average time between consecutive upshift
// and downshift (the paper's Δt_UD). Open-ended events are excluded.
func (r Result) MeanDuration() simclock.Duration {
	var sum simclock.Duration
	n := 0
	for _, e := range r.Events {
		if e.OpenEnded {
			continue
		}
		sum += e.Duration()
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / simclock.Duration(n)
}

// Detection is the threshold-independent half of the analysis: the
// aggregated series, the NaN-compacted samples with their grid
// mapping, the global baseline, and the per-window CUSUM candidate
// lists. The candidates are the expensive part — segmentation plus
// bootstrap — and none of it depends on the magnitude threshold, so a
// Table-1 style sensitivity sweep detects once and calls AtThreshold
// per threshold.
//
// A window's candidates are computed on the first AtThreshold call
// that can keep one of them, and never for a window too flat for any
// threshold asked (the flat-window screen, DESIGN.md §8.1). Each
// window reseeds its bootstrap with Seed+lo, so a late computation
// yields the same candidates as an early one.
type Detection struct {
	// Series is the series the detector actually ran on (after
	// min-filter aggregation).
	Series *timeseries.Series
	// Baseline is the inferred uncongested level (ms): the global 10th
	// percentile of the compacted samples.
	Baseline float64

	cfg  Config          // captured analysis config
	ccfg cusum.Config    // the windows' detector configuration
	det  *cusum.Detector // computes candidates on demand
	scr  *Scratch        // compacted samples, candidate arena, work buffers
	win  int             // detection window length in samples
}

// Scratch is the reusable working memory behind a Detection: the
// NaN-compacted samples, the per-window candidate arena, and the
// buffers AtThreshold churns through per magnitude threshold, among
// them the shifts and events it builds before handing each Result an
// exact-size copy. A sweep worker threads one Scratch per series role
// across every link it analyzes; nothing retained by Result aliases
// it. A Detection is only valid until its Scratch is reused by a later
// Detect call.
type Scratch struct {
	vals      []float64 // present samples, NaNs compacted away
	slots     []int     // vals[i] came from the analyzed series' grid slot slots[i]
	cands     []cusum.Candidate
	wins      []window
	elevation []float64
	bounds    []int
	sortBuf   []float64
	cpBuf     []cusum.ChangePoint
	keptBuf   []int
	shifts    []cusum.ChangePoint
	events    []Event
}

// window is one detection window's screen bound and candidates.
type window struct {
	// magBound bounds every level change ApplyMagnitudeInto can
	// compute in the window: its value range plus a rounding margin
	// for the segment means (flatBound).
	magBound float64
	// from, to delimit the window's candidates in Scratch.cands; from
	// is negative until they are computed.
	from, to int
	// level is the whole window's median, once hasLevel is set: the
	// level of a window that keeps no change point at a threshold, so
	// most windows at most thresholds.
	level    float64
	hasLevel bool
}

// median returns the median of win, the window's samples, computing
// it on first use.
func (wd *window) median(scr *Scratch, win []float64) float64 {
	if !wd.hasLevel {
		wd.level, wd.hasLevel = scr.median(win), true
	}
	return wd.level
}

// flatBound returns an upper bound on |mean(a) − mean(b)|, as
// ApplyMagnitudeInto computes it, for any two runs a and b of vs. Exact
// means lie in [lo, hi]. Summing k ≤ n values of magnitude at most M
// and dividing by k moves a mean by at most about k·M·2⁻⁵³, and the
// subtraction adds one more rounding, so the computed difference stays
// below (hi−lo) + 2(n+1)·M·2⁻⁵³. The margin (n+1)·M·2⁻⁴⁸ is 16 times
// that and also absorbs this sum's own rounding.
func flatBound(vs []float64) float64 {
	lo, hi := vs[0], vs[0]
	for _, v := range vs[1:] {
		lo = min(lo, v)
		hi = max(hi, v)
	}
	m := max(-lo, hi)
	return (hi - lo) + float64(len(vs)+1)*m*0x1p-48
}

// median computes the median of vs through the scratch sort buffer —
// bit-identical to timeseries.Quantile(vs, 0.5) (same sort, same
// interpolation), without the per-call clone.
func (scr *Scratch) median(vs []float64) float64 {
	scr.sortBuf = append(scr.sortBuf[:0], vs...)
	sort.Float64s(scr.sortBuf)
	return timeseries.QuantileSorted(scr.sortBuf, 0.5)
}

// Detect runs the threshold-independent detection phase on a series,
// through a caller-owned cusum.Detector and working memory — campaign
// fan-outs thread one detector and one Scratch per series role per
// worker across every link they analyze. The detector is reconfigured
// from cfg, so its prior configuration does not matter, and neither
// does anything earlier calls left in det or scr.
//
// Detection is windowed: the CUSUM chart of a year-long periodic
// signal is not significant against bootstrap shuffles (the shuffled
// random walk out-ranges the periodic one), so — as TSLP analyses do
// in practice — the detector segments one-day windows independently
// and elevation runs are merged across window boundaries. Each window
// reseeds its bootstrap with cfg.Cusum.Seed plus the window's offset.
// The baseline is the global 10th percentile of the (min-filtered)
// series, i.e. the uncongested floor.
//
// The returned Detection reads through scr and is invalidated by the
// next Detect call with the same scratch; its AtThreshold calls run
// det, so they share det's goroutine.
func Detect(det *cusum.Detector, s *timeseries.Series, cfg Config, scr *Scratch) *Detection {
	work := s
	if cfg.AggregateTo > 0 && cfg.AggregateTo > s.Step {
		factor := int(cfg.AggregateTo / s.Step)
		work = s.Aggregate(factor, timeseries.Min)
	}
	// The CUSUM detector cannot carry NaNs; compact the present
	// samples and keep the index mapping back to grid slots. Each
	// streams the series one decoded block at a time — the analysis
	// never materializes the full grid.
	if n := work.Len(); cap(scr.vals) < n {
		scr.vals, scr.slots = make([]float64, 0, n), make([]int, 0, n)
	}
	scr.vals = scr.vals[:0]
	scr.slots = scr.slots[:0]
	work.Each(func(base int, vs []float64) {
		for k, v := range vs {
			if !timeseries.IsMissing(v) {
				scr.vals = append(scr.vals, v)
				scr.slots = append(scr.slots, base+k)
			}
		}
	})
	vals := scr.vals
	d := &Detection{Series: work, cfg: cfg, scr: scr}
	if len(vals) < 4 {
		return d
	}
	scr.sortBuf = append(scr.sortBuf[:0], vals...)
	sort.Float64s(scr.sortBuf)
	d.Baseline = timeseries.QuantileSorted(scr.sortBuf, 0.10)

	d.win = 48
	if work.Step > 0 {
		if n := int(24 * time.Hour / work.Step); n >= 8 {
			d.win = n
		}
	}
	d.ccfg = cfg.Cusum
	d.ccfg.UseRanks = true
	d.det = det
	scr.cands = scr.cands[:0]
	scr.wins = scr.wins[:0]
	for lo := 0; lo < len(vals); lo += d.win {
		hi := min(lo+d.win, len(vals))
		scr.wins = append(scr.wins, window{magBound: flatBound(vals[lo:hi]), from: -1})
	}
	return d
}

// candidates returns window w's candidates (the window starts at
// compacted sample lo), computing them on first use.
func (d *Detection) candidates(w, lo, hi int) []cusum.Candidate {
	scr := d.scr
	win := &scr.wins[w]
	if win.from < 0 {
		d.det.Reconfigure(d.ccfg)
		win.from = len(scr.cands)
		scr.cands = d.det.AppendCandidates(scr.cands, scr.vals[lo:hi], d.ccfg.Seed+int64(lo))
		win.to = len(scr.cands)
	}
	return scr.cands[win.from:win.to]
}

// AtThreshold runs the cheap per-threshold classification phase:
// magnitude-filter the shared candidates, classify elevated segments,
// merge elevation runs, and assemble events. O(n) plus the magnitude
// filter — no bootstrap. The result does not depend on which
// thresholds were asked before, or in what order.
func (d *Detection) AtThreshold(thresholdMs float64) Result {
	res := Result{Series: d.Series}
	scr := d.scr
	if len(scr.vals) < 4 {
		return res
	}
	res.Baseline = d.Baseline
	base := d.Baseline
	vals := scr.vals
	minMag := thresholdMs / 2 // sub-noise wiggles die here

	// elevation[i] > 0 marks compacted sample i as part of a shifted
	// segment, carrying the segment's elevation above baseline.
	if cap(scr.elevation) < len(vals) {
		scr.elevation = make([]float64, len(vals))
	}
	elevation := scr.elevation[:len(vals)]
	for i := range elevation {
		elevation[i] = 0
	}
	shifts := scr.shifts[:0]
	for w, lo := 0, 0; lo < len(vals); w, lo = w+1, lo+d.win {
		hi := lo + d.win
		if hi > len(vals) {
			hi = len(vals)
		}
		win := vals[lo:hi]
		// A window whose every level change is below minMag keeps no
		// change point: skip its candidates.
		var cps []cusum.ChangePoint
		if !(scr.wins[w].magBound < minMag) {
			scr.cpBuf, scr.keptBuf = cusum.ApplyMagnitudeInto(
				scr.cpBuf[:0], scr.keptBuf, win, d.candidates(w, lo, hi), minMag)
			cps = scr.cpBuf
		}
		for _, cp := range cps {
			cp.Index += lo
			shifts = append(shifts, cp)
		}
		bounds := append(scr.bounds[:0], 0)
		for _, cp := range cps {
			bounds = append(bounds, cp.Index)
		}
		bounds = append(bounds, len(win))
		scr.bounds = bounds
		for k := 0; k+1 < len(bounds); k++ {
			a, b := bounds[k], bounds[k+1]
			if b <= a {
				continue
			}
			var level float64
			if a == 0 && b == len(win) {
				level = scr.wins[w].median(scr, win)
			} else {
				level = scr.median(win[a:b])
			}
			if level-base >= thresholdMs {
				for i := lo + a; i < lo+b; i++ {
					elevation[i] = level - base
				}
			}
		}
	}

	// Direct run detection complements the windowed CUSUM: a clear,
	// sustained excursion above the threshold that occupies a small
	// fraction of its window can fail the bootstrap significance test
	// even though it is a textbook level shift (GIXA–KNET's ~2-hour
	// daily events are 4–5 bins of a 48-bin day). Runs of at least two
	// consecutive samples elevated ≥ threshold are level shifts by
	// construction — the series is already minimum-filtered, so noise
	// spikes cannot form such runs.
	for i := 0; i < len(vals); {
		if vals[i]-base < thresholdMs {
			i++
			continue
		}
		j := i
		for j < len(vals) && vals[j]-base >= thresholdMs {
			j++
		}
		if j-i >= 2 {
			for k := i; k < j; k++ {
				if e := vals[k] - base; e > elevation[k] {
					elevation[k] = e
				}
			}
		}
		i = j
	}

	// Events: maximal elevated runs over the compacted samples.
	events := scr.events[:0]
	i := 0
	for i < len(elevation) {
		if elevation[i] <= 0 {
			i++
			continue
		}
		j := i
		var sum float64
		for j < len(elevation) && elevation[j] > 0 {
			sum += elevation[j]
			j++
		}
		events = append(events, Event{
			Start:     d.Series.TimeAt(scr.slots[i]),
			End:       d.Series.TimeAt(scr.slots[j-1] + 1),
			Magnitude: sum / float64(j-i),
			OpenEnded: j == len(elevation),
		})
		i = j
	}
	scr.shifts, scr.events = shifts, events
	res.Shifts = exact(shifts)
	res.Events = exact(filterShort(events, d.cfg.MinDuration))
	return res
}

// exact returns an exact-size copy of s, nil when s is empty.
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// filterShort drops events shorter than minDur (open-ended events are
// kept regardless — their true end is unknown).
func filterShort(events []Event, minDur simclock.Duration) []Event {
	if minDur <= 0 {
		return events
	}
	out := events[:0]
	for _, e := range events {
		if e.OpenEnded || e.Duration() >= minDur {
			out = append(out, e)
		}
	}
	return out
}

// Sanitize merges events separated by gaps shorter than maxGap (the
// detector often splinters one congestion episode when RTTs graze the
// threshold) and then re-drops events shorter than minDur. The paper
// sanitizes level shifts before computing Δt_UD for GIXA–KNET.
func Sanitize(events []Event, maxGap, minDur simclock.Duration) []Event {
	if len(events) == 0 {
		return events
	}
	merged := []Event{events[0]}
	for _, e := range events[1:] {
		last := &merged[len(merged)-1]
		if e.Start.Sub(last.End) <= maxGap {
			// Weighted merge of magnitudes by duration.
			d1 := float64(last.Duration())
			d2 := float64(e.Duration())
			if d1+d2 > 0 {
				last.Magnitude = (last.Magnitude*d1 + e.Magnitude*d2) / (d1 + d2)
			}
			last.End = e.End
			last.OpenEnded = e.OpenEnded
		} else {
			merged = append(merged, e)
		}
	}
	return filterShort(merged, minDur)
}
