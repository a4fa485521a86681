// Package analysis assembles the paper's §5.2 congestion pipeline for
// whole campaigns: collect near/far RTT series per discovered link,
// flag links whose far end shows qualifying level shifts, require a
// flat near end, test for a recurring diurnal pattern, optionally
// check record-route path symmetry, classify surviving links as
// sustained or transient congestion, and aggregate per-VP counts for
// the paper's tables.
package analysis

import (
	"time"

	"afrixp/internal/cusum"
	"afrixp/internal/diurnal"
	"afrixp/internal/levelshift"
	"afrixp/internal/prober"
	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
)

// Config tunes the pipeline.
type Config struct {
	// ThresholdMs is the level-shift magnitude threshold (Table 1
	// sweeps 5/10/15/20; the paper settles on 10).
	ThresholdMs float64
	// LevelShift is the level-shift configuration; the threshold is
	// ThresholdMs, or each of a sweep's thresholds.
	LevelShift levelshift.Config
	// Diurnal configures the recurring-pattern detector.
	Diurnal diurnal.Config
}

// sustainedTail: congestion whose last event ends within this span of
// the end of observation is sustained, otherwise transient (NETPAGE's
// congestion vanished after the upgrade → transient).
const sustainedTail = 14 * 24 * time.Hour

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	return Config{
		ThresholdMs: 10,
		LevelShift:  levelshift.DefaultConfig(),
		Diurnal:     diurnal.Config{},
	}
}

// Classification labels a congested link.
type Classification int8

// Classifications.
const (
	NotCongested Classification = iota
	Transient
	Sustained
)

// String names the classification.
func (c Classification) String() string {
	switch c {
	case Transient:
		return "transient"
	case Sustained:
		return "sustained"
	default:
		return "not-congested"
	}
}

// LinkSeries carries one link's collected measurement series.
type LinkSeries struct {
	Target prober.LinkTarget
	// Near and Far are RTT series in milliseconds.
	Near, Far *timeseries.Series
}

// Verdict is the pipeline outcome for one link.
type Verdict struct {
	Target prober.LinkTarget
	// Far and Near are the level-shift analyses of each end.
	Far, Near levelshift.Result
	// Diurnal is the recurring-pattern verdict on the far end.
	Diurnal diurnal.Verdict
	// Flagged: far end shows qualifying level shifts (a "potentially
	// congested" link in Table 1 terms).
	Flagged bool
	// NearFlat: the near end shows no level shift at the threshold.
	NearFlat bool
	// Symmetric carries the record-route result when available;
	// defaults to true when unchecked.
	Symmetric bool
	// Congested: Flagged ∧ NearFlat ∧ Diurnal ∧ Symmetric.
	Congested bool
	// Class is Sustained/Transient for congested links.
	Class Classification
	// AW and DeltaTUD summarize the far-end waveform (sanitized).
	AW       float64
	DeltaTUD simclock.Duration
}

// Sweeper runs the per-link §5.2 pipeline, reusing one rank-CUSUM
// detector and its working memory across calls. Campaign engines keep
// one Sweeper per analysis worker and feed it links; results do not
// depend on what the sweeper analyzed before, so a fresh Sweeper per
// link gives the same verdicts. Not safe for concurrent use.
type Sweeper struct {
	det     *cusum.Detector
	farScr  levelshift.Scratch
	nearScr levelshift.Scratch
	diurScr diurnal.Scratch
	folds   map[foldWindow]diurnal.Verdict
	stats   SweeperStats
}

// foldWindow keys the per-link diurnal fold cache: thresholds whose
// flagged events span the same window share one fold.
type foldWindow struct {
	whole    bool
	from, to simclock.Time
}

// SweeperStats counts a sweeper's work: link sweeps run, diurnal
// day-folds computed, and folds served from the per-link event-window
// cache. Plain counters — a Sweeper is single-goroutine by contract;
// campaign engines sum per-worker stats after an analysis pass and
// republish them into atomic telemetry counters.
type SweeperStats struct {
	Sweeps, FoldsComputed, FoldsReused uint64
}

// Stats returns the sweeper's accumulated accounting.
func (sw *Sweeper) Stats() SweeperStats { return sw.stats }

// NewSweeper builds a reusable analysis worker state.
func NewSweeper() *Sweeper {
	return &Sweeper{det: cusum.NewDetector(cusum.Config{})}
}

// AnalyzeLink runs the full per-link pipeline at cfg.ThresholdMs — the
// single-threshold case of AnalyzeLinkSweep.
func (sw *Sweeper) AnalyzeLink(ls LinkSeries, cfg Config) Verdict {
	return sw.AnalyzeLinkSweep(ls, cfg, []float64{cfg.ThresholdMs})[0]
}

// AnalyzeLinkSweep runs the per-link pipeline across a threshold sweep
// (Table 1's 5/10/15/20 ms sensitivity analysis), detecting once and
// classifying per threshold. The far and near series each get one
// level-shift detection (windowed rank-CUSUM bootstrap — the analysis
// hot spot) and one diurnal fold per distinct event window; each
// threshold then pays only the cheap classification: magnitude
// filtering, elevation runs, event assembly, and the diurnal gates.
// Verdicts are bit-identical to len(thresholds) AnalyzeLink calls.
// cfg.ThresholdMs is ignored; thresholds rules.
func (sw *Sweeper) AnalyzeLinkSweep(ls LinkSeries, cfg Config, thresholds []float64) []Verdict {
	sw.stats.Sweeps++
	// Detection phase, once per end: candidates, baseline, and the
	// aggregated series are all independent of the magnitude threshold.
	lcfg := cfg.LevelShift
	farDet := levelshift.Detect(sw.det, ls.Far, lcfg, &sw.farScr)
	nearDet := levelshift.Detect(sw.det, ls.Near, lcfg, &sw.nearScr)

	// The diurnal day-folded profile depends on the threshold only
	// through the event window it is computed over; thresholds that
	// flag the same window share one fold. The cache map itself is
	// reused across links.
	if sw.folds == nil {
		sw.folds = make(map[foldWindow]diurnal.Verdict, 1)
	}
	clear(sw.folds)
	folds := sw.folds

	out := make([]Verdict, 0, len(thresholds))
	for _, thr := range thresholds {
		v := Verdict{Target: ls.Target, Symmetric: true}
		v.Far = farDet.AtThreshold(thr)
		v.Flagged = v.Far.Flagged()

		// The near end is flat when it shifts by less than the
		// threshold: larger near shifts put the congestion before the
		// targeted link.
		v.Near = nearDet.AtThreshold(thr)
		v.NearFlat = !v.Near.Flagged()

		dcfg := cfg.Diurnal
		if dcfg.MinAmplitudeMs <= 0 {
			// Track the flagging threshold, discounted for min-filter
			// peak shaving.
			dcfg.MinAmplitudeMs = thr * 0.8
		}
		// The paper checks for a recurring diurnal pattern during the
		// congestion epoch — QCELL–NETPAGE was diurnal in phase 1 only,
		// before the upgrade. Testing the whole campaign would dilute a
		// phase-limited pattern, so the window spans the flagged events
		// (with margin); links whose events scatter across the campaign
		// (slow-ICMP regimes) still see a near-full window and fail on
		// consistency.
		win := foldWindow{whole: true}
		if len(v.Far.Events) > 0 {
			margin := simclock.Duration(48 * time.Hour)
			win = foldWindow{
				from: v.Far.Events[0].Start.Add(-margin),
				to:   v.Far.Events[len(v.Far.Events)-1].End.Add(margin),
			}
		}
		fold, ok := folds[win]
		if !ok {
			diurnalInput := ls.Far
			if !win.whole {
				w := ls.Far.Window(win.from, win.to)
				diurnalInput = &w
			}
			fold = diurnal.FoldWith(diurnalInput, dcfg, &sw.diurScr)
			folds[win] = fold
			sw.stats.FoldsComputed++
		} else {
			sw.stats.FoldsReused++
		}
		v.Diurnal = fold.Decide(dcfg)

		v.Congested = v.Flagged && v.NearFlat && v.Diurnal.Diurnal && v.Symmetric
		if v.Congested {
			events := levelshift.Sanitize(v.Far.Events, 90*time.Minute, lcfg.MinDuration)
			r := levelshift.Result{Events: events}
			// A_w follows the paper's definition: the mean magnitude of
			// the level shifts themselves.
			v.AW = v.Far.ShiftAW()
			v.DeltaTUD = r.MeanDuration()
			v.Class = classify(events, ls.Far)
		}
		out = append(out, v)
	}
	return out
}

// classify separates sustained from transient congestion by where the
// last event sits relative to the end of *observation* — the last
// far-end response, not the campaign end. GIXA–GHANATEL was congested
// until the link itself disappeared (far probes unsuccessful from
// 2016-08-06): that is sustained congestion, never mitigated, even
// though the campaign ran seven more months.
func classify(events []levelshift.Event, far *timeseries.Series) Classification {
	if len(events) == 0 {
		return NotCongested
	}
	last := events[len(events)-1]
	end := far.TimeAt(far.Len())
	if idx := far.LastPresentIndex(); idx >= 0 {
		end = far.TimeAt(idx + 1)
	}
	if last.OpenEnded || end.Sub(last.End) <= sustainedTail {
		return Sustained
	}
	return Transient
}

// VPSummary aggregates verdicts for one vantage point — a Table 1/2
// row at one threshold.
type VPSummary struct {
	VP string
	// Links is the number of links analyzed.
	Links int
	// Flagged is the "potentially congested" count.
	Flagged int
	// FlaggedDiurnal is the parenthesized Table 1 count.
	FlaggedDiurnal int
	// Congested is the final count (flagged ∧ diurnal ∧ flat near).
	Congested int
	// Sustained / Transient split the congested links.
	Sustained, Transient int
}

// Summarize aggregates link verdicts.
func Summarize(vp string, verdicts []Verdict) VPSummary {
	s := VPSummary{VP: vp, Links: len(verdicts)}
	for _, v := range verdicts {
		if v.Flagged {
			s.Flagged++
			if v.Diurnal.Diurnal {
				s.FlaggedDiurnal++
			}
		}
		if v.Congested {
			s.Congested++
			switch v.Class {
			case Sustained:
				s.Sustained++
			case Transient:
				s.Transient++
			}
		}
	}
	return s
}
