package analysis

import (
	"afrixp/internal/cusum"
	"afrixp/internal/diurnal"
	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
)

// StreamState is a link's live status in the streaming observatory —
// the online projection of the batch pipeline's verdict ladder:
// StreamClear ↔ not flagged, StreamSuspected ↔ flagged with a flat
// near end ("potentially congested" in Table 1 terms), and
// StreamCongested once the recurring diurnal pattern confirms.
type StreamState int8

// Streaming link states.
const (
	StreamClear StreamState = iota
	StreamSuspected
	StreamCongested
)

// String names the state for the API and alert log.
func (s StreamState) String() string {
	switch s {
	case StreamSuspected:
		return "suspected"
	case StreamCongested:
		return "congested"
	default:
		return "clear"
	}
}

// StreamTransition is one timestamped state change on one link — the
// observatory's alert unit. At is the virtual time of the aggregated
// slot whose evidence crossed, NOT the wall/barrier time it was
// computed at, which is what keeps the alert log invariant across
// Workers × BatchSteps × Shards.
type StreamTransition struct {
	At       simclock.Time
	From, To StreamState
	// ThresholdMs is the magnitude threshold in force.
	ThresholdMs float64
	// MagnitudeMs is the estimated level-shift magnitude (current fast
	// level minus frozen pre-shift baseline) at the transition.
	MagnitudeMs float64
	// Evidence is the far-end rank-CUSUM evidence at the transition.
	Evidence float64
}

// A StreamDetector's fixed tuning: the paper's operating point.
const (
	// streamThresholdMs is the level-shift magnitude threshold, as in
	// the batch Config.
	streamThresholdMs = 10.0
	// streamEvidenceOn is the far-end rank-CUSUM evidence, in
	// rank-sigma, needed to promote Clear → Suspected.
	streamEvidenceOn = 8
	// streamEvidenceOff is the evidence floor below which (together
	// with a collapsed magnitude) a link demotes back to Clear. It
	// also gates the pre-shift baseline freeze.
	streamEvidenceOff = 2
	// streamNearFlatMs bounds the near end's own magnitude estimate: a
	// link only promotes while the near shift stays under it,
	// mirroring the batch pipeline's NearFlat gate.
	streamNearFlatMs = streamThresholdMs
	// streamHoldSlots is how many consecutive qualifying slots the
	// demotion condition must hold before a non-clear link demotes —
	// diurnal congestion relaxes every off-peak night, and the batch
	// pipeline treats the whole epoch as one event, so demotion must
	// survive a full day of quiet (48 slots at 30-minute bins).
	streamHoldSlots = 48
)

// streamDiurnal gates Suspected → Congested. It follows the online
// monitor: MinDays 3 (an operator wants confirmation in days, not the
// batch detector's 5) and an amplitude floor of 0.8 × the threshold.
var streamDiurnal = diurnal.Config{MinDays: 3, MinAmplitudeMs: streamThresholdMs * 0.8}

// StreamDetector is the incremental per-link counterpart of
// Sweeper.AnalyzeLink: fed one finalized aggregated slot at a time it keeps
// (1) a rank-CUSUM over the far end for robust level-shift evidence,
// (2) a frozen-baseline magnitude estimate, (3) an EWMA-CUSUM over
// the near end to reject shifts upstream of the link, and (4) an
// incremental diurnal fold to confirm the recurring daily pattern —
// and walks the clear → suspected → congested ladder the moment the
// evidence crosses, instead of at campaign end.
//
// The detector's outputs steer *alert timing only*; end-of-campaign
// verdicts always come from the batch sweep over the full collected
// series, which is how bit-identity with AnalyzeLinkSweep is kept (see
// DESIGN.md §16). Everything here is a pure function of the fed
// (time, near, far) sequence, so the alert log itself is also
// deterministic. Allocation-free after New.
type StreamDetector struct {
	far  *cusum.RankStream
	near *cusum.RankStream
	fold *diurnal.StreamFold

	// Magnitude estimates per end: slow tracks the pre-shift level
	// (frozen while that end's evidence is elevated so the shift cannot
	// leak in), fast tracks the current level.
	farLvl, nearLvl levelTrack

	state    StreamState
	holdDown int // consecutive slots the demotion condition held
}

// levelTrack is a two-speed EWMA level estimator; magnitude is the
// fast (current) level minus the slow (pre-shift) baseline.
type levelTrack struct {
	slow, fast float64
	primed     bool
}

func (l *levelTrack) observe(v float64, freeze bool) {
	if !l.primed {
		l.slow, l.fast, l.primed = v, v, true
		return
	}
	l.fast += streamFastAlpha * (v - l.fast)
	if !freeze {
		l.slow += streamSlowAlpha * (v - l.slow)
	}
}

func (l *levelTrack) magnitude() float64 {
	if !l.primed {
		return 0
	}
	if m := l.fast - l.slow; m > 0 {
		return m
	}
	return 0
}

func (l *levelTrack) reset() { l.slow, l.fast, l.primed = 0, 0, false }

// NewStreamDetector builds a per-link detector.
func NewStreamDetector() *StreamDetector {
	return &StreamDetector{
		far:  cusum.NewRankStream(),
		near: cusum.NewRankStream(),
		fold: diurnal.NewStreamFold(streamDiurnal),
	}
}

// EWMA smoothing factors for the magnitude estimate, per 30-minute
// slot: slow ≈ 4-day memory, fast ≈ 2.5-hour memory.
const (
	streamSlowAlpha = 0.005
	streamFastAlpha = 0.2
)

// Observe feeds one finalized aggregated slot (virtual time t, near
// and far RTT in ms, Missing allowed) and reports the state
// transition it caused, if any. Allocation-free.
func (d *StreamDetector) Observe(t simclock.Time, nearMs, farMs float64) (StreamTransition, bool) {
	d.fold.Observe(t, farMs)
	if !timeseries.IsMissing(nearMs) {
		d.near.Observe(nearMs)
		d.nearLvl.observe(nearMs, d.near.Evidence() >= streamEvidenceOff)
	}
	if timeseries.IsMissing(farMs) {
		return StreamTransition{}, false
	}
	d.far.Observe(farMs)
	// Freeze the pre-shift baseline while any meaningful evidence is
	// accumulating so the shifted regime cannot absorb into it.
	d.farLvl.observe(farMs, d.far.Evidence() >= streamEvidenceOff)
	return d.step(t)
}

// step evaluates the state machine after a slot lands.
func (d *StreamDetector) step(t simclock.Time) (StreamTransition, bool) {
	ev := d.far.Evidence()
	mag := d.MagnitudeMs()
	quiet := ev < streamEvidenceOff && mag < streamThresholdMs/2
	if quiet {
		d.holdDown++
	} else {
		d.holdDown = 0
	}
	from := d.state
	switch d.state {
	case StreamClear:
		if ev >= streamEvidenceOn && d.far.Upward() && mag >= streamThresholdMs &&
			d.nearLvl.magnitude() < streamNearFlatMs {
			d.state = StreamSuspected
		}
	case StreamSuspected:
		if d.fold.Snapshot().Decide(streamDiurnal).Diurnal {
			d.state = StreamCongested
		} else if d.holdDown >= streamHoldSlots {
			d.state = StreamClear
		}
	case StreamCongested:
		if d.holdDown >= streamHoldSlots {
			d.state = StreamClear
		}
	}
	if d.state == from {
		return StreamTransition{}, false
	}
	d.holdDown = 0
	return StreamTransition{
		At:          t,
		From:        from,
		To:          d.state,
		ThresholdMs: streamThresholdMs,
		MagnitudeMs: mag,
		Evidence:    ev,
	}, true
}

// State is the link's current streaming status.
func (d *StreamDetector) State() StreamState { return d.state }

// Evidence is the current far-end rank-CUSUM evidence.
func (d *StreamDetector) Evidence() float64 { return d.far.Evidence() }

// MagnitudeMs is the current far-end level-shift magnitude estimate
// (fast level minus frozen pre-shift baseline, floored at zero).
func (d *StreamDetector) MagnitudeMs() float64 { return d.farLvl.magnitude() }

// Snapshot is the incremental diurnal fold's verdict so far, gated by
// the detector's diurnal config.
func (d *StreamDetector) Snapshot() diurnal.Verdict {
	return d.fold.Snapshot().Decide(streamDiurnal)
}

// Profile appends the current day-folded far-end profile to dst — the
// /links/{id} diurnal surface.
func (d *StreamDetector) Profile(dst []float64) []float64 {
	return d.fold.Profile(dst)
}

// Reset clears all accumulated state, keeping tuning and allocations —
// the checkpoint-resume replay path re-feeds from slot zero.
func (d *StreamDetector) Reset() {
	d.far.Reset()
	d.near.Reset()
	d.fold.Reset()
	d.farLvl.reset()
	d.nearLvl.reset()
	d.state = StreamClear
	d.holdDown = 0
}
