// Package monitor implements the paper's §7 recommendation as a
// running system: "it is important that ISPs carefully monitor their
// peering links at IXPs to avoid or to quickly mitigate congestion".
// Where internal/analysis judges a finished campaign, the Monitor
// consumes TSLP rounds as they happen and raises congestion-onset and
// congestion-cleared alerts online, answering the operational question
// the paper leaves open: how quickly would an operator have been told?
package monitor

import (
	"time"

	"afrixp/internal/analysis"
	"afrixp/internal/levelshift"
	"afrixp/internal/prober"
	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
)

// Config tunes the online detector.
type Config struct {
	// ThresholdMs is the level-shift magnitude threshold (paper: 10).
	ThresholdMs float64
	// Window is the sliding analysis window. Default 7 days — long
	// enough for the diurnal-consistency check to mean something.
	Window simclock.Duration
	// ConfirmDays is how many consecutive window evaluations must
	// agree before an alert fires (debouncing). Default 2.
	ConfirmDays int
	// Step is the probing cadence feeding the monitor (default 5 min).
	Step simclock.Duration
	// EvaluateEvery controls how often the window is re-analyzed.
	// Default 24 h (one evaluation per day, after the day completes).
	EvaluateEvery simclock.Duration
}

func (c Config) withDefaults() Config {
	if c.ThresholdMs <= 0 {
		c.ThresholdMs = 10
	}
	if c.Window <= 0 {
		c.Window = 7 * 24 * time.Hour
	}
	if c.ConfirmDays <= 0 {
		c.ConfirmDays = 2
	}
	if c.Step <= 0 {
		c.Step = 5 * time.Minute
	}
	if c.EvaluateEvery <= 0 {
		c.EvaluateEvery = 24 * time.Hour
	}
	return c
}

// AlertKind labels an alert.
type AlertKind int8

// Alert kinds.
const (
	// Onset: the link entered confirmed congestion.
	Onset AlertKind = iota
	// Cleared: a previously congested link has been clean for the
	// confirmation period (mitigation verified — the upgrade worked).
	Cleared
	// Unreachable: the far end stopped answering entirely (the
	// GIXA–GHANATEL shutdown signature).
	Unreachable
)

// String names the kind.
func (k AlertKind) String() string {
	switch k {
	case Onset:
		return "congestion-onset"
	case Cleared:
		return "congestion-cleared"
	default:
		return "far-end-unreachable"
	}
}

// Alert is one operator notification.
type Alert struct {
	At     simclock.Time
	Target prober.LinkTarget
	Kind   AlertKind
	// MagnitudeMs carries the elevation for Onset alerts.
	MagnitudeMs float64
}

// Monitor watches one link online.
type Monitor struct {
	cfg    Config
	target prober.LinkTarget
	// sw runs every daily evaluation, reusing its detector and working
	// memory.
	sw *analysis.Sweeper

	// ring buffers of aggregated 30-min minima over the window.
	near, far    *ring
	lastEval     simclock.Time
	started      bool
	congested    bool
	agreeOnset   int
	agreeCleared int

	// far-end reachability tracking
	farLostRun int
	unreachble bool
}

// New builds a monitor for one link.
func New(target prober.LinkTarget, cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	bins := int(cfg.Window / (30 * time.Minute))
	return &Monitor{
		cfg:    cfg,
		target: target,
		sw:     analysis.NewSweeper(),
		near:   newRing(bins, 30*time.Minute),
		far:    newRing(bins, 30*time.Minute),
	}
}

// Feed consumes one TSLP round and returns any alerts it triggers.
func (m *Monitor) Feed(s prober.Sample) []Alert {
	if !m.started {
		m.near.reset(s.At)
		m.far.reset(s.At)
		m.lastEval = s.At
		m.started = true
	}
	if !s.NearLost {
		m.near.observe(s.At, float64(s.NearRTT)/float64(time.Millisecond))
	}
	if !s.FarLost {
		m.far.observe(s.At, float64(s.FarRTT)/float64(time.Millisecond))
		m.farLostRun = 0
	} else {
		m.farLostRun++
	}

	var alerts []Alert
	// Reachability: a day of continuous far loss is a dead link.
	deadAfter := int(24 * time.Hour / m.cfg.Step)
	if !m.unreachble && m.farLostRun >= deadAfter {
		m.unreachble = true
		alerts = append(alerts, Alert{At: s.At, Target: m.target, Kind: Unreachable})
	}
	if m.unreachble && !s.FarLost {
		m.unreachble = false
	}

	if s.At.Sub(m.lastEval) < m.cfg.EvaluateEvery {
		return alerts
	}
	m.lastEval = s.At
	alerts = append(alerts, m.evaluate(s.At)...)
	return alerts
}

// evaluate runs the windowed analysis and updates the alert state.
func (m *Monitor) evaluate(at simclock.Time) []Alert {
	nearS, farS := m.near.series(), m.far.series()
	if farS.PresentCount() < 48 { // need at least a day of data
		return nil
	}
	cfg := analysis.DefaultConfig()
	cfg.ThresholdMs = m.cfg.ThresholdMs
	// Online variant: the window is short, so diurnal confirmation
	// needs fewer days than the offline default.
	cfg.Diurnal.MinDays = 3
	v := m.sw.AnalyzeLink(analysis.LinkSeries{Target: m.target, Near: nearS, Far: farS}, cfg)

	hot := v.Flagged && v.NearFlat && v.Diurnal.Diurnal
	var alerts []Alert
	if hot && !m.congested {
		m.agreeOnset++
		m.agreeCleared = 0
		if m.agreeOnset >= m.cfg.ConfirmDays {
			m.congested = true
			m.agreeOnset = 0
			alerts = append(alerts, Alert{At: at, Target: m.target, Kind: Onset,
				MagnitudeMs: levelshift.Result{Events: v.Far.Events}.AW()})
		}
	} else if !hot && m.congested {
		m.agreeCleared++
		m.agreeOnset = 0
		if m.agreeCleared >= m.cfg.ConfirmDays {
			m.congested = false
			m.agreeCleared = 0
			alerts = append(alerts, Alert{At: at, Target: m.target, Kind: Cleared})
		}
	} else {
		m.agreeOnset = 0
		m.agreeCleared = 0
	}
	return alerts
}

// Congested reports the monitor's current belief.
func (m *Monitor) Congested() bool { return m.congested }

// ring is a fixed-capacity window of min-filtered bins.
type ring struct {
	binWidth simclock.Duration
	vals     []float64
	start    simclock.Time // time of vals[0]
}

func newRing(bins int, width simclock.Duration) *ring {
	r := &ring{binWidth: width, vals: make([]float64, bins)}
	for i := range r.vals {
		r.vals[i] = timeseries.Missing
	}
	return r
}

func (r *ring) reset(at simclock.Time) {
	r.start = at.Truncate(r.binWidth)
	for i := range r.vals {
		r.vals[i] = timeseries.Missing
	}
}

// observe records a sample, sliding the window forward as needed.
func (r *ring) observe(at simclock.Time, v float64) {
	idx := int(at.Sub(r.start) / r.binWidth)
	for idx >= len(r.vals) {
		// Slide one bin: drop the oldest.
		copy(r.vals, r.vals[1:])
		r.vals[len(r.vals)-1] = timeseries.Missing
		r.start = r.start.Add(r.binWidth)
		idx--
	}
	if idx < 0 {
		return
	}
	if timeseries.IsMissing(r.vals[idx]) || v < r.vals[idx] {
		r.vals[idx] = v
	}
}

// series snapshots the window as a regular series.
func (r *ring) series() *timeseries.Series {
	return timeseries.FromValues(r.start, r.binWidth, r.vals)
}
