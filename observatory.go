package afrixp

import (
	"io"
	"time"

	"afrixp/internal/analysis"
	"afrixp/internal/bdrmap"
	"afrixp/internal/budget"
	"afrixp/internal/experiments"
	"afrixp/internal/faults"
	"afrixp/internal/ixpdir"
	"afrixp/internal/levelshift"
	"afrixp/internal/monitor"
	"afrixp/internal/observatory"
	"afrixp/internal/registry"
	"afrixp/internal/report"
	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
	"afrixp/internal/telemetry"
	"afrixp/internal/worldgen"
)

// CampaignConfig configures a full measurement campaign: bdrmap
// discovery snapshots, TSLP probing of every discovered link, loss
// batches on the case-study links, and the threshold-sweep analysis.
type CampaignConfig struct {
	// Seed drives every deterministic process (default: fixed).
	Seed uint64
	// Scale sizes the world. At 1.0 (the default) and below it scales
	// the authored paper world's synthetic populations; above 1.0 it
	// switches to the continent-scale generator (internal/worldgen),
	// synthesizing a world at Scale× the paper's size — 10× ≈ 15 IXPs
	// and ~10^4 interdomain links, 100× ≈ 40 IXPs and ~6·10^4 links —
	// with planted, machine-checkable congestion ground truth.
	Scale float64
	// GenSeed seeds the continent-scale generator independently of
	// Seed (only read when Scale > 1; 0 = the generator's default).
	GenSeed uint64
	// Days bounds the campaign from the paper's start date; zero runs
	// the paper's full period (2016-02-22 … 2017-03-27).
	Days int
	// StartOffsetDays delays the campaign start from the epoch (used
	// to center short campaigns on specific case-study phases).
	StartOffsetDays int
	// DisableLoss skips the 1 pps loss campaigns.
	DisableLoss bool
	// Workers fans probing and analysis across goroutines; results are
	// bit-identical for any value. Default runtime.GOMAXPROCS(0).
	Workers int
	// BatchSteps caps how many probing steps the scheduler hands a
	// worker per dispatch between barrier events; results are
	// bit-identical for any value. Default 1024.
	BatchSteps int
	// Shards partitions the campaign's VPs into Shards groups, each
	// with one shared compression arena bounding its resident series
	// memory; results are bit-identical for any value (see
	// internal/experiments). 0 or 1 means one arena per VP.
	Shards int
	// Faults enables the deterministic fault plan: VP outages, ICMP
	// blackouts and rate-limit duty cycles on case-link routers, and
	// link flaps, all drawn from the world seed (see internal/faults).
	// Fault boundaries become batch barriers, so results remain
	// bit-identical for any Workers / BatchSteps.
	Faults bool
	// FaultSeed perturbs the fault plan independently of Seed (only
	// read when Faults is set).
	FaultSeed uint64
	// Budget, when positive, installs the probe-budget scheduler: links
	// are ranked by marginal utility (streaming CUSUM evidence,
	// loss-rate variance, diurnal-window proximity) and probed at
	// adaptive power-of-two periods so the campaign spends at most
	// Budget of the full-rate probe count — flat links back off to a
	// heartbeat floor and plateau-stop, suspected level shifts densify
	// to full rate. Results are bit-identical per (Budget, BudgetSeed)
	// for any Workers × BatchSteps (see internal/budget). A budget of
	// 1 (or above, clamped) still runs the scheduler — every link at
	// period 1, spend parity with unscheduled probing — so full-budget
	// runs exercise the same code path as 99.9 %. 0 (the default)
	// disables the scheduler entirely.
	Budget float64
	// BudgetSeed perturbs the budget scheduler's probe interleaving
	// independently of Seed (only read when Budget is enabled).
	BudgetSeed uint64
	// CheckpointDir, when non-empty, serializes the engine's full
	// measurement state into the directory every CheckpointEvery of
	// virtual time at a batch barrier (internal/checkpoint,
	// DESIGN.md §15). Results are bit-identical with checkpointing on
	// or off.
	CheckpointDir string
	// CheckpointEvery is the virtual-time checkpoint cadence (default
	// 24 h of campaign time when CheckpointDir is set).
	CheckpointEvery time.Duration
	// Resume loads the newest valid checkpoint from CheckpointDir and
	// resumes the campaign from its barrier, bit-identical to an
	// uninterrupted run. A checkpoint from a differently-configured
	// run fails loudly; an empty directory starts fresh.
	Resume bool
	// Observatory, when non-nil, attaches the streaming observation
	// service: the engine feeds it collected slots at batch barriers,
	// its per-link online detectors walk clear → suspected → congested
	// as virtual time advances, and its HTTP API (mount beside /metrics
	// via Telemetry.Serve and Observatory.Mount) serves the live link
	// table, alert log, and SSE stream. Strictly read-side: campaign
	// results are bit-identical with or without it, and the service's
	// own alert log and end-of-campaign verdicts are bit-identical for
	// any Workers × BatchSteps × Shards (DESIGN.md §16).
	Observatory *Observatory
	// Progress, when non-nil, receives campaign progress lines.
	Progress io.Writer
	// Telemetry, when non-nil, instruments the campaign: counters,
	// per-worker utilization, and the phase span/event log, readable
	// live (Telemetry.Serve) or exported afterwards (WriteJSON).
	// Strictly read-side: results are bit-identical with or without it.
	Telemetry *Telemetry
}

// Telemetry is the campaign instrumentation root (see
// internal/telemetry): lock-free counters and histograms plus a
// span/event log with virtual- and wall-clock stamps.
type Telemetry = telemetry.Telemetry

// TelemetrySnapshot is the frozen JSON export of a Telemetry.
type TelemetrySnapshot = telemetry.Snapshot

// NewTelemetry builds a telemetry root ready to attach to a campaign.
func NewTelemetry() *Telemetry { return telemetry.New() }

// Observatory is the streaming congestion-observation service (see
// internal/observatory): per-link online level-shift detectors fed at
// batch barriers, a deterministic alert log, and a live HTTP/SSE API.
type Observatory = observatory.Service

// ObservatoryConfig tunes a streaming observatory.
type ObservatoryConfig = observatory.Config

// ObservatoryAlert is one timestamped link state transition from the
// streaming detector's clear → suspected → congested ladder.
type ObservatoryAlert = observatory.Alert

// NewObservatory builds a streaming observatory ready to attach to a
// campaign (CampaignConfig.Observatory) and to mount beside /metrics
// (Telemetry.Serve(addr, svc.Mount)).
func NewObservatory(cfg ObservatoryConfig) *Observatory { return observatory.New(cfg) }

// Campaign is the result of a full run: per-VP discovery snapshots,
// per-link verdicts, and case-study series.
type Campaign = experiments.Result

// LinkRecord is one probed link's campaign data.
type LinkRecord = experiments.LinkRecord

// Verdict is the per-link congestion analysis outcome.
type Verdict = analysis.Verdict

// Figure is one reproduced paper figure.
type Figure = experiments.Figure

// VPYield is one vantage point's uptime and sample-yield accounting
// (meaningful when the campaign ran with Faults enabled).
type VPYield = experiments.VPYield

// FaultSchedule is the injected fault plan attached to a campaign.
type FaultSchedule = faults.Schedule

// Table re-exports the report table for rendering.
type Table = report.Table

// RunCampaign executes the campaign and per-link analysis.
func RunCampaign(cfg CampaignConfig) *Campaign { return experiments.Run(cfg.EngineConfig()) }

// EngineConfig translates the campaign configuration into the engine's:
// the world (the authored paper world, or a generated one above Scale
// 1), the probed window, the fault plan and the probe budget. Sweeps
// that rerun one campaign under several settings start from it.
func (cfg CampaignConfig) EngineConfig() experiments.Config {
	ecfg := experiments.Config{
		Opts:        scenario.Options{Seed: cfg.Seed, Scale: cfg.Scale},
		DisableLoss: cfg.DisableLoss,
		Workers:     cfg.Workers,
		BatchSteps:  cfg.BatchSteps,
		Shards:      cfg.Shards,
		Progress:    cfg.Progress,
		Telemetry:   cfg.Telemetry,
		Observatory: cfg.Observatory,

		CheckpointDir:   cfg.CheckpointDir,
		CheckpointEvery: simclock.Duration(cfg.CheckpointEvery),
	}
	if cfg.Resume {
		ecfg.ResumeFrom = cfg.CheckpointDir
	}
	if cfg.Scale > 1 {
		// Continent scale: swap the authored paper world for a
		// generated one. Scale ≤ 1 keeps every existing invocation
		// byte-identical to before the generator existed.
		gcfg := worldgen.Options{Seed: cfg.GenSeed, Scale: cfg.Scale}
		ecfg.BuildWorld = func() *scenario.World { return worldgen.Generate(gcfg) }
	}
	if cfg.Faults {
		ecfg.Faults = &faults.Config{Seed: cfg.FaultSeed}
	}
	if cfg.Budget > 0 {
		ecfg.Budget = &budget.Config{Fraction: cfg.Budget, Seed: cfg.BudgetSeed}
	}
	ecfg.Campaign = CampaignWindow(cfg.Days, cfg.StartOffsetDays)
	return ecfg
}

// CampaignWindow turns a campaign length and start offset, in days from
// the epoch, into the probed interval, cut at the end of the paper's
// latency campaign. days ≤ 0 runs to that end; with no offset either it
// is the zero interval, which the engine reads as the paper's period.
func CampaignWindow(days, startOffsetDays int) Interval {
	start := simclock.Time(0).Add(time.Duration(startOffsetDays) * 24 * time.Hour)
	switch {
	case days > 0:
		return Interval{Start: start, End: min(start.Add(time.Duration(days)*24*time.Hour), simclock.LatencyEnd)}
	case startOffsetDays > 0:
		return Interval{Start: start, End: simclock.LatencyEnd}
	}
	return Interval{}
}

// Table1 computes the paper's threshold-sensitivity rows.
func Table1(c *Campaign) []experiments.Table1Row { return experiments.Table1(c) }

// Table1Report renders Table 1.
func Table1Report(c *Campaign) *Table { return experiments.Table1Report(c) }

// Table2 computes the per-VP evolution rows.
func Table2(c *Campaign) []experiments.Table2Row { return experiments.Table2(c) }

// Table2Report renders Table 2.
func Table2Report(c *Campaign) *Table { return experiments.Table2Report(c) }

// Figures extracts every reproducible figure covered by the campaign
// interval.
func Figures(c *Campaign) []Figure { return experiments.Figures(c) }

// Headline returns the per-VP congested-link rows and the overall
// congested fraction (the paper's 2.2 % result).
func Headline(c *Campaign) ([]experiments.HeadlineRow, float64) {
	return experiments.Headline(c)
}

// BdrmapAccuracy returns the mean neighbor-discovery coverage across
// all snapshots (the paper reports 96.2 %).
func BdrmapAccuracy(c *Campaign) float64 { return experiments.BdrmapAccuracy(c) }

// Waveforms returns A_w / Δt_UD per case-study link.
func Waveforms(c *Campaign) []experiments.Waveform { return experiments.Waveforms(c) }

// BorderMap runs a one-shot bdrmap discovery from a VP at virtual
// time t, using the world's published datasets.
func BorderMap(w *World, vp *VP, t Time) (*bdrmap.Result, error) {
	p := NewProber(w, vp)
	return bdrmap.Run(p, bdrmap.Config{
		BGP:      w.BGP,
		Rels:     w.Graph,
		RIR:      registry.NewIndex(w.RIRFile),
		IXP:      ixpdir.NewIndex(w.Directory),
		Geo:      w.GeoDB,
		RDNS:     w.RDNS,
		Siblings: vp.Siblings,
	}, t)
}

// BorderMapResult is the bdrmap output type.
type BorderMapResult = bdrmap.Result

// ValidateNeighbors scores an inferred neighbor set against ground
// truth: the discovered fraction plus missed and spurious neighbors.
func ValidateNeighbors(res *BorderMapResult, truth []ASN) (frac float64, missed, spurious []ASN) {
	return bdrmap.ValidateNeighbors(res, truth)
}

// AnalysisConfig tunes the per-link congestion analysis.
type AnalysisConfig = analysis.Config

// DefaultAnalysisConfig is the paper's operating point: 10 ms
// threshold, 30-minute minimum event duration.
func DefaultAnalysisConfig() AnalysisConfig { return analysis.DefaultConfig() }

// Sweeper runs the §5.2 pipeline over links' collected series:
// AnalyzeLink at one threshold, AnalyzeLinkSweep across a Table 1
// threshold sweep (level shifts detected once per link end, classified
// per threshold). It reuses its detector and working memory across
// links, so hold one per goroutine.
type Sweeper = analysis.Sweeper

// NewSweeper builds a link analyzer.
func NewSweeper() *Sweeper { return analysis.NewSweeper() }

// LinkSeries carries one link's near/far RTT series.
type LinkSeries = analysis.LinkSeries

// Collector streams TSLP rounds into analysis-ready series.
type Collector = analysis.Collector

// CollectorConfig sizes a Collector.
type CollectorConfig = analysis.CollectorConfig

// NewCollector builds a Collector for a TSLP session.
func NewCollector(ts *TSLP, cfg CollectorConfig) *Collector {
	return analysis.NewCollector(ts, cfg)
}

// LevelShiftEvent is one detected congestion episode.
type LevelShiftEvent = levelshift.Event

// Monitor is the online congestion watcher (the §7 recommendation
// implemented): feed it TSLP rounds and it raises onset / cleared /
// unreachable alerts as they happen.
type Monitor = monitor.Monitor

// MonitorConfig tunes the online watcher.
type MonitorConfig = monitor.Config

// Alert is one operator notification from a Monitor.
type Alert = monitor.Alert

// Alert kinds.
const (
	AlertOnset       = monitor.Onset
	AlertCleared     = monitor.Cleared
	AlertUnreachable = monitor.Unreachable
)

// NewMonitor builds an online watcher for one link.
func NewMonitor(target LinkTarget, cfg MonitorConfig) *Monitor {
	return monitor.New(target, cfg)
}
