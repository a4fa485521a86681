// Package afrixp is a full reproduction of "Investigating the Causes
// of Congestion on the African IXP Substrate" (Fanou, Valera,
// Dhamdhere — ACM IMC 2017) as a Go library.
//
// The paper deployed Ark probes at six African IXPs and ran the
// time-sequence latency probes (TSLP) technique for a year to detect
// congestion on interdomain links. Reproducing that requires hardware
// and vantage points this library replaces with a deterministic
// packet-level simulator; everything above the wire is the real
// pipeline:
//
//   - a simulated internetwork (routers, IXP switch fabrics, fluid
//     queues driven by diurnal traffic models, ICMP semantics),
//   - a scamper-like prober (TTL-limited probes, record-route, token
//     bucket pacing, warts-style output),
//   - border mapping (bdrmap) over RIR delegations and IXP directory
//     datasets in their real file formats,
//   - the TSLP analysis: rank-based CUSUM level-shift detection,
//     diurnal-pattern filtering, loss-rate batches, and sustained/
//     transient classification,
//   - the paper's scenario: GIXA, TIX, JINX, SIXP, KIXP and RINEX,
//     with the GIXA–GHANATEL, GIXA–KNET and QCELL–NETPAGE case
//     studies and the membership churn of Table 2.
//
// # Quick start
//
//	world := afrixp.NewWorld(afrixp.WorldOptions{Seed: 1, Scale: 0.2})
//	vp, _ := world.VPByID("VP4")
//	p := afrixp.NewProber(world, vp)
//	session, _ := p.NewTSLP(vp.CaseLinks["QCELL-NETPAGE"])
//	sample := session.Round(afrixp.Date(2016, 3, 9).Add(13 * time.Hour))
//
// collect a window of rounds and run the §5.2 analysis over it — one
// Sweeper per goroutine is the one entry to the pipeline, at one
// threshold (AnalyzeLink) or across Table 1's sweep (AnalyzeLinkSweep):
//
//	col := afrixp.NewCollector(session, afrixp.CollectorConfig{Campaign: window})
//	window.Steps(5*time.Minute, func(t afrixp.Time) { world.AdvanceTo(t); col.Round(t) })
//	verdict := afrixp.NewSweeper().AnalyzeLink(col.Series(), afrixp.DefaultAnalysisConfig())
//
// or run the paper's entire campaign and regenerate its tables (the
// cmd/repro command does this, and with -out writes the report,
// figures and warts archive into a directory):
//
//	campaign := afrixp.RunCampaign(afrixp.CampaignConfig{Days: 60})
//	afrixp.Table1Report(campaign).Render(os.Stdout)
package afrixp

import (
	"time"

	"afrixp/internal/asrel"
	"afrixp/internal/netsim"
	"afrixp/internal/prober"
	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
)

// Time is a virtual timestamp (nanoseconds since the campaign epoch,
// 2016-02-22 00:00 UTC).
type Time = simclock.Time

// Interval is a half-open span of virtual time.
type Interval = simclock.Interval

// Epoch returns the wall-clock instant of Time(0).
func Epoch() time.Time { return simclock.Epoch }

// Date converts a calendar date to virtual time.
func Date(year int, month time.Month, day int) Time {
	return simclock.Date(year, month, day)
}

// CampaignEnd is the end of the paper's latency campaign
// (2017-03-27).
func CampaignEnd() Time { return simclock.LatencyEnd }

// WorldOptions configures the simulated six-IXP world.
type WorldOptions = scenario.Options

// World is the simulated internetwork plus the datasets and ground
// truth of the study.
type World = scenario.World

// VP is one of the paper's six vantage points.
type VP = scenario.VP

// LinkTarget identifies a discovered interdomain IP link by its near
// and far addresses.
type LinkTarget = prober.LinkTarget

// NewWorld builds the paper's world. Scale 1.0 reproduces the
// Table-1-like population sizes; smaller values shrink the synthetic
// member populations proportionally.
func NewWorld(opts WorldOptions) *World {
	return scenario.Paper(opts)
}

// Prober is the scamper-like measurement agent bound to one VP.
type Prober = prober.Prober

// TSLP is a time-sequence latency probe session on one link.
type TSLP = prober.TSLP

// NewProber binds a measurement agent to a vantage point.
func NewProber(w *World, vp *VP) *Prober {
	return prober.New(w.Net, vp.Node, prober.Config{Name: vp.Monitor})
}

// Node re-exports the simulator node type for topology inspection.
type Node = netsim.Node

// ASN is an autonomous system number.
type ASN = asrel.ASN
