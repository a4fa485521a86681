// Package experiments reproduces the paper's evaluation: it drives
// the full measurement campaign (bdrmap discovery snapshots, per-link
// TSLP probing every 5 minutes, 1 pps loss batches on the case-study
// links) over the simulated world, then regenerates every table and
// figure: Table 1 (threshold sensitivity), Table 2 (per-VP evolution),
// Figures 1–4 (case-study RTT and loss series), the §6.1 headline
// congested fraction, the §4 bdrmap validation, and the §5.2 waveform
// statistics.
package experiments

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"time"

	"afrixp/internal/analysis"
	"afrixp/internal/asrel"
	"afrixp/internal/bdrmap"
	"afrixp/internal/budget"
	"afrixp/internal/faults"
	"afrixp/internal/loss"
	"afrixp/internal/netaddr"
	"afrixp/internal/observatory"
	"afrixp/internal/prober"
	"afrixp/internal/rrcheck"
	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
	"afrixp/internal/telemetry"
	"afrixp/internal/tschunk"
)

// Config drives one campaign.
type Config struct {
	// Opts builds the world.
	Opts scenario.Options
	// BuildWorld, when non-nil, supplies the world instead of
	// scenario.Paper(Opts) — the hook continent-scale generated worlds
	// (internal/worldgen) enter the engine through. The builder must
	// return a fully authored world; Run calls nothing but the
	// standard campaign machinery on it.
	BuildWorld func() *scenario.World
	// Campaign bounds the probing. Zero value = the paper's period
	// (2016-02-22 … 2017-03-27).
	Campaign simclock.Interval
	// Step is the TSLP cadence (default 5 min).
	Step simclock.Duration
	// RefreshEvery re-runs link discovery (default 14 days).
	RefreshEvery simclock.Duration
	// Thresholds for the Table 1 sweep (default 5/10/15/20 ms).
	Thresholds []float64
	// DisableLoss skips the loss campaigns.
	DisableLoss bool
	// Workers fans the probing loop out across per-VP goroutines and
	// the analysis phase across per-link goroutines. Results are
	// bit-identical for any value: probing always samples against the
	// frozen per-step queue frontier with per-VP loss-nonce streams, so
	// goroutine interleaving cannot reach the numbers. Default
	// runtime.GOMAXPROCS(0); 1 runs inline without goroutines.
	Workers int
	// BatchSteps caps how many consecutive quiescent steps the batch
	// planner hands the worker pool at once. Bigger batches amortize
	// the per-step coordination; the cap bounds the per-queue frontier
	// tables AdvanceQueuesBatch records. Results are bit-identical for
	// any value (see DESIGN.md §9). Default 1024; 1 degenerates to the
	// per-step protocol.
	BatchSteps int
	// Shards partitions vantage points into shards (VP i belongs to
	// shard i mod Shards, clamped to the VP count); Shards ≤ 1 means
	// one shard per VP. The shard is the engine's unit of scheduling
	// and memory: one pool task probes a shard's VPs in ascending
	// index order, and all the shard's collectors seal their
	// compressed series into one tschunk.Arena, so per-shard resident
	// bytes are bounded and accountable (published as telemetry shard
	// gauges at batch barriers). Per-VP probing state is fully
	// independent and within-shard order is fixed, so results are
	// bit-identical for any Workers × BatchSteps × Shards setting;
	// effective probing parallelism is min(Workers, shards).
	Shards int
	// Faults, when non-nil, injects a deterministic fault plan — VP
	// outages, ICMP blackouts and rate-limiting at case-link routers,
	// link flaps — into the world before probing starts (see
	// internal/faults). Every episode boundary is a scenario event and
	// therefore a batch-planner barrier; faults are pure functions of
	// virtual time, so results stay bit-identical for any Workers ×
	// BatchSteps setting.
	Faults *faults.Config
	// Budget, when non-nil and enabled, installs the probe-budget
	// scheduler (see internal/budget): links are ranked by marginal
	// utility at fixed virtual-time barriers and probed at adaptive
	// power-of-two periods under Budget.Fraction of the full-rate
	// spend. The hot-path skip decision is pure arithmetic on the
	// global step index (an Outage.Down-style gate), utility state is
	// written only by each VP's own worker, and recompute instants are
	// batch barriers — so budgeted campaigns remain bit-identical per
	// (budget, seed) for any Workers × BatchSteps, and the quiescent
	// probing step stays allocation-free.
	Budget *budget.Config
	// Progress, when non-nil, receives one line per campaign phase.
	// Writes are serialized by the engine. With Telemetry attached the
	// lines are routed through the telemetry event log and stamped
	// with virtual + wall time; without it the plain format is kept.
	Progress io.Writer
	// Telemetry, when non-nil, receives campaign instrumentation:
	// engine/probe/analysis/fault counters, per-worker utilization,
	// and the phase span/event log. Strictly read-side — nothing it
	// records feeds back into the simulation, so results are
	// bit-identical with telemetry on or off at any Workers ×
	// BatchSteps setting (TestTelemetryCampaignBitIdentical pins it),
	// and the steady-state probing step stays allocation-free with
	// collection enabled (DESIGN.md §11).
	Telemetry *telemetry.Telemetry
	// Observatory, when non-nil, attaches the streaming observatory
	// service (internal/observatory): discovered links are registered
	// as they appear, and at every batch barrier the service advances
	// its per-link streaming detectors to the finalized-slot frontier,
	// emitting live clear/suspected/congested alerts over its HTTP API.
	// Strictly read-side, like Telemetry: the feed is cursor-based over
	// finalized aggregation slots with alert timestamps taken from slot
	// virtual times, so the alert log — and, a fortiori, the campaign
	// results — stay bit-identical for any Workers × BatchSteps ×
	// Shards, and the steady-state probing step stays allocation-free
	// with the service attached (both pinned by tests). After the
	// analysis phase the engine hands the service each link's verdicts
	// (SetLinkVerdicts) and calls Finalize, which then has nothing left
	// to sweep: the service's end-of-campaign verdicts are the engine's
	// own, and a fresh service swept independently must match them
	// (DESIGN.md §16). Excluded from the checkpoint manifest: a resumed
	// run may attach or detach it freely.
	Observatory *observatory.Service
	// CheckpointDir, when non-empty, serializes the engine's full
	// measurement state into the directory every CheckpointEvery of
	// virtual time (internal/checkpoint, DESIGN.md §15). Checkpoint
	// instants are forced batch barriers — the step-batched scheduler's
	// proven safe points — so with the batch-partition independence
	// invariant, results stay bit-identical with checkpointing on or
	// off at any Workers × BatchSteps × Shards.
	CheckpointDir string
	// CheckpointEvery is the virtual-time checkpoint cadence, anchored
	// at campaign start. Default 24 h when CheckpointDir is set.
	CheckpointEvery simclock.Duration
	// ResumeFrom, when non-empty, loads the newest valid checkpoint
	// from the directory (usually CheckpointDir itself) and resumes the
	// campaign from its barrier. The engine rebuilds the world, replays
	// the campaign loop up to the barrier without probing (world, queue
	// and discovery state are deterministic functions of config and
	// virtual time), restores the measurement state at the barrier, and
	// probes on — bit-identical to an uninterrupted run. A manifest
	// mismatch (wrong seed, scale, faults, budget, shards, …) panics;
	// Workers and BatchSteps may change freely across the restart. An
	// empty directory starts fresh with a progress note.
	ResumeFrom string
}

// lossBatchEvery spaces the 100-probe loss batches on case links: the
// paper probed continuously at 1 pps, and batch subsampling preserves
// the per-batch loss statistics.
const lossBatchEvery = 10 * time.Minute

func (c Config) withDefaults() Config {
	if c.Campaign.Duration() <= 0 {
		c.Campaign = simclock.Interval{Start: 0, End: simclock.LatencyEnd}
	}
	if c.Step <= 0 {
		c.Step = 5 * time.Minute
	}
	if c.RefreshEvery <= 0 {
		c.RefreshEvery = 14 * 24 * time.Hour
	}
	if len(c.Thresholds) == 0 {
		c.Thresholds = []float64{5, 10, 15, 20}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.BatchSteps <= 0 {
		c.BatchSteps = 1024
	}
	if c.CheckpointDir != "" && c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 24 * time.Hour
	}
	return c
}

// configHash digests every determinism-relevant knob into the
// checkpoint manifest, so a resume onto a differently-configured run
// fails loudly. Execution-shape knobs — Workers, BatchSteps, the
// checkpoint cadence and directories — are deliberately excluded: the
// engine is bit-identical across them, so a restart may change them.
// Call on the defaulted config (withDefaults) so both sides hash the
// same resolved values.
func (c Config) configHash() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "opts=%+v campaign=%d..%d step=%d refresh=%d thr=%v noloss=%t shards=%d",
		c.Opts, c.Campaign.Start, c.Campaign.End, c.Step, c.RefreshEvery,
		c.Thresholds, c.DisableLoss, c.Shards)
	if c.Faults != nil {
		fmt.Fprintf(h, " faults=%+v", *c.Faults)
	}
	if c.Budget != nil {
		fmt.Fprintf(h, " budget=%+v", *c.Budget)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Snapshot is one bdrmap run at a Table 2 date.
type Snapshot struct {
	At     simclock.Time
	Bdrmap *bdrmap.Result
	// TruthNeighborCount is the ground-truth neighbor count at the
	// snapshot (bdrmap validation).
	TruthNeighborCount int
	// Coverage is the fraction of true neighbors discovered.
	Coverage float64
}

// LinkRecord accumulates one discovered link's campaign data.
type LinkRecord struct {
	Target       prober.LinkTarget
	FarAS        asrel.ASN
	ViaIXP       string
	DiscoveredAt simclock.Time
	// CaseName is non-empty for the paper's case-study links.
	CaseName string

	Collector *analysis.Collector
	// Verdicts holds the per-threshold analysis (filled by Reanalyze).
	Verdicts map[float64]analysis.Verdict
	// LossBatches carries the far-end 1 pps loss batches (case links).
	LossBatches []loss.Batch
	// Symmetry is the record-route path-symmetry verdict (§5.2),
	// measured at discovery for case links. Nil when not checked.
	Symmetry *rrcheck.Verdict

	tslp    *prober.TSLP
	lossCol *loss.Collector
	lossIv  simclock.Interval
}

// VPResult is one vantage point's campaign output.
type VPResult struct {
	VP        *scenario.VP
	Prober    *prober.Prober
	Snapshots []Snapshot
	Links     map[prober.LinkTarget]*LinkRecord
	// RoundsScheduled counts the probing steps the engine planned for
	// this VP; RoundsDown counts the ones an injected outage skipped.
	// Uptime accounting for cmd/repro -faults.
	RoundsScheduled, RoundsDown int
	// Engine bookkeeping. records holds Links in discovery order, for
	// deterministic iteration; snapAt and snapIdx are the Table 2
	// snapshot instants and cursor; registered counts the records
	// registered with the budget scheduler and the observatory.
	records    []*LinkRecord
	snapAt     []simclock.Time
	snapIdx    int
	registered int
	// arena is the VP's shard arena; outage is its injected downtime
	// schedule (nil = always up); bview is its view of the
	// probe-budget scheduler, indexed like records (nil = no
	// scheduler, never skips).
	arena  *tschunk.Arena
	outage *faults.Outage
	bview  *budget.VPLinks
}

// SortedLinks returns the VP's link records in discovery order.
func (v *VPResult) SortedLinks() []*LinkRecord {
	return v.records[:len(v.records):len(v.records)]
}

// CaseLink finds a case-study record by name.
func (v *VPResult) CaseLink(name string) (*LinkRecord, bool) {
	for _, lr := range v.Links {
		if lr.CaseName == name {
			return lr, true
		}
	}
	return nil, false
}

// Result is the whole campaign.
type Result struct {
	World *scenario.World
	Cfg   Config
	VPs   []*VPResult
	// Faults is the injected fault schedule; nil without Cfg.Faults.
	Faults *faults.Schedule
}

// VPYield is one vantage point's measurement-health accounting under
// fault injection: how often the VP was up and how often an attempted
// round actually produced a far sample.
type VPYield struct {
	VP string
	// Steps and DownSteps count scheduled probing steps and the ones
	// skipped by VP outages.
	Steps, DownSteps int
	// Links is the number of links the VP watched.
	Links int
	// Rounds / Samples / Missed aggregate per-link collector
	// accounting: rounds attempted, rounds with a far sample, rounds
	// never run because the VP was down.
	Rounds, Samples, Missed int
	// Skipped counts rounds the probe-budget scheduler elected not to
	// run. Kept apart from Missed so budget back-off never reads as
	// an outage: skips are excluded from the SampleYield denominator.
	Skipped int
	// LossSkipped / LossMissed are the same split for the scheduled
	// 1 pps loss rounds on this VP's case links.
	LossSkipped, LossMissed int
	// Uptime is 1 − DownSteps/Steps.
	Uptime float64
	// SampleYield is Samples / (Rounds + Missed): the fraction of
	// scheduled per-link rounds that yielded a far sample. Budget
	// skips are not scheduled work lost, so they don't count.
	SampleYield float64
}

// Yields summarizes per-VP uptime and sample yield, in VP order.
func (r *Result) Yields() []VPYield {
	out := make([]VPYield, 0, len(r.VPs))
	for _, vr := range r.VPs {
		y := VPYield{VP: vr.VP.ID, Steps: vr.RoundsScheduled,
			DownSteps: vr.RoundsDown, Links: len(vr.Links)}
		for _, lr := range vr.SortedLinks() {
			attempted, samples, missed, skipped := lr.Collector.Yield()
			y.Rounds += attempted
			y.Samples += samples
			y.Missed += missed
			y.Skipped += skipped
			if lr.lossCol != nil {
				ls, lm := lr.lossCol.RoundAccounting()
				y.LossSkipped += ls
				y.LossMissed += lm
			}
		}
		if y.Steps > 0 {
			y.Uptime = 1 - float64(y.DownSteps)/float64(y.Steps)
		}
		if tot := y.Rounds + y.Missed; tot > 0 {
			y.SampleYield = float64(y.Samples) / float64(tot)
		}
		out = append(out, y)
	}
	return out
}

// BudgetRounds sums per-link rounds attempted and skipped by the probe
// budget over every VP.
func (r *Result) BudgetRounds() (rounds, skipped int) {
	for _, y := range r.Yields() {
		rounds += y.Rounds
		skipped += y.Skipped
	}
	return rounds, skipped
}

// VPByID finds a VP result by paper label.
func (r *Result) VPByID(id string) (*VPResult, bool) {
	for _, v := range r.VPs {
		if v.VP.ID == id {
			return v, true
		}
	}
	return nil, false
}

// paperSnapshots are the Table 2 dates.
var paperSnapshots = map[string][]simclock.Time{
	"VP1": {simclock.Date(2016, time.March, 17), simclock.Date(2016, time.June, 18), simclock.Date(2016, time.November, 15)},
	"VP2": {simclock.Date(2016, time.March, 19), simclock.Date(2016, time.June, 18), simclock.Date(2016, time.November, 16)},
	"VP3": {simclock.Date(2016, time.July, 27), simclock.Date(2016, time.November, 15), simclock.Date(2017, time.February, 19)},
	"VP4": {simclock.Date(2016, time.March, 18), simclock.Date(2016, time.July, 22), simclock.Date(2016, time.September, 7)},
	"VP5": {simclock.Date(2016, time.March, 11), simclock.Date(2017, time.February, 23), simclock.Date(2017, time.March, 23)},
	"VP6": {simclock.Date(2016, time.July, 27), simclock.Date(2016, time.November, 15), simclock.Date(2017, time.February, 19)},
}

// figureWindows maps case links to the full-resolution retention
// window (union of that link's figure windows).
var figureWindows = map[string]simclock.Interval{
	"GIXA-GHANATEL": {Start: simclock.Date(2016, time.March, 3), End: simclock.Date(2016, time.August, 6)},
	"GIXA-KNET":     {Start: simclock.Date(2016, time.August, 1), End: simclock.Date(2016, time.October, 31)},
	"QCELL-NETPAGE": {Start: simclock.Date(2016, time.February, 29), End: simclock.Date(2016, time.June, 30)},
}

// lossWindows maps case links to their 1 pps loss campaigns.
var lossWindows = map[string]simclock.Interval{
	"GIXA-GHANATEL": {Start: simclock.LossStart.Add(2 * 24 * time.Hour), End: simclock.Date(2016, time.August, 6)},
	"GIXA-KNET":     {Start: simclock.LossStart.Add(2 * 24 * time.Hour), End: simclock.Date(2017, time.March, 27)},
}

// Run executes the campaign and the per-link analysis: world build,
// initial discovery, the step-batched probing loop (DESIGN.md §9) and
// the threshold sweep, each phase inside its telemetry span.
func Run(cfg Config) *Result {
	cfg = cfg.withDefaults()
	e := newEngine(cfg)
	res := e.res
	for _, vr := range res.VPs {
		ws := time.Now()
		e.discover(vr, cfg.Campaign.Start, false)
		e.progress("%s: initial discovery found %d links (took %v)",
			vr.VP.ID, len(vr.Links), time.Since(ws).Round(time.Millisecond))
	}

	probeRef := e.tele.BeginSpan("probing", "", cfg.Campaign.Start)
	probeWall := time.Now()
	e.startProbing()
	cfg.Campaign.StepBatches(cfg.Step, cfg.BatchSteps, e.open, e.quiescent, e.flush)
	e.publish()
	if svc := cfg.Observatory; svc != nil {
		// Drain the tail: slots between the last barrier and campaign
		// end close at or before End, so one final frontier advance
		// completes every link's stream.
		svc.ObserveBarrier(cfg.Campaign.End)
	}
	e.pool.close()
	e.tele.EndSpan(probeRef, cfg.Campaign.End)

	e.progress("campaign done; analyzing %s of series (probing took %v)",
		cfg.Campaign.Duration(), time.Since(probeWall).Round(time.Millisecond))
	anaRef := e.tele.BeginSpan("analysis", "", cfg.Campaign.End)
	anaWall := time.Now()
	res.Reanalyze(cfg.Workers)
	if svc := cfg.Observatory; svc != nil {
		// Hand the service the verdicts just computed, so the campaign
		// sweeps once (DESIGN.md §16). Every watched link is in
		// the records, so Finalize finds nothing left to sweep.
		for _, vr := range res.VPs {
			for _, lr := range vr.records {
				svc.SetLinkVerdicts(vr.VP.ID, lr.Target, lr.Verdicts)
			}
		}
		svc.Finalize(cfg.Thresholds)
	}
	e.tele.EndSpan(anaRef, cfg.Campaign.End)
	for _, vr := range res.VPs {
		e.progress("%s: %d links analyzed", vr.VP.ID, len(vr.Links))
	}
	e.progress("analysis done (took %v)", time.Since(anaWall).Round(time.Millisecond))
	return res
}

// Reanalyze re-runs the per-link threshold-sweep analysis, fanning the
// links out across the given number of workers. Each link runs the
// whole Table-1 sweep (analysis.Sweeper.AnalyzeLinkSweep): the windowed
// rank-CUSUM detection and the diurnal fold run once per link end and
// every threshold reuses them. Each worker threads one
// analysis.Sweeper, so detector scratch is reused across its links too.
// AnalyzeLinkSweep is pure and each task writes only its own record,
// so ordering cannot affect results. Run calls this once; it is
// exported so callers can re-derive verdicts after changing
// Cfg.Thresholds, and it is the benchmark surface for the analysis
// fan-out.
func (r *Result) Reanalyze(workers int) {
	thresholds := r.Cfg.Thresholds
	// Sealing appends to the shard arenas, which take one writer at a
	// time, so every collector seals here, serially in VP order; the
	// fan-out below then only reads.
	var links []*LinkRecord
	for _, vr := range r.VPs {
		for _, lr := range vr.records {
			lr.Collector.Series()
			links = append(links, lr)
		}
	}
	pool := newWorkerPool(min(workers, len(links)), nil)
	defer pool.close()
	sweepers := make([]*analysis.Sweeper, pool.workers)
	for w := range sweepers {
		sweepers[w] = analysis.NewSweeper()
	}
	pool.do(len(links), func(w, i int) {
		lr := links[i]
		verdicts := sweepers[w].AnalyzeLinkSweep(lr.Collector.Series(), analysis.DefaultConfig(), thresholds)
		for k, thr := range thresholds {
			v := verdicts[k]
			if lr.Symmetry != nil && !lr.Symmetry.Symmetric {
				// An asymmetric route invalidates the TSLP
				// attribution: the far-RTT rise may come from a
				// reverse path that does not cross this link.
				v.Symmetric = false
				v.Congested = false
			}
			lr.Verdicts[thr] = v
		}
		if lr.lossCol != nil {
			lr.LossBatches = lr.lossCol.Batches()
		}
	})
	if tele := r.Cfg.Telemetry; tele != nil {
		// Sweeper stats are plain per-worker counters; the pool round
		// has completed, so summing them is race-free. Add (not Store):
		// Reanalyze may run several times per campaign.
		for _, sw := range sweepers {
			st := sw.Stats()
			tele.Analysis.Sweeps.Add(st.Sweeps)
			tele.Analysis.FoldsComputed.Add(st.FoldsComputed)
			tele.Analysis.FoldsReused.Add(st.FoldsReused)
		}
	}
}

// sameRouterOracle answers alias questions from simulator ground
// truth (the role alias resolution plays in a real deployment).
func sameRouterOracle(w *scenario.World) rrcheck.SameRouter {
	return func(a, b netaddr.Addr) bool {
		na, _, okA := w.Net.OwnerOfAddr(a)
		nb, _, okB := w.Net.OwnerOfAddr(b)
		return okA && okB && na == nb
	}
}

// clamp intersects two intervals.
func clamp(iv, bounds simclock.Interval) simclock.Interval {
	if iv.Start < bounds.Start {
		iv.Start = bounds.Start
	}
	if iv.End > bounds.End {
		iv.End = bounds.End
	}
	if iv.End < iv.Start {
		iv.End = iv.Start
	}
	return iv
}
