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
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"afrixp/internal/analysis"
	"afrixp/internal/asrel"
	"afrixp/internal/bdrmap"
	"afrixp/internal/budget"
	"afrixp/internal/checkpoint"
	"afrixp/internal/faults"
	"afrixp/internal/ixpdir"
	"afrixp/internal/loss"
	"afrixp/internal/netaddr"
	"afrixp/internal/netsim"
	"afrixp/internal/observatory"
	"afrixp/internal/prober"
	"afrixp/internal/registry"
	"afrixp/internal/rrcheck"
	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
	"afrixp/internal/telemetry"
	"afrixp/internal/timeseries"
	"afrixp/internal/tschunk"
	"afrixp/internal/worldgen"
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
	// LossBatchEvery spaces the 100-probe loss batches on case links
	// (default 10 min; the paper probed continuously at 1 pps —
	// batch subsampling preserves the per-batch loss statistics).
	LossBatchEvery simclock.Duration
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
	// Shards, when > 1, partitions vantage points into shards (VP i
	// belongs to shard i mod Shards, clamped to the VP count) and
	// makes the shard — not the VP — the engine's unit of scheduling
	// and memory: one pool task probes a shard's VPs in ascending
	// index order, and all the shard's collectors seal their
	// compressed series into one shared tschunk.Arena, so per-shard
	// resident bytes are bounded and accountable (published as
	// telemetry shard gauges at batch barriers). Per-VP probing state
	// is fully independent and within-shard order is fixed, so results
	// are bit-identical for any Workers × BatchSteps × Shards setting;
	// with sharding on, effective probing parallelism is min(Workers,
	// Shards). Shards ≤ 1 keeps the per-VP scheduling with private
	// collector arenas.
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
	if c.LossBatchEvery <= 0 {
		c.LossBatchEvery = 10 * time.Minute
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
	fmt.Fprintf(h, "opts=%+v campaign=%d..%d step=%d refresh=%d thr=%v lossEvery=%d noloss=%t shards=%d",
		c.Opts, c.Campaign.Start, c.Campaign.End, c.Step, c.RefreshEvery,
		c.Thresholds, c.LossBatchEvery, c.DisableLoss, c.Shards)
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
	// Verdicts holds the per-threshold analysis (filled by Analyze).
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

// LossGrid returns the streamed, XOR-compressed loss-rate grid for a
// case link — bit-identical to gridding LossBatches with loss.ToSeries
// over loss.GridFor(the link's loss window), but built incrementally
// during probing so the rate series never exists flat. Nil for links
// without a loss campaign. The first call seals the grid.
func (lr *LinkRecord) LossGrid() *timeseries.Series {
	if lr.lossCol == nil {
		return nil
	}
	return lr.lossCol.GridSeries()
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
	// Ordered targets for deterministic iteration.
	order []prober.LinkTarget
}

// SortedLinks returns the VP's link records in discovery order.
func (v *VPResult) SortedLinks() []*LinkRecord {
	out := make([]*LinkRecord, 0, len(v.order))
	for _, t := range v.order {
		out = append(out, v.Links[t])
	}
	return out
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

	// shards is the effective shard count the engine ran with (0 or 1
	// = unsharded). Reanalyze must respect it: a shard's collectors
	// seal into one shared arena, so sealing parallelism is per shard,
	// not per link.
	shards int
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

// Run executes the campaign and the per-link analysis.
func Run(cfg Config) *Result {
	cfg = cfg.withDefaults()
	tele := cfg.Telemetry
	buildRef := tele.BeginSpan("build-world", "", cfg.Campaign.Start)
	var w *scenario.World
	if cfg.BuildWorld != nil {
		w = cfg.BuildWorld()
	} else {
		w = scenario.Paper(cfg.Opts)
	}
	tele.EndSpan(buildRef, cfg.Campaign.Start)
	res := &Result{World: w, Cfg: cfg}
	if cfg.Faults != nil {
		// Inject before the world advances: episode boundaries become
		// scenario events, which must not predate the world clock.
		res.Faults = faults.Inject(w, cfg.Campaign, *cfg.Faults)
		if tele != nil {
			tele.Faults.Planned.Store(uint64(len(res.Faults.Faults)))
			// Episode windows are fixed at injection time; record each
			// as a closed span so the virtual fault timeline is in the
			// export alongside the live entered/exited counters.
			for _, f := range res.Faults.Faults {
				tele.AddSpan("fault-episode", f.Target+" "+f.Kind.String(),
					f.Window.Start, f.Window.End)
			}
		}
	}

	// progress only runs on the coordinator goroutine (the mutex
	// guards against future callers, not the engine), so reading the
	// world clock for the virtual-time stamp is safe.
	var progressMu sync.Mutex
	progress := func(format string, args ...any) {
		if cfg.Progress == nil && tele == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		if tele == nil {
			fmt.Fprintf(cfg.Progress, format+"\n", args...)
			return
		}
		v := w.Now()
		elapsed := tele.Eventf("progress", v, format, args...)
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "[v %v | w +%v] "+format+"\n",
				append([]any{v, elapsed.Round(time.Millisecond)}, args...)...)
		}
	}

	type vpState struct {
		vr        *VPResult
		snapshots []simclock.Time
		snapIdx   int
		// shard is the VP's shard index (0 when sharding is off).
		shard int
		// outage is the VP's injected downtime schedule (nil = always
		// up); consulted every probing step, allocation-free.
		outage *faults.Outage
	}
	var states []*vpState
	for _, vp := range w.VPs {
		vr := &VPResult{VP: vp,
			Prober: prober.New(w.Net, vp.Node, prober.Config{Name: vp.Monitor}),
			Links:  make(map[prober.LinkTarget]*LinkRecord)}
		res.VPs = append(res.VPs, vr)
		var snaps []simclock.Time
		for _, s := range paperSnapshots[vp.ID] {
			if cfg.Campaign.Contains(s) {
				snaps = append(snaps, s)
			}
		}
		if len(snaps) == 0 {
			// Short campaigns snapshot start/middle/end.
			mid := cfg.Campaign.Start.Add(cfg.Campaign.Duration() / 2)
			end := cfg.Campaign.Start.Add(cfg.Campaign.Duration() - cfg.Step)
			snaps = []simclock.Time{cfg.Campaign.Start, mid, end}
		}
		sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
		states = append(states, &vpState{vr: vr, snapshots: snaps,
			outage: res.Faults.VPOutage(vp.ID)})
	}
	if res.Faults != nil {
		progress("injected %d fault episodes", len(res.Faults.Faults))
	}

	// Shard partition: VP i → shard i mod shards, so each shard owns a
	// stride of the VP list and one shared compression arena. The
	// arenas exist before discovery runs — collectors are born sealing
	// into their shard's slab.
	shards := cfg.Shards
	if shards > len(states) {
		shards = len(states)
	}
	sharded := shards > 1
	var arenas []*tschunk.Arena
	if sharded {
		res.shards = shards
		arenas = make([]*tschunk.Arena, shards)
		for s := range arenas {
			arenas[s] = tschunk.NewArena(0)
		}
		for si, st := range states {
			st.shard = si % shards
		}
		progress("sharded engine: %d shards over %d VPs", shards, len(states))
	}

	// Checkpoint manifest + resume load (DESIGN.md §15). The world
	// fingerprint must be taken now, before AdvanceTo consumes the
	// pending scenario events it hashes; the manifest then pins the
	// snapshot to this exact (world, config) pair. resume being non-nil
	// puts the probing loop below into replay mode: barrier work runs
	// live (it deterministically reconstructs discovery and scheduler
	// registration), but no probes fire and no accounting accrues until
	// the snapshot's barrier, where the measurement state is restored.
	var resume *checkpoint.Snapshot
	var manifest checkpoint.Manifest
	if cfg.CheckpointDir != "" || cfg.ResumeFrom != "" {
		manifest = checkpoint.Manifest{
			Format:           checkpoint.Format,
			ConfigHash:       cfg.configHash(),
			WorldFingerprint: worldgen.Fingerprint(w),
		}
	}
	if cfg.ResumeFrom != "" {
		snap, err := checkpoint.LoadLatest(cfg.ResumeFrom, &manifest)
		if err != nil {
			// No error return on Run; a wrong-run resume must not
			// silently probe from scratch (or worse, diverge).
			panic(fmt.Sprintf("experiments: resume from %s: %v", cfg.ResumeFrom, err))
		}
		if snap == nil {
			progress("resume: no checkpoint in %s; starting fresh", cfg.ResumeFrom)
		} else {
			resume = snap
			progress("resume: replaying to checkpoint barrier %v", snap.Barrier)
		}
	}

	// The RIR and IXP-directory indexes are pure functions of their
	// datasets; rebuilding them for every discovery run (6 VPs × ~28
	// refreshes) was pure waste. They are cached per dataset version —
	// scenario events can grow the delegation file mid-campaign (the
	// October 2016 AS turn-up does), which the length key detects,
	// since delegations are only ever appended.
	var idxCache struct {
		delegs, ixps int
		rir          *registry.Index
		ixp          *ixpdir.Index
	}
	bcfg := func(vp *scenario.VP) bdrmap.Config {
		if idxCache.rir == nil || idxCache.delegs != len(w.RIRFile.Delegations) || idxCache.ixps != len(w.Directory.IXPs) {
			idxCache.delegs = len(w.RIRFile.Delegations)
			idxCache.ixps = len(w.Directory.IXPs)
			idxCache.rir = registry.NewIndex(w.RIRFile)
			idxCache.ixp = ixpdir.NewIndex(w.Directory)
		}
		return bdrmap.Config{
			BGP:      w.BGP,
			Rels:     w.Graph,
			RIR:      idxCache.rir,
			IXP:      idxCache.ixp,
			Geo:      w.GeoDB,
			RDNS:     w.RDNS,
			Siblings: vp.Siblings,
		}
	}

	discover := func(st *vpState, t simclock.Time, record bool) {
		ref := tele.BeginSpan("discovery", st.vr.VP.ID, t)
		defer tele.EndSpan(ref, t)
		vr := st.vr
		bres, err := bdrmap.Run(vr.Prober, bcfg(vr.VP), t)
		if err != nil {
			progress("%s discovery at %v failed: %v", vr.VP.ID, t, err)
			return
		}
		for _, l := range bres.Links {
			target := prober.LinkTarget{Near: l.Near, Far: l.Far}
			if _, seen := vr.Links[target]; seen {
				continue
			}
			ts, err := vr.Prober.NewTSLP(target)
			if err != nil {
				continue // link visible in one trace but not stable
			}
			lr := &LinkRecord{Target: target, FarAS: l.FarAS, ViaIXP: l.ViaIXP,
				DiscoveredAt: t, tslp: ts, Verdicts: make(map[float64]analysis.Verdict)}
			ccfg := analysis.CollectorConfig{Campaign: cfg.Campaign, Step: cfg.Step}
			if arenas != nil {
				ccfg.Arena = arenas[st.shard]
			}
			for name, cl := range vr.VP.CaseLinks {
				if cl == target {
					lr.CaseName = name
					if fw, ok := figureWindows[name]; ok {
						ccfg.FullResWindow = clamp(fw, cfg.Campaign)
					}
					if lw, ok := lossWindows[name]; ok && !cfg.DisableLoss {
						lr.lossIv = clamp(lw, cfg.Campaign)
						lr.lossCol = &loss.Collector{}
						// One batch per loss round over the window.
						lr.lossCol.Reserve(lr.lossIv.NumSteps(cfg.LossBatchEvery) + 1)
						// Stream completed batch rates into a compressed
						// grid alongside the batch store; LossGrid exposes
						// it after the campaign.
						lr.lossCol.BindGrid(loss.GridFor(lr.lossIv))
					}
				}
			}
			lr.Collector = analysis.NewCollector(ts, ccfg)
			if lr.CaseName != "" {
				// Record-route symmetry check at discovery (§5.2):
				// the paper verified that an increase in far RTT was
				// attributable to the probed link by confirming the
				// reverse path mirrors the forward one.
				if rr, err := vr.Prober.RRPing(target.Far, t); err == nil && !rr.Lost {
					v := rrcheck.Analyze(rr.Recorded, target.Far, rr.Full, sameRouterOracle(w))
					lr.Symmetry = &v
				}
			}
			vr.Links[target] = lr
			vr.order = append(vr.order, target)
		}
		if record {
			truth := w.TruthNeighbors(vr.VP)
			frac, _, _ := bdrmap.ValidateNeighbors(bres, truth)
			vr.Snapshots = append(vr.Snapshots, Snapshot{
				At: t, Bdrmap: bres,
				TruthNeighborCount: len(truth), Coverage: frac,
			})
		}
	}

	// Initial discovery.
	w.AdvanceTo(cfg.Campaign.Start)
	for _, st := range states {
		ws := time.Now()
		discover(st, cfg.Campaign.Start, false)
		progress("%s: initial discovery found %d links (took %v)",
			st.vr.VP.ID, len(st.vr.Links), time.Since(ws).Round(time.Millisecond))
	}

	// Main probing loop — step-batched. A *barrier step* is any step
	// needing single-threaded work: scenario event application, a
	// discovery refresh, a Table-2 snapshot, or topology-churn path
	// re-resolution. The planner (simclock.Interval.StepBatches) opens a
	// batch at each barrier step, runs the serialized work there, then
	// scans ahead collecting quiescent steps (up to BatchSteps). The
	// fluid queues advance once per batch with every step's frontier
	// recorded (AdvanceQueuesBatch); the persistent worker pool then
	// replays the whole batch, each worker pointing its VP's probe
	// context at the step being sampled (SetBatchStep). Workers touch
	// only their own VP's state (pacing bucket, nonce stream,
	// collectors) and visit (step, link) pairs in exactly the per-step
	// engine's order, so results are bit-identical for any worker count
	// and any batch size — see DESIGN.md §9.
	nextRefresh := cfg.Campaign.Start.Add(cfg.RefreshEvery)
	lossEvery := int(cfg.LossBatchEvery / cfg.Step)
	if lossEvery < 1 {
		lossEvery = 1
	}
	pathVersion := w.Net.Version()

	// Probe-budget scheduler (optional). Each VP gets its own link
	// view, indexed identically to links[si]; utility state is fed by
	// the VP's own worker and re-ranked only at recompute barriers, so
	// the schedule is a pure function of (budget config, virtual time,
	// collected series) — never of worker interleaving.
	var sched *budget.Scheduler
	bviews := make([]*budget.VPLinks, len(states))
	if cfg.Budget != nil && cfg.Budget.Enabled() {
		sched = budget.New(*cfg.Budget, cfg.Campaign)
		for si := range states {
			bviews[si] = sched.AddVP()
		}
	}

	// Per-VP link slices, refreshed only when discovery grows them, so
	// the hot loop never walks the Links map.
	svc := cfg.Observatory
	links := make([][]*LinkRecord, len(states))
	refreshLinks := func() {
		for si, st := range states {
			if len(links[si]) != len(st.vr.order) {
				links[si] = st.vr.SortedLinks()
				if sched != nil {
					// Register newly discovered links with the budget
					// scheduler; they start at full rate (exploration).
					for bviews[si].Len() < len(links[si]) {
						bviews[si].AddLink()
					}
				}
				if svc != nil {
					// Register newly discovered links with the streaming
					// observatory (Watch is idempotent by (vp, target);
					// the service keeps its own sorted feed order, so
					// registration grouping cannot affect the alert log).
					for _, lr := range links[si] {
						svc.Watch(st.vr.VP.ID, lr.Target, lr.Collector,
							lr.CaseName, lr.Symmetry != nil && !lr.Symmetry.Symmetric)
					}
				}
			}
		}
	}
	refreshLinks()

	// Checkpoint barrier chain, anchored at campaign start so the
	// writing and resumed runs force the same barrier instants
	// (Start + k·CheckpointEvery, advanced past every barrier that
	// lands). buildSnapshot and restoreSnapshot run only at the top of
	// open(t) — before any of the barrier's own work — so capture in
	// one run and restore in another see the engine at the identical
	// point: every batch below t probed, nothing at or after t touched.
	ckptOn := cfg.CheckpointDir != ""
	var ckptNext simclock.Time
	if ckptOn {
		ckptNext = cfg.Campaign.Start.Add(cfg.CheckpointEvery)
	}
	buildSnapshot := func(t simclock.Time) *checkpoint.Snapshot {
		snap := &checkpoint.Snapshot{
			Manifest: manifest,
			Barrier:  t,
			VPs:      make([]checkpoint.VPState, len(states)),
			Budget:   sched.Checkpoint(),
		}
		for si, st := range states {
			vs := checkpoint.VPState{
				RoundsScheduled: st.vr.RoundsScheduled,
				RoundsDown:      st.vr.RoundsDown,
				Prober:          st.vr.Prober.Checkpoint(),
				Links:           make([]checkpoint.LinkState, len(links[si])),
			}
			for li, lr := range links[si] {
				vs.Links[li] = checkpoint.LinkState{Collector: lr.Collector.Checkpoint()}
				if lr.lossCol != nil {
					lc := lr.lossCol.Checkpoint()
					vs.Links[li].Loss = &lc
				}
			}
			snap.VPs[si] = vs
		}
		if arenas != nil {
			snap.Arenas = make([][]byte, len(arenas))
			for i, a := range arenas {
				snap.Arenas[i] = a.State()
			}
		}
		return snap
	}
	restoreSnapshot := func(snap *checkpoint.Snapshot) {
		// Shape mismatches here mean the replayed discovery diverged
		// from the writing run's — impossible per the manifest unless
		// the determinism invariant itself broke, so fail loudly.
		if len(snap.VPs) != len(states) {
			panic(fmt.Sprintf("experiments: resume: %d VPs, checkpoint has %d",
				len(states), len(snap.VPs)))
		}
		for si, st := range states {
			vs := &snap.VPs[si]
			if len(vs.Links) != len(links[si]) {
				panic(fmt.Sprintf("experiments: resume: %s has %d links at the barrier, checkpoint has %d",
					st.vr.VP.ID, len(links[si]), len(vs.Links)))
			}
			st.vr.RoundsScheduled = vs.RoundsScheduled
			st.vr.RoundsDown = vs.RoundsDown
			st.vr.Prober.RestoreCheckpoint(vs.Prober)
			for li, lr := range links[si] {
				lr.Collector.RestoreCheckpoint(vs.Links[li].Collector)
				if (lr.lossCol != nil) != (vs.Links[li].Loss != nil) {
					panic("experiments: resume: loss-collector binding mismatch")
				}
				if lr.lossCol != nil {
					lr.lossCol.RestoreCheckpoint(*vs.Links[li].Loss)
				}
			}
		}
		sched.RestoreCheckpoint(snap.Budget)
		if len(snap.Arenas) != len(arenas) {
			panic(fmt.Sprintf("experiments: resume: %d shard arenas, checkpoint has %d",
				len(arenas), len(snap.Arenas)))
		}
		for i, a := range arenas {
			a.RestoreState(snap.Arenas[i])
		}
	}
	writeCheckpoint := func(t simclock.Time) {
		ws := time.Now()
		n, err := checkpoint.Write(cfg.CheckpointDir, buildSnapshot(t))
		if err != nil {
			panic(fmt.Sprintf("experiments: checkpoint at %v: %v", t, err))
		}
		progress("checkpoint at %v: %d payload bytes (took %v)",
			t, n, time.Since(ws).Round(time.Millisecond))
	}

	// Shared batch state, written by the coordinator between pool
	// rounds; the pool's channel handoff publishes it to workers.
	var batch []simclock.Time
	firstIdx := 0
	var teleEng *telemetry.EngineStats
	if tele != nil {
		teleEng = &tele.Engine
	}
	// With sharding on, the pool's task is a shard: one worker walks
	// the shard's VPs in ascending index order, so the (step, link)
	// visit order within a shard is fixed regardless of worker count —
	// the shard is both the memory and the scheduling unit.
	poolTasks := len(states)
	if sharded {
		poolTasks = shards
	}
	pool := newProbePool(effectiveWorkers(poolTasks, cfg.Workers), teleEng)
	if tele != nil && sharded {
		tele.Engine.SetShards(shards)
	}
	runVP := func(si int) {
		st := states[si]
		pr := st.vr.Prober
		bv := bviews[si]
		for k, t := range batch {
			st.vr.RoundsScheduled++
			doLoss := (firstIdx+k)%lossEvery == 0
			if st.outage.Down(t) {
				// VP offline: nothing is probed, so every link's grid
				// slot stays missing; the skipped rounds are accounted
				// for sample-yield reporting. Down(t) is a pure
				// function of t, so the skip pattern — and with it the
				// pacing-bucket and nonce streams — is identical for
				// any worker count or batch size. The budget gate is
				// consulted first: a round the scheduler would not have
				// run anyway is a skip, not a miss, whether or not the
				// VP happened to be down — each round lands in exactly
				// one of RoundSkipped/RoundMissed, so VPYield's
				// SampleYield never double-counts an overlap.
				st.vr.RoundsDown++
				for li, lr := range links[si] {
					if bv.Skip(li, firstIdx+k) {
						lr.Collector.RoundSkipped()
						if doLoss && lr.lossCol != nil && lr.lossIv.Contains(t) {
							lr.lossCol.RoundSkipped()
						}
						continue
					}
					lr.Collector.RoundMissed()
					if doLoss && lr.lossCol != nil && lr.lossIv.Contains(t) {
						lr.lossCol.RoundMissed()
					}
				}
				continue
			}
			pr.SetBatchStep(k)
			for li, lr := range links[si] {
				// Budget gate: like Outage.Down, a nil-safe pure
				// function of the global step index — no allocation,
				// no shared mutable state, identical for any worker
				// count or batch size.
				if bv.Skip(li, firstIdx+k) {
					lr.Collector.RoundSkipped()
					if doLoss && lr.lossCol != nil && lr.lossIv.Contains(t) {
						lr.lossCol.RoundSkipped()
					}
					continue
				}
				s := lr.Collector.RoundFrozen(t)
				bv.Observe(li, t, float64(s.FarRTT)/float64(time.Millisecond), s.FarLost)
				if doLoss && lr.lossCol != nil && lr.lossIv.Contains(t) {
					for i := 0; i < loss.BatchSize; i++ {
						at := t.Add(time.Duration(i) * time.Second)
						_, farLost := lr.tslp.LossRoundFrozen(at)
						lr.lossCol.Record(at, farLost)
					}
				}
			}
		}
		pr.SetBatchStep(-1)
	}
	pool.run = runVP
	if sharded {
		pool.run = func(shard int) {
			for si := shard; si < len(states); si += shards {
				runVP(si)
			}
		}
	}

	// publish republishes the hot-path plain counters (per-VP probe
	// contexts, the network's inject accounting, fault episode edges)
	// into the atomic telemetry counters. Only called at barriers —
	// when the worker pool is provably idle (the channel handoff of
	// the previous round happens-before this read) — and after the
	// campaign, so the reads are race-free and the /metrics endpoint
	// sees totals at most one batch stale during the run. Accounting
	// only: nothing flows back into the simulation. Allocation-free
	// (the zero-alloc steady-state test runs it every round).
	publish := func() {
		if tele == nil {
			return
		}
		var agg netsim.ProbeStats
		for _, st := range states {
			agg.Merge(st.vr.Prober.ProbeStats())
		}
		p := &tele.Probe
		p.Probes.Store(agg.Probes)
		p.Delivered.Store(agg.Delivered)
		p.PipeDrops.Store(agg.PipeDrops)
		p.ICMPSilenced.Store(agg.ICMPSilenced)
		p.RateLimited.Store(agg.RateLimited)
		p.QueueFrozenObs.Store(agg.QueueFrozenObs)
		for i := 0; i < len(agg.RTTBuckets) && i < p.RTT.NumBuckets(); i++ {
			p.RTT.StoreBucket(i, agg.RTTBuckets[i])
		}
		is := w.Net.InjectStats()
		p.InjectWalks.Store(is.Walks)
		p.InjectDelivered.Store(is.Delivered)
		p.InjectLost.Store(is.Lost)
		p.InjectUnreachable.Store(is.Unreachable)
		if res.Faults != nil {
			tele.Faults.Entered.Store(res.Faults.Entered())
			tele.Faults.Exited.Store(res.Faults.Exited())
		}
		// Per-shard gauges: resident series bytes (the shard's shared
		// slab once, plus each collector's private state), links owned,
		// and rounds scheduled. O(links) atomic-free field reads plus
		// three atomic stores per shard — allocation-free, like the
		// rest of publish.
		for s := 0; s < shards && sharded; s++ {
			g := tele.Engine.Shard(s)
			if g == nil {
				break
			}
			resident := int64(arenas[s].MemBytes())
			var owned, rounds int64
			for si := s; si < len(states); si += shards {
				rounds += int64(states[si].vr.RoundsScheduled)
				owned += int64(len(links[si]))
				for _, lr := range links[si] {
					resident += int64(lr.Collector.MemBytes())
				}
			}
			g.ResidentBytes.Set(resident)
			g.LinksOwned.Set(owned)
			g.Rounds.Set(rounds)
		}
	}

	open := func(t simclock.Time) {
		// Checkpoint restore/capture first, before any of the barrier's
		// own work, so both sides of a restart see the same instant.
		if resume != nil && t >= resume.Barrier {
			restoreSnapshot(resume)
			progress("resume: restored measurement state at %v", t)
			resume = nil
			if ckptOn {
				// Continue the chain past the restored barrier instead
				// of redundantly rewriting its own snapshot.
				for ckptNext <= t {
					ckptNext = ckptNext.Add(cfg.CheckpointEvery)
				}
			}
		}
		if resume == nil && ckptOn && t >= ckptNext {
			writeCheckpoint(t)
			for ckptNext <= t {
				ckptNext = ckptNext.Add(cfg.CheckpointEvery)
			}
		}
		if tele != nil {
			tele.Engine.BatchesOpened.Inc()
			publish()
		}
		w.AdvanceTo(t)
		if t >= nextRefresh {
			for _, st := range states {
				discover(st, t, false)
			}
			nextRefresh = t.Add(cfg.RefreshEvery)
			progress("refreshed discovery at %v", t)
		}
		for _, st := range states {
			for st.snapIdx < len(st.snapshots) && t >= st.snapshots[st.snapIdx] {
				discover(st, t, true)
				progress("%s snapshot at %v", st.vr.VP.ID, t)
				st.snapIdx++
			}
		}
		if v := w.Net.Version(); v != pathVersion {
			// Topology churn (route invalidation, link removal): refresh
			// cached probe trajectories at the barrier so workers never
			// mutate path state. Links that left the routed path keep
			// their stale marker and report loss, as the paper observed.
			for _, st := range states {
				for _, target := range st.vr.order {
					_ = st.vr.Links[target].tslp.EnsureResolved()
				}
			}
			pathVersion = v
		}
		refreshLinks()
		// Budget recompute runs last so links registered this barrier
		// are ranked too. The cadence is pure virtual time (Due forces
		// these instants to be barriers via quiescent below), so the
		// recompute sees identical collected state for any Workers ×
		// BatchSteps — the worker pool is idle at barriers and its
		// channel handoff publishes all per-link writes.
		if sched.Due(t) {
			if resume != nil {
				// Replay: no probes ran, so there is no window state to
				// fold — just keep the barrier chain aligned with the
				// writing run's (the snapshot restores the real cursor).
				sched.SkipRecomputesTo(t)
			} else {
				sched.RecomputeAt(t)
			}
		}
		if svc != nil && resume == nil {
			// Streaming observatory feed, last: every earlier batch has
			// probed all steps strictly before t, so aggregation slots
			// closing at or before t are final. During checkpoint replay
			// (resume != nil) collectors are empty and the feed skips;
			// the restore barrier flips resume to nil above, and this
			// call then advances each cursor from zero to the frontier
			// in one sweep — the same per-slot sequence an uninterrupted
			// run fed, so the alert log is bit-identical across restarts.
			svc.ObserveBarrier(t)
		}
	}
	// quiescent reports whether step t needs none of open's serialized
	// work; it runs after every earlier step's open, so the state it
	// reads (refresh deadline, snapshot cursors, pending events) is
	// current. Topology only churns through events, discovery, or
	// snapshots, so a step clearing those three cannot churn paths.
	quiescent := func(t simclock.Time) bool {
		if t >= nextRefresh {
			return false
		}
		if resume != nil {
			// The snapshot's barrier must be a barrier here too: the
			// restore runs in open, at the exact instant the writing
			// run captured.
			if t >= resume.Barrier {
				return false
			}
		} else if ckptOn && t >= ckptNext {
			// Checkpoint instants are barriers, so snapshots are taken
			// at the proven safe points (workers drained, per-VP state
			// consistent at one virtual instant).
			return false
		}
		if sched.Due(t) {
			// Budget recompute instants are barriers: utilities are
			// re-ranked at fixed virtual times, never at batch edges
			// (which depend on BatchSteps).
			return false
		}
		for _, st := range states {
			if st.snapIdx < len(st.snapshots) && t >= st.snapshots[st.snapIdx] {
				return false
			}
		}
		ev := w.PendingEvents()
		return len(ev) == 0 || ev[0].At > t
	}
	flush := func(first int, steps []simclock.Time) {
		w.AdvanceTo(steps[len(steps)-1]) // no events in range, by quiescence
		w.Net.AdvanceQueuesBatch(steps)
		firstIdx, batch = first, steps
		ref := telemetry.SpanNone
		if tele != nil {
			ref = tele.BeginSpan("probe-batch", "", steps[0])
			tele.Engine.Flushes.Inc()
			tele.Engine.QuiescentSteps.Add(uint64(len(steps) - 1))
			tele.Engine.RoundsDispatched.Add(uint64(len(steps) * len(states)))
			tele.Engine.BatchLen.Observe(float64(len(steps)))
		}
		if resume == nil {
			pool.do(poolTasks)
		}
		// else: replay — the world and queues advance (they are pure
		// functions of virtual time and must be at the barrier state
		// when the snapshot lands), but no probes fire and no per-VP
		// accounting accrues; the snapshot restores all of it.
		tele.EndSpan(ref, steps[len(steps)-1])
	}
	probeRef := tele.BeginSpan("probing", "", cfg.Campaign.Start)
	probeWall := time.Now()
	cfg.Campaign.StepBatches(cfg.Step, cfg.BatchSteps, open, quiescent, flush)
	pool.close()
	tele.EndSpan(probeRef, cfg.Campaign.End)
	publish()
	if svc != nil {
		// Drain the tail: slots between the last barrier and campaign
		// end close at or before End, so one final frontier advance
		// completes every link's stream.
		svc.ObserveBarrier(cfg.Campaign.End)
	}

	// Per-link analysis across the threshold sweep.
	progress("campaign done; analyzing %s of series (probing took %v)",
		cfg.Campaign.Duration(), time.Since(probeWall).Round(time.Millisecond))
	anaRef := tele.BeginSpan("analysis", "", cfg.Campaign.End)
	anaWall := time.Now()
	res.Reanalyze(cfg.Workers)
	if svc != nil {
		// Hand the service the verdicts res.Reanalyze just computed, so
		// the campaign sweeps once (DESIGN.md §16). Every watched link
		// is in links, so Finalize finds nothing left to sweep.
		for si, st := range states {
			for _, lr := range links[si] {
				svc.SetLinkVerdicts(st.vr.VP.ID, lr.Target, lr.Verdicts)
			}
		}
		svc.Finalize(cfg.Thresholds)
	}
	tele.EndSpan(anaRef, cfg.Campaign.End)
	for _, vr := range res.VPs {
		progress("%s: %d links analyzed", vr.VP.ID, len(vr.Links))
	}
	progress("analysis done (took %v)", time.Since(anaWall).Round(time.Millisecond))
	return res
}

// Reanalyze re-runs the per-link threshold-sweep analysis, fanning the
// links out across the given number of workers. Each link is one task
// running the whole Table-1 sweep (analysis.AnalyzeLinkSweep): the
// windowed rank-CUSUM detection and the diurnal fold run once per link
// end and every threshold reuses them — the detect-once/threshold-many
// optimization that took the analysis phase from ~4× to ~1× detection
// cost. Each worker threads one analysis.Sweeper, so detector scratch
// (rank transform, bootstrap shuffle) is reused across its links too.
// AnalyzeLinkSweep is pure and each task writes only its own record,
// so ordering cannot affect results. Run calls this once; it is
// exported so callers can re-derive verdicts after changing
// Cfg.Thresholds, and it is the benchmark surface for the analysis
// fan-out.
func (r *Result) Reanalyze(workers int) {
	thresholds := r.Cfg.Thresholds
	analyzeOne := func(sw *analysis.Sweeper, lr *LinkRecord) {
		ls := lr.Collector.Series()
		if lr.Verdicts == nil {
			lr.Verdicts = make(map[float64]analysis.Verdict, len(thresholds))
		}
		verdicts := sw.AnalyzeLinkSweep(ls, analysis.DefaultConfig(), thresholds)
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
	}
	var sweepers []*analysis.Sweeper
	if r.shards > 1 {
		// Sharded campaigns seal a shard's collectors into one shared
		// arena (Series → Seal appends to the slab), so the unit of
		// analysis parallelism is the shard: workers own whole shards
		// and walk their links in VP order — the single-writer rule
		// the arena requires, and the same visit order every time.
		shardLinks := make([][]*LinkRecord, r.shards)
		for i, vr := range r.VPs {
			s := i % r.shards
			shardLinks[s] = append(shardLinks[s], vr.SortedLinks()...)
		}
		sweepers = make([]*analysis.Sweeper, effectiveWorkers(r.shards, workers))
		for w := range sweepers {
			sweepers[w] = analysis.NewSweeper()
		}
		parallelWorkers(r.shards, workers, func(w, s int) {
			for _, lr := range shardLinks[s] {
				analyzeOne(sweepers[w], lr)
			}
		})
	} else {
		var tasks []*LinkRecord
		for _, vr := range r.VPs {
			tasks = append(tasks, vr.SortedLinks()...)
		}
		sweepers = make([]*analysis.Sweeper, effectiveWorkers(len(tasks), workers))
		for w := range sweepers {
			sweepers[w] = analysis.NewSweeper()
		}
		parallelWorkers(len(tasks), workers, func(w, i int) {
			analyzeOne(sweepers[w], tasks[i])
		})
	}
	if tele := r.Cfg.Telemetry; tele != nil {
		// Sweeper stats are plain per-worker counters; parallelWorkers
		// has joined, so summing them here is race-free. Add (not
		// Store): Reanalyze may run several times per campaign.
		var s analysis.SweeperStats
		for _, sw := range sweepers {
			st := sw.Stats()
			s.Sweeps += st.Sweeps
			s.FoldsComputed += st.FoldsComputed
			s.FoldsReused += st.FoldsReused
		}
		tele.Analysis.Sweeps.Add(s.Sweeps)
		tele.Analysis.FoldsComputed.Add(s.FoldsComputed)
		tele.Analysis.FoldsReused.Add(s.FoldsReused)
	}
}

// effectiveWorkers is the worker count parallelWorkers actually uses:
// clamped to the task count, floored at one.
func effectiveWorkers(n, workers int) int {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// parallelWorkers runs fn(w, 0..n-1) across at most workers goroutines
// pulling indices from a shared atomic counter, handing each invocation
// its worker index (0 ≤ w < effectiveWorkers(n, workers)) so callers
// can give every worker goroutine private reusable state (analysis
// sweepers, detector scratch) without locking. workers ≤ 1 (or n ≤ 1)
// runs inline with no goroutines. The probing loop no longer uses this
// — it keeps a persistent probePool across the campaign — but the
// one-shot analysis fan-out does not need goroutine reuse.
func parallelWorkers(n, workers int, fn func(worker, i int)) {
	workers = effectiveWorkers(n, workers)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(k)
	}
	wg.Wait()
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
