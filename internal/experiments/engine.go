package experiments

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"afrixp/internal/analysis"
	"afrixp/internal/bdrmap"
	"afrixp/internal/budget"
	"afrixp/internal/checkpoint"
	"afrixp/internal/faults"
	"afrixp/internal/ixpdir"
	"afrixp/internal/loss"
	"afrixp/internal/netsim"
	"afrixp/internal/prober"
	"afrixp/internal/registry"
	"afrixp/internal/rrcheck"
	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
	"afrixp/internal/telemetry"
	"afrixp/internal/tschunk"
	"afrixp/internal/worldgen"
)

// hook is one piece of serialized barrier work (DESIGN.md §9). due(t)
// reports whether step t must open a batch for the hook; it must be
// pure and read only state that barrier work changes, so it is current
// whenever the planner asks. A nil due is never due: the hook only
// rides barriers other hooks force. run(t) is the hook's work at every
// opened barrier, in list order.
type hook struct {
	name string
	due  func(t simclock.Time) bool
	run  func(t simclock.Time)
}

// engine is one campaign's measurement loop: the world, the result
// whose per-VP state it fills, the ordered barrier hooks and the
// worker pool that probes between barriers.
type engine struct {
	cfg  Config
	w    *scenario.World
	res  *Result
	tele *telemetry.Telemetry
	eng  *telemetry.EngineStats // nil without telemetry
	// tasks is the pool's task count per batch, one per shard. Task k
	// probes VPs k, k+tasks, … in ascending order, so the (step, link)
	// visit order within a task is fixed regardless of worker count.
	// arenas holds each shard's series slab.
	tasks  int
	arenas []*tschunk.Arena
	sched  *budget.Scheduler

	manifest checkpoint.Manifest
	// resume, while non-nil, puts the engine in replay mode: barrier
	// work runs live (it deterministically reconstructs discovery and
	// scheduler registration), but no probes fire and no accounting
	// accrues until the snapshot's barrier restores the state.
	resume   *checkpoint.Snapshot
	ckptNext simclock.Time
	// snap is the snapshot capture refills at every checkpoint
	// instant: its VP and link slices keep their capacity across
	// barriers.
	snap checkpoint.Snapshot

	hooks []hook
	pool  *workerPool
	// probe is probeTask bound once: a method value made per flush
	// would cost the steady state one allocation per batch.
	probe func(worker, task int)

	// Batch state, written by the coordinator between pool rounds; the
	// pool's channel handoff publishes it to workers.
	batch     []simclock.Time
	firstIdx  int
	lossEvery int

	nextRefresh simclock.Time
	pathVersion int64
	idx         struct {
		delegs, ixps int
		rir          *registry.Index
		ixp          *ixpdir.Index
	}
}

// newEngine builds the world and everything probing needs before
// initial discovery: the fault plan, per-VP state, shard arenas, the
// checkpoint manifest and resume snapshot. It ends with the world at
// campaign start, all inside the build-world span.
func newEngine(cfg Config) *engine {
	e := &engine{cfg: cfg, tele: cfg.Telemetry, ckptNext: math.MaxInt64}
	ref := e.tele.BeginSpan("build-world", "", cfg.Campaign.Start)
	if cfg.BuildWorld != nil {
		e.w = cfg.BuildWorld()
	} else {
		e.w = scenario.Paper(cfg.Opts)
	}
	e.res = &Result{World: e.w, Cfg: cfg}
	if cfg.Faults != nil {
		// Inject before the world advances: episode boundaries become
		// scenario events, which must not predate the world clock.
		e.res.Faults = faults.Inject(e.w, cfg.Campaign, *cfg.Faults)
		if e.tele != nil {
			e.tele.Faults.Planned.Store(uint64(len(e.res.Faults.Faults)))
			// Episode windows are fixed at injection time; record each
			// as a closed span so the virtual fault timeline is in the
			// export alongside the live entered/exited counters.
			for _, f := range e.res.Faults.Faults {
				e.tele.AddSpan("fault-episode", f.Target+" "+f.Kind.String(),
					f.Window.Start, f.Window.End)
			}
		}
	}
	for _, vp := range e.w.VPs {
		vr := &VPResult{VP: vp,
			Prober: prober.New(e.w.Net, vp.Node, prober.Config{Name: vp.Monitor}),
			Links:  make(map[prober.LinkTarget]*LinkRecord)}
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
		vr.snapAt, vr.outage = snaps, e.res.Faults.VPOutage(vp.ID)
		e.res.VPs = append(e.res.VPs, vr)
	}
	if e.res.Faults != nil {
		e.progress("injected %d fault episodes", len(e.res.Faults.Faults))
	}

	// Shard partition: VP i → shard i mod shards, so each shard owns a
	// stride of the VP list and one compression arena; Shards ≤ 1 is
	// one shard per VP. The arenas exist before discovery runs —
	// collectors are born sealing into their shard's slab.
	e.tasks = len(e.res.VPs)
	if cfg.Shards > 1 {
		e.tasks = min(cfg.Shards, len(e.res.VPs))
	}
	for si, vr := range e.res.VPs {
		if si < e.tasks {
			e.arenas = append(e.arenas, tschunk.NewArena(0))
		}
		vr.arena = e.arenas[si%e.tasks]
	}
	e.progress("engine: %d shards over %d VPs", e.tasks, len(e.res.VPs))

	// Checkpoint manifest + resume load (DESIGN.md §15). The world
	// fingerprint must be taken before AdvanceTo consumes the pending
	// scenario events it hashes; the manifest then pins the snapshot to
	// this exact (world, config) pair.
	if cfg.CheckpointDir != "" || cfg.ResumeFrom != "" {
		e.manifest = checkpoint.Manifest{
			Format:           checkpoint.Format,
			ConfigHash:       cfg.configHash(),
			WorldFingerprint: worldgen.Fingerprint(e.w),
		}
	}
	if cfg.ResumeFrom != "" {
		snap, err := checkpoint.LoadLatest(cfg.ResumeFrom, &e.manifest)
		if err != nil {
			// No error return on Run; a wrong-run resume must not
			// silently probe from scratch (or worse, diverge).
			panic(fmt.Sprintf("experiments: resume from %s: %v", cfg.ResumeFrom, err))
		}
		if snap == nil {
			e.progress("resume: no checkpoint in %s; starting fresh", cfg.ResumeFrom)
		} else {
			e.resume = snap
			e.progress("resume: replaying to checkpoint barrier %v", snap.Barrier)
		}
	}
	e.w.AdvanceTo(cfg.Campaign.Start)
	e.tele.EndSpan(ref, cfg.Campaign.Start)
	return e
}

// progress writes one campaign progress line. It only runs on the
// coordinator goroutine, so reading the world clock for the stamp is
// safe and writes are serialized.
func (e *engine) progress(format string, args ...any) {
	if e.cfg.Progress == nil && e.tele == nil {
		return
	}
	if e.tele == nil {
		fmt.Fprintf(e.cfg.Progress, format+"\n", args...)
		return
	}
	v := e.w.Now()
	elapsed := e.tele.Eventf("progress", v, format, args...)
	if e.cfg.Progress != nil {
		fmt.Fprintf(e.cfg.Progress, "[v %v | w +%v] "+format+"\n",
			append([]any{v, elapsed.Round(time.Millisecond)}, args...)...)
	}
}

// bdrmapConfig returns a VP's discovery configuration. The RIR and
// IXP-directory indexes are pure functions of their datasets, cached
// per dataset version: scenario events can grow the delegation file
// mid-campaign (the October 2016 AS turn-up does), which the length
// key detects, since delegations are only ever appended.
func (e *engine) bdrmapConfig(vp *scenario.VP) bdrmap.Config {
	w := e.w
	if e.idx.rir == nil || e.idx.delegs != len(w.RIRFile.Delegations) || e.idx.ixps != len(w.Directory.IXPs) {
		e.idx.delegs = len(w.RIRFile.Delegations)
		e.idx.ixps = len(w.Directory.IXPs)
		e.idx.rir = registry.NewIndex(w.RIRFile)
		e.idx.ixp = ixpdir.NewIndex(w.Directory)
	}
	return bdrmap.Config{BGP: w.BGP, Rels: w.Graph, RIR: e.idx.rir, IXP: e.idx.ixp,
		Geo: w.GeoDB, RDNS: w.RDNS, Siblings: vp.Siblings}
}

// discover runs bdrmap from one VP at t and starts a record for every
// new link; record also keeps the run as a Table 2 snapshot.
func (e *engine) discover(vr *VPResult, t simclock.Time, record bool) {
	ref := e.tele.BeginSpan("discovery", vr.VP.ID, t)
	defer e.tele.EndSpan(ref, t)
	cfg := e.cfg
	bres, err := bdrmap.Run(vr.Prober, e.bdrmapConfig(vr.VP), t)
	if err != nil {
		e.progress("%s discovery at %v failed: %v", vr.VP.ID, t, err)
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
		ccfg := analysis.CollectorConfig{Campaign: cfg.Campaign, Step: cfg.Step, Arena: vr.arena}
		for name, cl := range vr.VP.CaseLinks {
			if cl != target {
				continue
			}
			lr.CaseName = name
			if fw, ok := figureWindows[name]; ok {
				ccfg.FullResWindow = clamp(fw, cfg.Campaign)
			}
			if lw, ok := lossWindows[name]; ok && !cfg.DisableLoss {
				lr.lossIv = clamp(lw, cfg.Campaign)
				lr.lossCol = &loss.Collector{}
				// One batch per loss round over the window.
				lr.lossCol.Reserve(lr.lossIv.NumSteps(lossBatchEvery) + 1)
			}
		}
		lr.Collector = analysis.NewCollector(ts, ccfg)
		if lr.CaseName != "" {
			// Record-route symmetry check at discovery (§5.2): the
			// paper verified that an increase in far RTT was
			// attributable to the probed link by confirming the
			// reverse path mirrors the forward one.
			if rr, err := vr.Prober.RRPing(target.Far, t); err == nil && !rr.Lost {
				v := rrcheck.Analyze(rr.Recorded, target.Far, rr.Full, sameRouterOracle(e.w))
				lr.Symmetry = &v
			}
		}
		vr.Links[target] = lr
		vr.records = append(vr.records, lr)
	}
	if record {
		truth := e.w.TruthNeighbors(vr.VP)
		frac, _, _ := bdrmap.ValidateNeighbors(bres, truth)
		vr.Snapshots = append(vr.Snapshots, Snapshot{
			At: t, Bdrmap: bres, TruthNeighborCount: len(truth), Coverage: frac,
		})
	}
}

// startProbing readies the step-batched loop: the budget scheduler,
// the first link registration, the barrier hooks and the worker pool.
func (e *engine) startProbing() {
	cfg := e.cfg
	e.nextRefresh = cfg.Campaign.Start.Add(cfg.RefreshEvery)
	e.lossEvery = max(int(lossBatchEvery/cfg.Step), 1)
	e.pathVersion = e.w.Net.Version()
	// Probe-budget scheduler (optional). Each VP gets its own link
	// view, indexed identically to its records; utility state is fed by
	// the VP's own worker and re-ranked only at recompute barriers, so
	// the schedule is a pure function of (budget config, virtual time,
	// collected series) — never of worker interleaving.
	if cfg.Budget != nil && cfg.Budget.Enabled() {
		e.sched = budget.New(*cfg.Budget, cfg.Campaign)
		for _, vr := range e.res.VPs {
			vr.bview = e.sched.AddVP()
		}
	}
	e.registerLinks(cfg.Campaign.Start)
	if cfg.CheckpointDir != "" {
		// Anchored at campaign start, so the writing and resumed runs
		// force the same barrier instants.
		e.ckptNext = cfg.Campaign.Start.Add(cfg.CheckpointEvery)
	}
	e.hooks = e.barrierHooks()
	if e.tele != nil {
		e.eng = &e.tele.Engine
		e.eng.SetShards(len(e.arenas))
		names := make([]string, len(e.hooks))
		for k, h := range e.hooks {
			names[k] = h.name
		}
		e.eng.SetHooks(names)
	}
	e.pool = newWorkerPool(min(cfg.Workers, e.tasks), e.eng)
	e.probe = e.probeTask
}

// barrierHooks lists the barrier work in run order. A feature that is
// off has no hook. Checkpoint capture and restore come first, before
// any of the barrier's own work, so both sides of a restart see the
// engine at the identical point; the budget recompute comes after link
// registration so links registered this barrier are ranked too; the
// observatory feed comes last, when every step before t is probed.
func (e *engine) barrierHooks() []hook {
	var hs []hook
	if e.cfg.CheckpointDir != "" || e.resume != nil {
		hs = append(hs, hook{"checkpoint", e.checkpointDue, e.checkpoint})
	}
	if e.tele != nil {
		hs = append(hs, hook{"publish", nil, func(simclock.Time) {
			e.tele.Engine.BatchesOpened.Inc()
			e.publish()
		}})
	}
	hs = append(hs,
		hook{"world", e.eventDue, e.w.AdvanceTo},
		hook{"refresh", e.refreshDue, e.refresh},
		hook{"snapshots", e.snapshotDue, e.snapshot},
		hook{"paths", nil, e.resolvePaths},
		hook{"register", nil, e.registerLinks})
	if e.sched != nil {
		hs = append(hs, hook{"budget", e.sched.Due, e.recompute})
	}
	if svc := e.cfg.Observatory; svc != nil {
		hs = append(hs, hook{"observatory", nil, func(t simclock.Time) {
			// During replay collectors are empty and the feed skips;
			// after the restore it advances each cursor from zero to
			// the frontier in one sweep, the same per-slot sequence an
			// uninterrupted run fed, so the alert log is bit-identical.
			if e.resume == nil {
				svc.ObserveBarrier(t)
			}
		}})
	}
	return hs
}

// open runs every hook's barrier work at t, timing each into the
// telemetry hook table (read-side; AddHook is a no-op without one).
func (e *engine) open(t simclock.Time) {
	for k, h := range e.hooks {
		t0 := time.Now()
		h.run(t)
		e.eng.AddHook(k, time.Since(t0))
	}
}

// quiescent reports whether step t needs no barrier: no hook is due.
// Every due hook is counted as forcing the barrier; the dues are pure,
// so asking them all changes nothing.
func (e *engine) quiescent(t simclock.Time) bool {
	q := true
	for k, h := range e.hooks {
		if h.due != nil && h.due(t) {
			q = false
			e.eng.AddForced(k)
		}
	}
	return q
}

// flush advances the world and queues over a batch of quiescent steps
// and has the pool probe it.
func (e *engine) flush(first int, steps []simclock.Time) {
	last := steps[len(steps)-1]
	e.w.AdvanceTo(last) // no events in range, by quiescence
	e.w.Net.AdvanceQueuesBatch(steps)
	e.firstIdx, e.batch = first, steps
	ref := e.tele.BeginSpan("probe-batch", "", steps[0])
	if e.eng != nil {
		e.eng.Flushes.Inc()
		e.eng.QuiescentSteps.Add(uint64(len(steps) - 1))
		e.eng.RoundsDispatched.Add(uint64(len(steps) * len(e.res.VPs)))
		e.eng.BatchLen.Observe(float64(len(steps)))
		if len(steps) == e.cfg.BatchSteps {
			e.eng.CapClosed.Inc()
		}
	}
	// In replay the world and queues advance (they are pure functions
	// of virtual time), but no probes fire; the snapshot restores the
	// per-VP state at its barrier.
	if e.resume == nil {
		e.pool.do(e.tasks, e.probe)
	}
	e.tele.EndSpan(ref, last)
}

// probeTask runs task's VPs over the batch. Each (step, link) is
// exactly one of: skipped by the budget gate, missed because the VP is
// down, or probed. The gate is consulted first, so a round the
// scheduler would not have run is a skip, not a miss, and SampleYield
// never double-counts an overlap. Down(t) and Skip are pure functions
// of virtual time and the global step index, so the pacing-bucket and
// nonce streams are identical for any worker count or batch size.
func (e *engine) probeTask(_, task int) {
	for si := task; si < len(e.res.VPs); si += e.tasks {
		vr := e.res.VPs[si]
		bv := vr.bview // nil without a budget: nothing is skipped or observed
		for k, t := range e.batch {
			step := e.firstIdx + k
			vr.RoundsScheduled++
			down := vr.outage.Down(t)
			if down {
				vr.RoundsDown++
			} else {
				vr.Prober.SetBatchStep(k)
			}
			lossRound := step%e.lossEvery == 0
			for li, lr := range vr.records {
				doLoss := lossRound && lr.lossCol != nil && lr.lossIv.Contains(t)
				switch {
				case bv != nil && bv.Skip(li, step):
					lr.Collector.RoundSkipped()
					if doLoss {
						lr.lossCol.RoundSkipped()
					}
				case down:
					lr.Collector.RoundMissed()
					if doLoss {
						lr.lossCol.RoundMissed()
					}
				default:
					s := lr.Collector.RoundFrozen(t)
					if bv != nil {
						bv.Observe(li, t, float64(s.FarRTT)/float64(time.Millisecond), s.FarLost)
					}
					for i := 0; doLoss && i < loss.BatchSize; i++ {
						at := t.Add(time.Duration(i) * time.Second)
						_, farLost := lr.tslp.LossRoundFrozen(at)
						lr.lossCol.Record(at, farLost)
					}
				}
			}
		}
		vr.Prober.SetBatchStep(-1)
	}
}

func (e *engine) eventDue(t simclock.Time) bool {
	ev := e.w.PendingEvents()
	return len(ev) > 0 && ev[0].At <= t
}

func (e *engine) refreshDue(t simclock.Time) bool { return t >= e.nextRefresh }

// refresh re-runs discovery from every VP every RefreshEvery.
func (e *engine) refresh(t simclock.Time) {
	if t < e.nextRefresh {
		return
	}
	for _, vr := range e.res.VPs {
		e.discover(vr, t, false)
	}
	e.nextRefresh = t.Add(e.cfg.RefreshEvery)
	e.progress("refreshed discovery at %v", t)
}

func (e *engine) snapshotDue(t simclock.Time) bool {
	for _, vr := range e.res.VPs {
		if vr.snapIdx < len(vr.snapAt) && t >= vr.snapAt[vr.snapIdx] {
			return true
		}
	}
	return false
}

// snapshot takes each VP's due Table 2 snapshots.
func (e *engine) snapshot(t simclock.Time) {
	for _, vr := range e.res.VPs {
		for vr.snapIdx < len(vr.snapAt) && t >= vr.snapAt[vr.snapIdx] {
			e.discover(vr, t, true)
			e.progress("%s snapshot at %v", vr.VP.ID, t)
			vr.snapIdx++
		}
	}
}

// resolvePaths refreshes cached probe trajectories after topology churn
// (route invalidation, link removal), so workers never mutate path
// state. Topology only churns through events, discovery or snapshots,
// whose hooks force the barrier, so this hook is never due itself.
// Links that left the routed path keep their stale marker and report
// loss, as the paper observed.
func (e *engine) resolvePaths(simclock.Time) {
	v := e.w.Net.Version()
	if v == e.pathVersion {
		return
	}
	for _, vr := range e.res.VPs {
		for _, lr := range vr.records {
			_ = lr.tslp.EnsureResolved()
		}
	}
	e.pathVersion = v
}

// registerLinks registers the links discovered since the last barrier
// with the budget scheduler (at full rate, exploring) and the
// observatory. The service keeps its own sorted feed order, so
// registration grouping cannot affect the alert log.
func (e *engine) registerLinks(simclock.Time) {
	svc := e.cfg.Observatory
	for _, vr := range e.res.VPs {
		for _, lr := range vr.records[vr.registered:] {
			if e.sched != nil {
				vr.bview.AddLink()
			}
			if svc != nil {
				svc.Watch(vr.VP.ID, lr.Target, lr.Collector,
					lr.CaseName, lr.Symmetry != nil && !lr.Symmetry.Symmetric)
			}
		}
		vr.registered = len(vr.records)
	}
}

// recompute re-ranks the budget scheduler's links. The pool is idle at
// barriers and its channel handoff publishes all per-link writes, so
// the recompute sees identical state for any Workers × BatchSteps.
func (e *engine) recompute(t simclock.Time) {
	switch {
	case !e.sched.Due(t):
	case e.resume != nil:
		// Replay: no probes ran, so there is no window state to fold;
		// keep the chain aligned (the snapshot restores the cursor).
		e.sched.SkipRecomputesTo(t)
	default:
		e.sched.RecomputeAt(t)
	}
}

// publish republishes the hot-path plain counters (per-VP probe
// contexts, the network's inject accounting, fault episode edges and
// the shard gauges) into the atomic telemetry counters. It runs only
// when the pool is idle (the previous round's channel handoff
// happens-before these reads), so /metrics sees totals at most one
// batch stale. Accounting only, and allocation-free.
func (e *engine) publish() {
	tele := e.tele
	if tele == nil {
		return
	}
	var agg netsim.ProbeStats
	for _, vr := range e.res.VPs {
		agg.Merge(vr.Prober.ProbeStats())
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
	is := e.w.Net.InjectStats()
	p.InjectWalks.Store(is.Walks)
	p.InjectDelivered.Store(is.Delivered)
	p.InjectLost.Store(is.Lost)
	p.InjectUnreachable.Store(is.Unreachable)
	if f := e.res.Faults; f != nil {
		tele.Faults.Entered.Store(f.Entered())
		tele.Faults.Exited.Store(f.Exited())
	}
	// Per-shard gauges: the shard's shared slab once, plus each
	// collector's private state, links owned and rounds scheduled.
	for s, a := range e.arenas {
		g := tele.Engine.Shard(s)
		resident := int64(a.MemBytes())
		var owned, rounds int64
		for si := s; si < len(e.res.VPs); si += e.tasks {
			vr := e.res.VPs[si]
			rounds += int64(vr.RoundsScheduled)
			owned += int64(len(vr.records))
			for _, lr := range vr.records {
				resident += int64(lr.Collector.MemBytes())
			}
		}
		g.ResidentBytes.Set(resident)
		g.LinksOwned.Set(owned)
		g.Rounds.Set(rounds)
	}
}

// checkpointDue forces the resume barrier in replay, and the next
// checkpoint instant otherwise: snapshots are taken and restored only
// at barriers, with workers drained and every VP at one instant.
func (e *engine) checkpointDue(t simclock.Time) bool {
	if e.resume != nil {
		return t >= e.resume.Barrier
	}
	return t >= e.ckptNext
}

// checkpoint restores the resume snapshot at its barrier, or writes a
// snapshot at a checkpoint instant, then moves the chain past t (a
// restored barrier is not rewritten).
func (e *engine) checkpoint(t simclock.Time) {
	if e.resume != nil {
		if t < e.resume.Barrier {
			return
		}
		e.restore(e.resume)
		e.progress("resume: restored measurement state at %v", t)
		e.resume = nil
	} else if t >= e.ckptNext {
		ws := time.Now()
		n, err := checkpoint.Write(e.cfg.CheckpointDir, e.capture(t))
		if err != nil {
			panic(fmt.Sprintf("experiments: checkpoint at %v: %v", t, err))
		}
		e.progress("checkpoint at %v: %d payload bytes (took %v)",
			t, n, time.Since(ws).Round(time.Millisecond))
	}
	for e.ckptNext <= t {
		e.ckptNext = e.ckptNext.Add(e.cfg.CheckpointEvery)
	}
}

// capture snapshots the engine's measurement state at barrier t into
// e.snap, reusing its VP and link slices. Every VP and link slot is
// overwritten whole, since a VP's link set can change between
// barriers. The snapshot aliases live state: write it before probing
// resumes.
func (e *engine) capture(t simclock.Time) *checkpoint.Snapshot {
	snap := &e.snap
	snap.Manifest, snap.Barrier, snap.Budget = e.manifest, t, e.sched.Checkpoint()
	snap.VPs = slices.Grow(snap.VPs[:0], len(e.res.VPs))[:len(e.res.VPs)]
	for si, vr := range e.res.VPs {
		vs := &snap.VPs[si]
		*vs = checkpoint.VPState{
			RoundsScheduled: vr.RoundsScheduled,
			RoundsDown:      vr.RoundsDown,
			Prober:          vr.Prober.Checkpoint(),
			Links:           slices.Grow(vs.Links[:0], len(vr.records))[:len(vr.records)],
		}
		for li, lr := range vr.records {
			vs.Links[li] = checkpoint.LinkState{Collector: lr.Collector.Checkpoint()}
			if lr.lossCol != nil {
				lc := lr.lossCol.Checkpoint()
				vs.Links[li].Loss = &lc
			}
		}
	}
	snap.Arenas = snap.Arenas[:0]
	for _, a := range e.arenas {
		snap.Arenas = append(snap.Arenas, a.State())
	}
	return snap
}

// restore loads a snapshot's measurement state. Shape mismatches mean
// the replayed discovery diverged from the writing run's — impossible
// per the manifest unless the determinism invariant itself broke, so
// they fail loudly.
func (e *engine) restore(snap *checkpoint.Snapshot) {
	if len(snap.VPs) != len(e.res.VPs) {
		panic(fmt.Sprintf("experiments: resume: %d VPs, checkpoint has %d",
			len(e.res.VPs), len(snap.VPs)))
	}
	for si, vr := range e.res.VPs {
		vs := &snap.VPs[si]
		if len(vs.Links) != len(vr.records) {
			panic(fmt.Sprintf("experiments: resume: %s has %d links at the barrier, checkpoint has %d",
				vr.VP.ID, len(vr.records), len(vs.Links)))
		}
		vr.RoundsScheduled = vs.RoundsScheduled
		vr.RoundsDown = vs.RoundsDown
		vr.Prober.RestoreCheckpoint(vs.Prober)
		for li, lr := range vr.records {
			lr.Collector.RestoreCheckpoint(vs.Links[li].Collector)
			if (lr.lossCol != nil) != (vs.Links[li].Loss != nil) {
				panic("experiments: resume: loss-collector binding mismatch")
			}
			if lr.lossCol != nil {
				lr.lossCol.RestoreCheckpoint(*vs.Links[li].Loss)
			}
		}
	}
	e.sched.RestoreCheckpoint(snap.Budget)
	if len(snap.Arenas) != len(e.arenas) {
		panic(fmt.Sprintf("experiments: resume: %d shard arenas, checkpoint has %d",
			len(e.arenas), len(snap.Arenas)))
	}
	for i, a := range e.arenas {
		a.RestoreState(snap.Arenas[i])
	}
}
