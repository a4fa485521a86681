package experiments

import (
	"testing"
	"time"

	"afrixp/internal/budget"
	"afrixp/internal/faults"
	"afrixp/internal/observatory"
	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
	"afrixp/internal/telemetry"
)

// TestEngineBarrierFlushZeroAlloc pins the allocation diet on the
// engine Run drives, not on a replica of its round: with telemetry,
// the budget scheduler, the observatory, a dormant fault plan and two
// shards attached, the engine's own barrier (every hook's run) and
// flush (batched queue advance, pool dispatch, probing) must not touch
// the heap on quiescent steps or at budget-recompute barriers.
func TestEngineBarrierFlushZeroAlloc(t *testing.T) {
	tele := telemetry.New()
	svc := observatory.New(observatory.Config{})
	// July 23 starts after VP4's July 22 snapshot and ends its first
	// days before VP3's and VP6's July 27 ones, so the measured window
	// holds no discovery; the fault plan sits in early July.
	start := simclock.Date(2016, time.July, 23)
	cfg := Config{
		Opts:       scenario.Options{Seed: 5, Scale: 0.1},
		Campaign:   simclock.Interval{Start: start, End: start.Add(30 * 24 * time.Hour)},
		Workers:    1,
		BatchSteps: 4,
		Shards:     2,
		Faults: &faults.Config{Window: simclock.Interval{
			Start: simclock.Date(2016, time.July, 1),
			End:   simclock.Date(2016, time.July, 10),
		}},
		// Recompute every 6 steps, so the window crosses dozens of
		// recompute barriers between quiescent batches.
		Budget:      &budget.Config{Fraction: 0.5, Seed: 1, RecomputeEvery: 30 * time.Minute},
		Telemetry:   tele,
		Observatory: svc,
	}.withDefaults()
	e := newEngine(cfg)
	for _, st := range e.res.VPs {
		e.discover(st, cfg.Campaign.Start, false)
	}
	e.startProbing()
	defer e.pool.close()

	// One StepBatches iteration, by hand, so the measurement holds
	// only the engine's open, quiescent and flush.
	at, idx := cfg.Campaign.Start, 0
	steps := make([]simclock.Time, 0, cfg.BatchSteps)
	batch := func() {
		e.open(at)
		steps = append(steps[:0], at)
		next := at.Add(cfg.Step)
		for len(steps) < cfg.BatchSteps && e.quiescent(next) {
			steps = append(steps, next)
			next = next.Add(cfg.Step)
		}
		e.flush(idx, steps)
		idx += len(steps)
		at = next
	}
	for i := 0; i < 50; i++ {
		batch()
	}
	recomputes, fed := e.sched.Stats().Recomputes, svc.FedSlots()
	quiet := tele.Engine.QuiescentSteps.Load()
	if avg := testing.AllocsPerRun(200, batch); avg != 0 {
		t.Errorf("engine barrier + flush makes %v heap allocations per batch; want 0", avg)
	}
	if at >= simclock.Date(2016, time.July, 27) {
		t.Fatalf("measured window reached %v, a Table 2 snapshot date", at)
	}

	// Non-vacuity: the window crossed recompute barriers, batched
	// quiescent steps, probed, fed the observatory and timed hooks.
	if n := e.sched.Stats().Recomputes - recomputes; n < 50 {
		t.Errorf("only %d budget recomputes in the measured window", n)
	}
	if tele.Engine.QuiescentSteps.Load() == quiet {
		t.Error("no quiescent steps batched in the measured window")
	}
	if svc.FedSlots() == fed {
		t.Error("observatory fed no slots in the measured window")
	}
	snap := tele.Snapshot()
	if snap.Probe.Probes == 0 || len(snap.Engine.Shards) != 2 {
		t.Errorf("telemetry saw %d probes and %d shards", snap.Probe.Probes, len(snap.Engine.Shards))
	}
	if len(snap.Engine.Hooks) != len(e.hooks) || snap.Engine.Hooks[0].Calls == 0 {
		t.Errorf("hook timings %+v, want %d hooks with calls", snap.Engine.Hooks, len(e.hooks))
	}
	_, _, _, skipped := e.res.VPs[0].records[0].Collector.Yield()
	if skipped == 0 {
		t.Error("budget gate skipped no round")
	}
}

// TestForcedBarrierCounts checks the barrier attribution in /metrics:
// every batch after the first was opened because a hook forced it or
// because the BatchSteps cap closed the one before, hooks that are
// never due force nothing, and a due hook's count is live.
func TestForcedBarrierCounts(t *testing.T) {
	tele := telemetry.New()
	Run(Config{
		Opts: scenario.Options{Seed: 5, Scale: 0.1},
		Campaign: simclock.Interval{
			Start: simclock.Date(2016, time.July, 20),
			End:   simclock.Date(2016, time.July, 24),
		},
		Workers:    1,
		BatchSteps: 64,
		Budget:     &budget.Config{Fraction: 0.5, Seed: 1},
		Telemetry:  tele,
	})
	snap := tele.Snapshot().Engine
	var forced uint64
	for _, h := range snap.Hooks {
		forced += h.Forced
		switch h.Hook {
		case "publish", "paths", "register":
			if h.Forced != 0 {
				t.Errorf("hook %s is never due but forced %d barriers", h.Hook, h.Forced)
			}
		case "budget":
			if h.Forced == 0 {
				t.Error("budget recomputes forced no barrier")
			}
		}
	}
	if snap.CapClosed == 0 || snap.CapClosed > snap.Flushes {
		t.Errorf("%d cap-closed batches of %d flushed", snap.CapClosed, snap.Flushes)
	}
	if forced+snap.CapClosed < snap.BatchesOpened-1 {
		t.Errorf("%d batches opened, but only %d forced and %d cap-closed",
			snap.BatchesOpened, forced, snap.CapClosed)
	}
	t.Logf("opened %d, cap-closed %d, forced %+v", snap.BatchesOpened, snap.CapClosed, snap.Hooks)
}
