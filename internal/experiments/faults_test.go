package experiments

import (
	"math"
	"testing"
	"time"

	"afrixp/internal/budget"
	"afrixp/internal/faults"
	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
)

// runFaultCampaign is runBatchCampaign with the default fault plan
// injected: VP outages, ICMP blackouts, duty-cycle rate limiting, and
// link flaps all land inside the 4-day window.
func runFaultCampaign(workers, batchSteps int) *Result {
	return Run(Config{
		Opts: scenario.Options{Seed: 5, Scale: 0.1},
		Campaign: simclock.Interval{
			Start: simclock.Date(2016, time.July, 20),
			End:   simclock.Date(2016, time.July, 24),
		},
		Workers:    workers,
		BatchSteps: batchSteps,
		Faults:     &faults.Config{},
	})
}

// TestFaultCampaignBitIdentical extends the batch planner's guarantee
// to fault injection: a campaign full of VP outages, ICMP blackouts,
// rate-limit duty cycles, and link flaps must produce bit-identical
// results across Workers ∈ {1, 8} × BatchSteps ∈ {1, max}. Fault
// boundaries are scenario events (batch barriers) and every fault is
// a pure function of virtual time, so neither the worker interleaving
// nor the batch geometry can reach the numbers.
func TestFaultCampaignBitIdentical(t *testing.T) {
	perStep := runFaultCampaign(1, 1)

	// Non-vacuity: the plan must actually have taken VPs down and the
	// campaign must still have discovered links.
	links, down := 0, 0
	for _, vr := range perStep.VPs {
		links += len(vr.Links)
		down += vr.RoundsDown
	}
	if links == 0 {
		t.Fatal("fault campaign discovered no links; equivalence check is vacuous")
	}
	if down == 0 {
		t.Fatal("no VP-outage rounds were skipped; fault plan is dormant")
	}
	if perStep.Faults == nil || len(perStep.Faults.Faults) == 0 {
		t.Fatal("no fault schedule on the result")
	}

	want := summarizeResult(perStep)
	for _, tc := range []struct{ workers, batch int }{
		{1, 4096}, {8, 1}, {8, 4096},
	} {
		got := summarizeResult(runFaultCampaign(tc.workers, tc.batch))
		if want != got {
			t.Errorf("fault campaign differs at workers=%d batch=%d\n%s",
				tc.workers, tc.batch, firstDiff(want, got))
		}
	}
}

// TestFaultCampaignOutageGapsFlow drives the acceptance scenario: a VP
// outage must leave NaN gaps in the per-link series, those gaps must
// flow through AnalyzeLinkSweep without panics (Run analyzes every
// link), and the missing rounds must surface in the per-VP sample
// yield accounting.
func TestFaultCampaignOutageGapsFlow(t *testing.T) {
	res := runFaultCampaign(2, 4096)

	outages := res.Faults.ByKind(faults.VPOutage)
	if len(outages) == 0 {
		t.Fatal("no VP outage episodes")
	}
	yields := res.Yields()
	byVP := make(map[string]VPYield, len(yields))
	for _, y := range yields {
		byVP[y.VP] = y
	}

	checkedGaps := false
	for _, f := range outages {
		vr, ok := res.VPByID(f.Target)
		if !ok || len(vr.Links) == 0 {
			continue
		}
		y := byVP[f.Target]
		if y.DownSteps == 0 || y.Uptime >= 1 {
			t.Fatalf("%s: outage episode %v but uptime %.3f (down %d)",
				f.Target, f.Window, y.Uptime, y.DownSteps)
		}
		if y.Missed == 0 || y.SampleYield >= 1 {
			t.Fatalf("%s: no missed rounds in the yield accounting: %+v", f.Target, y)
		}
		// Every link discovered before the outage must show an
		// unbroken NaN gap across the episode's interior bins.
		for _, lr := range vr.SortedLinks() {
			if lr.DiscoveredAt >= f.Window.Start {
				continue
			}
			far := lr.Collector.Series().Far
			gapped := 0
			far.Each(func(base int, vals []float64) {
				for k, v := range vals {
					at := far.TimeAt(base + k)
					// Interior bins only: edge bins can mix up/down steps.
					if at.Add(far.Step) <= f.Window.End && at >= f.Window.Start {
						if !timeseries.IsMissing(v) {
							t.Fatalf("%s %v: sample %v at %v inside outage %v",
								f.Target, lr.Target, v, at, f.Window)
						}
						gapped++
					}
				}
			})
			if gapped > 0 {
				checkedGaps = true
			}
			// The NaN-holed series went through the sweep: verdicts
			// exist and are finite where numbers are promised.
			for thr, v := range lr.Verdicts {
				if math.IsNaN(v.Diurnal.Consistency) || math.IsNaN(v.AW) {
					t.Fatalf("%s %v thr=%g: NaN leaked into the verdict", f.Target, lr.Target, thr)
				}
			}
			if len(lr.Verdicts) != len(res.Cfg.Thresholds) {
				t.Fatalf("%s %v: %d verdicts for %d thresholds",
					f.Target, lr.Target, len(lr.Verdicts), len(res.Cfg.Thresholds))
			}
		}
	}
	if !checkedGaps {
		t.Fatal("no outage overlapped a pre-discovered link's series; gap check is vacuous")
	}
}

// TestOutageBudgetOverlapPartition pins the Skipped/Missed partition
// when a budget-skipped round coincides with a VP outage on the same
// (step, link): the budget gate wins, so each scheduled round lands in
// exactly one of RoundSkipped/RoundMissed and VPYield.SampleYield
// never double-counts the overlap. The fault window is confined to the
// campaign's last day so the 25% budget has recomputed (and parked
// flat links) long before the first outage — the regression this pins
// counted every down-step round as missed for every link, budget
// notwithstanding.
func TestOutageBudgetOverlapPartition(t *testing.T) {
	campaign := simclock.Interval{
		Start: simclock.Date(2016, time.July, 20),
		End:   simclock.Date(2016, time.July, 24),
	}
	res := Run(Config{
		Opts:     scenario.Options{Seed: 5, Scale: 0.1},
		Campaign: campaign,
		Workers:  8,
		Faults: &faults.Config{Window: simclock.Interval{
			Start: simclock.Date(2016, time.July, 23),
			End:   simclock.Date(2016, time.July, 24),
		}},
		Budget: &budget.Config{Fraction: 0.25, Seed: 1, RecomputeEvery: 6 * time.Hour},
	})

	outages := res.Faults.ByKind(faults.VPOutage)
	if len(outages) == 0 {
		t.Fatal("no VP outage episodes in the confined window; overlap check is vacuous")
	}

	overlapChecked := false
	for _, f := range outages {
		vr, ok := res.VPByID(f.Target)
		if !ok || len(vr.Links) == 0 || vr.RoundsDown == 0 {
			continue
		}
		// Partition sanity: rounds land in exactly one of
		// attempted/missed/skipped, so two links watched over the same
		// steps must account for the same total.
		totals := make(map[simclock.Time]int)
		for _, lr := range vr.SortedLinks() {
			att, _, miss, skip := lr.Collector.Yield()
			sum := att + miss + skip
			if prev, seen := totals[lr.DiscoveredAt]; seen && prev != sum {
				t.Fatalf("%s %v: rounds accounted %d, sibling discovered at the same time accounted %d — a round landed in two buckets",
					f.Target, lr.Target, sum, prev)
			}
			totals[lr.DiscoveredAt] = sum
		}
		// The overlap itself: the budget parked links before the
		// outage, so some down-step rounds are budget skips, not
		// misses. Under the double-count bug every link discovered
		// before the outage showed missed == RoundsDown.
		for _, lr := range vr.SortedLinks() {
			if lr.DiscoveredAt >= f.Window.Start {
				continue
			}
			_, _, miss, skip := lr.Collector.Yield()
			if skip > 0 && miss < vr.RoundsDown {
				overlapChecked = true
			}
			if miss > vr.RoundsDown {
				t.Fatalf("%s %v: %d missed rounds exceed the VP's %d down rounds",
					f.Target, lr.Target, miss, vr.RoundsDown)
			}
		}
	}
	if !overlapChecked {
		t.Fatal("no link showed a budget skip absorbing a down step; overlap partition check is vacuous")
	}
}
