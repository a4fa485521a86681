package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"afrixp/internal/budget"
	"afrixp/internal/faults"
	"afrixp/internal/observatory"
	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
)

// runObservatoryCampaign runs the 7-day paper-world campaign with
// faults and a 50% probe budget — the adversarial setting the
// streaming-observatory determinism claim is made under — with a
// fresh service attached.
func runObservatoryCampaign(workers, batchSteps, shards int) (*Result, *observatory.Service) {
	svc := observatory.New(observatory.Config{})
	res := Run(Config{
		Opts: scenario.Options{Seed: 5, Scale: 0.1},
		Campaign: simclock.Interval{
			Start: simclock.Date(2016, time.July, 20),
			End:   simclock.Date(2016, time.July, 27),
		},
		Workers:     workers,
		BatchSteps:  batchSteps,
		Shards:      shards,
		Faults:      &faults.Config{},
		Budget:      &budget.Config{Fraction: 0.5, Seed: 1},
		Observatory: svc,
	})
	return res, svc
}

// renderAlerts flattens a service's full alert log for bit-comparison
// (IEEE-exact float rendering via %v round-trips the bits).
func renderAlerts(svc *observatory.Service) string {
	alerts, _ := svc.AlertsSince(0, 0, nil)
	var b strings.Builder
	for _, a := range alerts {
		fmt.Fprintf(&b, "%d %s %d %s->%s thr=%v mag=%v ev=%v\n",
			a.Seq, a.Link, a.AtNs, a.From, a.To, a.ThresholdMs, a.MagnitudeMs, a.Evidence)
	}
	return b.String()
}

// checkServiceVerdicts asserts the service's finalized verdicts are
// bit-identical to the engine's batch sweep for every link of res.
func checkServiceVerdicts(t *testing.T, label string, res *Result, svc *observatory.Service) {
	t.Helper()
	links := 0
	for _, vr := range res.VPs {
		for _, lr := range vr.SortedLinks() {
			got := svc.LinkVerdicts(vr.VP.ID, lr.Target)
			if got == nil {
				t.Fatalf("%s: service has no verdicts for %s %v", label, vr.VP.ID, lr.Target)
			}
			for thr, want := range lr.Verdicts {
				g, ok := got[thr]
				if !ok {
					t.Fatalf("%s: service missing threshold %v for %s %v", label, thr, vr.VP.ID, lr.Target)
				}
				if fmt.Sprintf("%+v", g) != fmt.Sprintf("%+v", want) {
					t.Fatalf("%s: verdict mismatch for %s %v at %v ms:\nservice: %+v\nengine:  %+v",
						label, vr.VP.ID, lr.Target, thr, g, want)
				}
			}
			links++
		}
	}
	if links == 0 {
		t.Fatalf("%s: no links compared; the equivalence claim is vacuous", label)
	}
}

// checkReplayOracle is the independent check on a live service whose
// verdicts are the engine's own, handed over: a fresh service watches
// every link of res, is fed once to campaign end, and sweeps every link
// itself in Finalize. Its verdicts must equal the engine's and its
// alert log the live service's.
func checkReplayOracle(t *testing.T, label string, res *Result, live *observatory.Service) {
	t.Helper()
	replay := observatory.New(observatory.Config{})
	for _, vr := range res.VPs {
		for _, lr := range vr.SortedLinks() {
			replay.Watch(vr.VP.ID, lr.Target, lr.Collector, lr.CaseName,
				lr.Symmetry != nil && !lr.Symmetry.Symmetric)
			if replay.LinkVerdicts(vr.VP.ID, lr.Target) != nil {
				t.Fatalf("%s: replay has verdicts before its own sweep", label)
			}
		}
	}
	replay.ObserveBarrier(res.Cfg.Campaign.End)
	replay.Finalize(res.Cfg.Thresholds)
	checkServiceVerdicts(t, label+" replay", res, replay)
	if got, want := renderAlerts(replay), renderAlerts(live); got != want {
		t.Fatalf("%s: replayed alert log differs from the live one\n%s", label, firstDiff(want, got))
	}
}

// TestObservatoryVerdictsDoNotAliasEngine pins the hand-over's copy:
// rewriting the engine's verdict maps after Run returns must not reach
// the service.
func TestObservatoryVerdictsDoNotAliasEngine(t *testing.T) {
	svc := observatory.New(observatory.Config{})
	res := Run(Config{
		Opts: scenario.Options{Seed: 5, Scale: 0.1},
		Campaign: simclock.Interval{
			Start: simclock.Date(2016, time.July, 20),
			End:   simclock.Date(2016, time.July, 22),
		},
		DisableLoss: true,
		Observatory: svc,
	})
	render := func() string {
		var b strings.Builder
		for _, vr := range res.VPs {
			for _, lr := range vr.SortedLinks() {
				got := svc.LinkVerdicts(vr.VP.ID, lr.Target)
				if got == nil {
					t.Fatalf("service has no verdicts for %s %v", vr.VP.ID, lr.Target)
				}
				for _, thr := range res.Cfg.Thresholds {
					fmt.Fprintf(&b, "%s %v %v: %+v\n", vr.VP.ID, lr.Target, thr, got[thr])
				}
			}
		}
		return b.String()
	}
	before := render()
	links := 0
	for _, vr := range res.VPs {
		for _, lr := range vr.SortedLinks() {
			for thr, v := range lr.Verdicts {
				v.Flagged, v.Congested, v.AW = !v.Flagged, !v.Congested, -1
				lr.Verdicts[thr] = v
			}
			delete(lr.Verdicts, res.Cfg.Thresholds[0])
			links++
		}
	}
	if links == 0 {
		t.Fatal("campaign discovered no links; the aliasing check is vacuous")
	}
	if after := render(); after != before {
		t.Fatalf("mutating the engine's verdicts changed the service's\n%s", firstDiff(before, after))
	}
}

// TestObservatoryCampaignMatrix is the streaming observatory's
// determinism gate: with faults and a 50% probe budget enabled, the
// attached service must (1) leave campaign results bit-identical to a
// service-free run, (2) produce a bit-identical alert log across the
// full Workers × BatchSteps × Shards matrix — the feed is cursor-based
// over finalized slots with slot-time stamps, so barrier cadence must
// not reach it — and (3) finalize end-of-campaign verdicts
// bit-identical to the engine's AnalyzeLinkSweep (DESIGN.md §16).
func TestObservatoryCampaignMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("observatory matrix skipped in -short")
	}

	// Service-free reference: attaching the observatory must not change
	// campaign results.
	bare := Run(Config{
		Opts: scenario.Options{Seed: 5, Scale: 0.1},
		Campaign: simclock.Interval{
			Start: simclock.Date(2016, time.July, 20),
			End:   simclock.Date(2016, time.July, 27),
		},
		Workers:    1,
		BatchSteps: 1,
		Faults:     &faults.Config{},
		Budget:     &budget.Config{Fraction: 0.5, Seed: 1},
	})
	bareSum := summarizeResult(bare)

	ref, refSvc := runObservatoryCampaign(1, 1, 1)
	refSum := summarizeResult(ref)
	if refSum != bareSum {
		t.Fatalf("attaching the observatory changed campaign results\n%s", firstDiff(bareSum, refSum))
	}
	refAlerts := renderAlerts(refSvc)
	refFed := refSvc.FedSlots()
	if refFed == 0 {
		t.Fatal("observatory fed no slots; the matrix claim is vacuous")
	}
	if refSvc.TotalAlerts() == 0 {
		t.Fatal("observatory emitted no alerts over a congested case-study window; the alert-log claim is vacuous")
	}
	checkServiceVerdicts(t, "reference", ref, refSvc)
	checkReplayOracle(t, "reference", ref, refSvc)

	cells := [][3]int{
		{1, 1, 4}, {1, 4096, 1}, {1, 4096, 4},
		{8, 1, 1}, {8, 1, 4}, {8, 4096, 1}, {8, 4096, 4},
	}
	if raceEnabled || testing.Short() {
		// Race runs pay ~10× per campaign; two far-corner cells still
		// cross every axis (workers, batch, shards) against the ref.
		cells = [][3]int{{8, 4096, 4}, {8, 1, 4}}
	}
	for _, c := range cells {
		workers, batch, shards := c[0], c[1], c[2]
		label := fmt.Sprintf("workers=%d batch=%d shards=%d", workers, batch, shards)
		res, svc := runObservatoryCampaign(workers, batch, shards)
		if got := summarizeResult(res); got != refSum {
			t.Fatalf("%s: results differ from reference\n%s", label, firstDiff(refSum, got))
		}
		if got := renderAlerts(svc); got != refAlerts {
			t.Fatalf("%s: alert log differs from reference\n%s", label, firstDiff(refAlerts, got))
		}
		if svc.FedSlots() != refFed {
			t.Fatalf("%s: fed %d slots, reference fed %d", label, svc.FedSlots(), refFed)
		}
		checkServiceVerdicts(t, label, res, svc)
		if c == cells[0] {
			// cells[0] is sharded in the full matrix and under -race.
			checkReplayOracle(t, label, res, svc)
		}
	}
}
