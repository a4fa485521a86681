// Reproduction of §6.2.1 (GIXA–GHANATEL): the congested 100 Mbps
// transit link that fed the Google caches at the Ghana IXP. The
// example walks all three acts of the story:
//
//  1. phase 1 — weekday/weekend diurnal congestion with the "peak on
//     top of the peak" of congestion in both directions (Figure 1),
//  2. phase 2 — GHANATEL shuts off transit in a payment dispute; the
//     amplitude drops to ~10 ms while loss explodes (Figure 2),
//  3. 2016-08-06 — the link disappears and far-end probes go
//     unanswered, exactly as the paper observed.
package main

import (
	"fmt"
	"os"
	"time"

	"afrixp"
	"afrixp/internal/loss"
	"afrixp/internal/report"
	"afrixp/internal/simclock"
)

func main() {
	world := afrixp.NewWorld(afrixp.WorldOptions{Seed: 7, Scale: 0.1})
	vp, _ := world.VPByID("VP1")
	target := vp.CaseLinks["GIXA-GHANATEL"]
	prober := afrixp.NewProber(world, vp)
	session, err := prober.NewTSLP(target)
	if err != nil {
		panic(err)
	}

	// --- Act 1: three weeks of phase 1. ---
	phase1 := afrixp.Interval{
		Start: afrixp.Date(2016, time.March, 14),
		End:   afrixp.Date(2016, time.April, 4),
	}
	col1 := afrixp.NewCollector(session, afrixp.CollectorConfig{
		Campaign: phase1, FullResWindow: phase1})
	phase1.Steps(5*time.Minute, func(t simclock.Time) {
		world.AdvanceTo(t)
		col1.Round(t)
	})
	v1 := afrixp.NewSweeper().AnalyzeLink(col1.Series(), afrixp.DefaultAnalysisConfig())
	fmt.Println("=== phase 1 (transit serving the GGC) ===")
	near, far := col1.FullRes()
	report.ASCIIPlot(os.Stdout, []string{"far", "near"}, []rune{'o', '.'}, 90, 12, far, near)
	fmt.Printf("congested: %v (%s), A_w %.1f ms, Δt_UD %v\n",
		v1.Congested, v1.Class, v1.AW, v1.DeltaTUD.Round(time.Minute))
	fmt.Printf("paper: A_w 27.9 ms, Δt_UD ≈ 20 h, weekday spikes to ~50 ms\n\n")

	// --- Act 2: phase 2 with the loss campaign of Figure 2b. ---
	phase2 := afrixp.Interval{
		Start: afrixp.Date(2016, time.July, 1),
		End:   afrixp.Date(2016, time.August, 5),
	}
	col2 := afrixp.NewCollector(session, afrixp.CollectorConfig{Campaign: phase2})
	var lc loss.Collector
	phase2.Steps(5*time.Minute, func(t simclock.Time) {
		world.AdvanceTo(t)
		col2.Round(t)
		// A 100-probe loss batch every other round (≈1 pps sampling).
		if t.Truncate(10*time.Minute) == t {
			for i := 0; i < loss.BatchSize; i++ {
				_, farLost := session.LossRound(t.Add(time.Duration(i) * time.Second))
				lc.Record(t, farLost)
			}
		}
	})
	sum := loss.Summarize(lc.Batches())
	fmt.Println("=== phase 2 (transit shut off during the dispute) ===")
	fmt.Printf("far-end loss batches: %v\n", sum)
	fmt.Printf("paper: loss between 0%% and 85%% during phase 2\n\n")

	// --- Act 3: the shutdown. ---
	after := afrixp.Date(2016, time.August, 10)
	world.AdvanceTo(after)
	s := session.Round(after)
	fmt.Println("=== after 2016-08-06 ===")
	fmt.Printf("far probe lost: %v (near lost: %v)\n", s.FarLost, s.NearLost)
	fmt.Println("paper: \"latency probes to the far end were unsuccessful\" from 06/08")

	// The interview record carries the cause chain.
	ann, _ := world.Interviews.Find(vp.ID, target)
	fmt.Println("\noperator interview:")
	for _, ph := range ann.Phases {
		fmt.Printf("  %s → %s: %s\n      %s\n",
			ph.Interval.Start, ph.Interval.End, ph.Cause, ph.Note)
	}
}
