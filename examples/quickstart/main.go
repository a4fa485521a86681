// Quickstart: build the simulated African IXP world, probe one link
// with TSLP for a week, and run the paper's congestion detection on
// the collected series.
package main

import (
	"fmt"
	"time"

	"afrixp"
	"afrixp/internal/simclock"
)

func main() {
	// A small world keeps the example fast; Scale 1.0 reproduces the
	// paper-sized populations.
	world := afrixp.NewWorld(afrixp.WorldOptions{Seed: 42, Scale: 0.1})

	// VP4 is the Ark probe inside QCell at the Serekunda IXP. Its
	// case link to NETPAGE rides a 10 Mbps port that congests daily.
	vp, ok := world.VPByID("VP4")
	if !ok {
		panic("VP4 missing")
	}
	target := vp.CaseLinks["QCELL-NETPAGE"]
	fmt.Printf("probing %v from %s (%s)\n", target, vp.ID, vp.Monitor)

	prober := afrixp.NewProber(world, vp)
	session, err := prober.NewTSLP(target)
	if err != nil {
		panic(err)
	}

	// One week of 5-minute TSLP rounds, starting in phase 1.
	campaign := afrixp.Interval{
		Start: afrixp.Date(2016, time.March, 7),
		End:   afrixp.Date(2016, time.March, 14),
	}
	collector := afrixp.NewCollector(session, afrixp.CollectorConfig{Campaign: campaign})
	campaign.Steps(5*time.Minute, func(t simclock.Time) {
		world.AdvanceTo(t) // apply scheduled topology events
		collector.Round(t)
	})

	// The paper's §5.2 pipeline: level shifts ≥10 ms lasting ≥30 min,
	// flat near end, recurring diurnal pattern.
	verdict := afrixp.NewSweeper().AnalyzeLink(collector.Series(), afrixp.DefaultAnalysisConfig())
	fmt.Printf("flagged:   %v\n", verdict.Flagged)
	fmt.Printf("near flat: %v\n", verdict.NearFlat)
	fmt.Printf("diurnal:   %v (amplitude %.1f ms)\n",
		verdict.Diurnal.Diurnal, verdict.Diurnal.AmplitudeMs)
	fmt.Printf("congested: %v (%s)\n", verdict.Congested, verdict.Class)
	if verdict.Congested {
		fmt.Printf("A_w = %.1f ms over %d events\n", verdict.AW, len(verdict.Far.Events))
	}

	// The operator interview (ground truth the scenario carries).
	if ann, ok := world.Interviews.Find(vp.ID, target); ok {
		fmt.Printf("operator says: cause=%s, fixed by the %s upgrade\n",
			ann.PrimaryCause(), "2016-04-28")
	}
}
