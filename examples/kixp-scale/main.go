// Reproduction of the VP5 story (Liquid Telecom at KIXP): a large
// transit provider's vantage point that discovers hundreds of links,
// grows substantially over the campaign (Table 2's most dramatic
// row), and — despite ~150 links tripping the level-shift threshold —
// shows zero recurring diurnal patterns (Table 1's "147 (0)").
package main

import (
	"fmt"
	"time"

	"afrixp"
	"afrixp/internal/report"
	"afrixp/internal/simclock"
	"os"
)

func main() {
	world := afrixp.NewWorld(afrixp.WorldOptions{Seed: 5, Scale: 0.15})
	vp, _ := world.VPByID("VP5")

	// --- Discovery growth across snapshots (Table 2 shape). ---
	t := &report.Table{Title: "VP5 (Liquid Telecom at KIXP): discovery snapshots",
		Header: []string{"snapshot", "links", "peering", "neighbors", "peers"}}
	for _, date := range []afrixp.Time{
		afrixp.Date(2016, time.March, 11),
		afrixp.Date(2016, time.September, 15),
		afrixp.Date(2017, time.March, 23),
	} {
		world.AdvanceTo(date)
		res, err := afrixp.BorderMap(world, vp, date)
		if err != nil {
			panic(err)
		}
		t.AddRow(date.Wall().Format("2006-01-02"),
			fmt.Sprint(len(res.Links)), fmt.Sprint(len(res.PeeringLinks())),
			fmt.Sprint(len(res.Neighbors)), fmt.Sprint(len(res.Peers)))
	}
	t.Render(os.Stdout)
	fmt.Println("paper: 288 links (4 peering) → 10,466 (601); 244 neighbors → 1,215")
	fmt.Println()

	// --- Flagged-but-not-diurnal: probe a handful of customer links. ---
	res, err := afrixp.BorderMap(world, vp, world.Now())
	if err != nil {
		panic(err)
	}
	prober := afrixp.NewProber(world, vp)
	campaign := afrixp.Interval{
		Start: world.Now(),
		End:   world.Now().Add(21 * 24 * time.Hour),
	}
	// The campaign runs past the latency end only in virtual time the
	// world has already reached; clamp to the paper period.
	if campaign.End > afrixp.CampaignEnd() {
		campaign.End = afrixp.CampaignEnd()
	}

	type probed struct {
		target afrixp.LinkTarget
		col    *afrixp.Collector
	}
	var sessions []probed
	for _, l := range res.Links {
		if len(sessions) >= 8 || l.ViaIXP != "" {
			continue // sample the customer links, the noisy population
		}
		s, err := prober.NewTSLP(afrixp.LinkTarget{Near: l.Near, Far: l.Far})
		if err != nil {
			continue
		}
		sessions = append(sessions, probed{
			target: afrixp.LinkTarget{Near: l.Near, Far: l.Far},
			col:    afrixp.NewCollector(s, afrixp.CollectorConfig{Campaign: campaign}),
		})
	}
	fmt.Printf("probing %d customer links for %d days...\n",
		len(sessions), int(campaign.Duration().Hours()/24))
	campaign.Steps(5*time.Minute, func(tm simclock.Time) {
		world.AdvanceTo(tm)
		for _, p := range sessions {
			p.col.Round(tm)
		}
	})

	flagged, diurnal := 0, 0
	sw := afrixp.NewSweeper()
	for _, p := range sessions {
		v := sw.AnalyzeLink(p.col.Series(), afrixp.DefaultAnalysisConfig())
		if v.Flagged {
			flagged++
			if v.Diurnal.Diurnal {
				diurnal++
			}
		}
	}
	fmt.Printf("flagged by the 10 ms level-shift threshold: %d of %d\n", flagged, len(sessions))
	fmt.Printf("with a recurring diurnal pattern:           %d\n", diurnal)
	fmt.Println("paper Table 1, VP5: 147 flagged, 0 diurnal — slow ICMP generation,")
	fmt.Println("not data-plane congestion, behind the level shifts")
}
