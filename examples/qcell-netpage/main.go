// Reproduction of §6.2.2 (QCELL–NETPAGE at the Serekunda IXP): a
// 10 Mbps member port congested by Google-cache demand, with 35 ms
// weekday and ~15 ms weekend spikes, upgraded to 1 Gbps on 2016-04-28
// — after which the diurnal pattern disappears for the rest of the
// campaign (Figure 4).
package main

import (
	"fmt"
	"time"

	"afrixp"
	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
)

func main() {
	world := afrixp.NewWorld(afrixp.WorldOptions{Seed: 11, Scale: 0.1})
	vp, _ := world.VPByID("VP4")
	target := vp.CaseLinks["QCELL-NETPAGE"]
	prober := afrixp.NewProber(world, vp)
	session, err := prober.NewTSLP(target)
	if err != nil {
		panic(err)
	}

	// Probe across the upgrade: four weeks before, four after.
	upgrade := afrixp.Date(2016, time.April, 28)
	campaign := afrixp.Interval{
		Start: upgrade.Add(-28 * 24 * time.Hour),
		End:   upgrade.Add(28 * 24 * time.Hour),
	}
	col := afrixp.NewCollector(session, afrixp.CollectorConfig{
		Campaign: campaign, FullResWindow: campaign})
	campaign.Steps(5*time.Minute, func(t simclock.Time) {
		world.AdvanceTo(t)
		col.Round(t)
	})

	_, far := col.FullRes()
	phase1 := far.Slice(campaign.Start, upgrade)
	phase2 := far.Slice(upgrade, campaign.End)

	// Weekday vs weekend spike heights in phase 1 (the paper: ~35 ms
	// on business days, ~15 ms on weekends).
	wkday, wkend := splitByDayType(phase1)
	fmt.Println("=== phase 1 (10 Mbps port) ===")
	fmt.Printf("weekday P95 far RTT: %.1f ms (paper: spikes to ~35 ms)\n",
		timeseries.Quantile(wkday, 0.95))
	fmt.Printf("weekend P95 far RTT: %.1f ms (paper: ~15 ms)\n",
		timeseries.Quantile(wkend, 0.95))

	sw := afrixp.NewSweeper()
	v1 := sw.AnalyzeLink(sliceSeries(col, campaign.Start, upgrade), afrixp.DefaultAnalysisConfig())
	fmt.Printf("verdict: congested=%v A_w=%.1f ms Δt_UD=%v (paper: 10.7 ms, 6h22m)\n\n",
		v1.Congested, v1.AW, v1.DeltaTUD.Round(time.Minute))

	fmt.Println("=== phase 2 (after the 2016-04-28 upgrade to 1 Gbps) ===")
	fmt.Printf("phase-2 P95 far RTT: %.1f ms (paper: mostly below 10 ms)\n",
		timeseries.Quantile(phase2.Present(), 0.95))
	v2 := sw.AnalyzeLink(sliceSeries(col, upgrade, campaign.End), afrixp.DefaultAnalysisConfig())
	fmt.Printf("verdict: congested=%v — the diurnal pattern disappeared\n\n", v2.Congested)

	// Whole-window classification: congestion that stops well before
	// the end of the series is *transient* (mitigated), the paper's
	// category for this link.
	vAll := sw.AnalyzeLink(col.Series(), afrixp.DefaultAnalysisConfig())
	fmt.Printf("whole-window classification: %s (paper: transient, fixed by upgrade)\n", vAll.Class)

	ann, _ := world.Interviews.Find(vp.ID, target)
	fmt.Printf("operator: %s — %s\n", ann.PrimaryCause(), ann.Phases[0].Note)
}

// splitByDayType partitions present samples into weekday/weekend sets.
// Each works for both backings: collector series are XOR-compressed
// chunks, sliced figure windows stay flat.
func splitByDayType(s *timeseries.Series) (weekday, weekend []float64) {
	s.Each(func(base int, vals []float64) {
		for i, v := range vals {
			if timeseries.IsMissing(v) {
				continue
			}
			if s.TimeAt(base + i).IsWeekend() {
				weekend = append(weekend, v)
			} else {
				weekday = append(weekday, v)
			}
		}
	})
	return
}

// sliceSeries restricts a collector's series to a sub-interval.
func sliceSeries(col *afrixp.Collector, from, to afrixp.Time) afrixp.LinkSeries {
	ls := col.Series()
	ls.Near = ls.Near.Slice(from, to)
	ls.Far = ls.Far.Slice(from, to)
	return ls
}
