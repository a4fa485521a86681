package experiments

import (
	"time"

	"afrixp/internal/analysis"
	"afrixp/internal/prober"
	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
)

// WhatIfPoint is one row of the capacity-planning sweep: had NETPAGE
// upgraded its 10 Mbps SIXP port to UpgradeBps instead of the 1 Gbps
// it actually bought, would the congestion have returned?
type WhatIfPoint struct {
	UpgradeBps float64
	// CongestedAfter reports whether the post-upgrade window still
	// qualifies as congested under the paper's pipeline.
	CongestedAfter bool
	// PeakP95Ms is the 95th-percentile far RTT after the upgrade.
	PeakP95Ms float64
}

// RunUpgradeWhatIf sweeps NETPAGE's upgrade capacity — the
// capacity-planning question the operators of §6.2.2 answered by
// over-provisioning, which only a simulated substrate can answer
// cheaply. Each sweep point rebuilds the world with the alternative
// upgrade and probes six post-upgrade weeks.
func RunUpgradeWhatIf(base scenario.Options, capacities []float64) ([]WhatIfPoint, error) {
	if len(capacities) == 0 {
		capacities = []float64{12e6, 20e6, 50e6, 1e9}
	}
	upgrade := simclock.Date(2016, time.April, 28)
	window := simclock.Interval{Start: upgrade, End: upgrade.Add(42 * 24 * time.Hour)}

	var out []WhatIfPoint
	var statsScr timeseries.StatsScratch // one sort buffer across the sweep
	sw := analysis.NewSweeper()
	for _, capBps := range capacities {
		opts := base
		opts.NetpageUpgradeBps = capBps
		w, err := scenario.BuildPaper(opts)
		if err != nil {
			return nil, err
		}
		vp, _ := w.VPByID("VP4")
		p := prober.New(w.Net, vp.Node, prober.Config{Name: "whatif"})
		session, err := p.NewTSLP(vp.CaseLinks["QCELL-NETPAGE"])
		if err != nil {
			return nil, err
		}
		col := analysis.NewCollector(session, analysis.CollectorConfig{Campaign: window})
		w.AdvanceTo(window.Start)
		window.Steps(5*time.Minute, func(t simclock.Time) {
			w.AdvanceTo(t)
			col.Round(t)
		})
		ls := col.Series()
		v := sw.AnalyzeLink(ls, analysis.DefaultConfig())
		st := ls.Far.SummarizeInto(&statsScr)
		out = append(out, WhatIfPoint{
			UpgradeBps:     capBps,
			CongestedAfter: v.Congested,
			PeakP95Ms:      st.P95,
		})
	}
	return out, nil
}
