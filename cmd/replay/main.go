// Command replay re-runs the congestion analysis offline over a
// warts-format measurement archive (as written by repro -out through
// analysis.ToWarts, or by any prober with warts output) — the workflow
// of an analyst who has the Ark uploads but not the network.
//
//	repro -out ./run -days 60 -scale 0.2
//	replay -warts ./run/measurements.warts -days 60
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"afrixp/internal/analysis"
	"afrixp/internal/report"
	"afrixp/internal/simclock"
	"afrixp/internal/warts"
)

func main() {
	var (
		path     = flag.String("warts", "", "warts archive to analyze")
		days     = flag.Int("days", 0, "campaign length in days (0 = the paper's full period)")
		startOff = flag.Int("start-offset", 0, "days after 2016-02-22 the campaign started")
		thr      = flag.Float64("threshold", 10, "level-shift threshold (ms)")
	)
	flag.Parse()
	if *path == "" {
		fatal("need -warts")
	}
	f, err := os.Open(*path)
	if err != nil {
		fatal("open: %v", err)
	}
	defer f.Close()
	rd, err := warts.NewReader(f)
	if err != nil {
		fatal("reading archive: %v", err)
	}

	campaign := simclock.Interval{
		Start: simclock.Time(0).Add(time.Duration(*startOff) * 24 * time.Hour),
		End:   simclock.LatencyEnd,
	}
	if *days > 0 {
		campaign.End = campaign.Start.Add(time.Duration(*days) * 24 * time.Hour)
	}

	byVP, err := analysis.FromWarts(rd, campaign)
	if err != nil {
		fatal("replay: %v", err)
	}

	cfg := analysis.DefaultConfig()
	cfg.ThresholdMs = *thr

	vps := make([]string, 0, len(byVP))
	for vp := range byVP {
		vps = append(vps, vp)
	}
	sort.Strings(vps)

	t := &report.Table{
		Title:  fmt.Sprintf("offline analysis of %s (threshold %g ms)", *path, *thr),
		Header: []string{"VP", "link", "flagged", "diurnal", "congested", "class", "A_w (ms)"},
	}
	totalLinks, totalCongested := 0, 0
	sw := analysis.NewSweeper()
	for _, vp := range vps {
		links := byVP[vp]
		targets := make([]string, 0, len(links))
		index := make(map[string]analysis.LinkSeries, len(links))
		for target, ls := range links {
			key := target.String()
			targets = append(targets, key)
			index[key] = ls
		}
		sort.Strings(targets)
		for _, key := range targets {
			v := sw.AnalyzeLink(index[key], cfg)
			totalLinks++
			if v.Congested {
				totalCongested++
			}
			aw := ""
			if v.Congested {
				aw = fmt.Sprintf("%.1f", v.AW)
			}
			t.AddRow(vp, key, yn(v.Flagged), yn(v.Diurnal.Diurnal),
				yn(v.Congested), v.Class.String(), aw)
		}
	}
	t.Render(os.Stdout)
	if totalLinks > 0 {
		fmt.Printf("\n%d/%d links congested (%.1f%%)\n",
			totalCongested, totalLinks, 100*float64(totalCongested)/float64(totalLinks))
	}
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
