// Command tslp runs a time-sequence latency probe campaign on one
// link and prints the level-shift analysis plus an ASCII waveform —
// the single-link view behind the paper's case studies.
//
//	tslp -vp VP4 -case QCELL-NETPAGE -from 2016-03-01 -days 21
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"afrixp"
	"afrixp/internal/report"
	"afrixp/internal/simclock"
)

func main() {
	var (
		vpID    = flag.String("vp", "VP1", "vantage point (VP1..VP6)")
		caseLnk = flag.String("case", "GIXA-GHANATEL", "case link name")
		from    = flag.String("from", "2016-03-03", "campaign start (2006-01-02)")
		days    = flag.Int("days", 21, "campaign length in days")
		thr     = flag.Float64("threshold", 10, "level-shift threshold (ms)")
		scale   = flag.Float64("scale", 0.2, "world scale")
		seed    = flag.Uint64("seed", 0, "world seed")
	)
	flag.Parse()

	start, err := time.Parse("2006-01-02", *from)
	if err != nil {
		fatal("bad -from: %v", err)
	}
	campaign := simclock.Interval{
		Start: simclock.At(start.UTC()),
		End:   simclock.At(start.UTC()).Add(time.Duration(*days) * 24 * time.Hour),
	}

	w := afrixp.NewWorld(afrixp.WorldOptions{Seed: *seed, Scale: *scale})
	w.AdvanceTo(campaign.Start)
	vp, ok := w.VPByID(*vpID)
	if !ok {
		fatal("unknown VP %q", *vpID)
	}
	target, ok := vp.CaseLinks[*caseLnk]
	if !ok {
		fatal("%s has no case link %q", *vpID, *caseLnk)
	}

	p := afrixp.NewProber(w, vp)
	session, err := p.NewTSLP(target)
	if err != nil {
		fatal("tslp: %v", err)
	}
	col := afrixp.NewCollector(session, afrixp.CollectorConfig{
		Campaign: campaign, FullResWindow: campaign,
	})
	fmt.Fprintf(os.Stderr, "probing %s every 5 minutes for %d days...\n", target, *days)
	campaign.Steps(5*time.Minute, func(t simclock.Time) {
		w.AdvanceTo(t)
		col.Round(t)
	})

	cfg := afrixp.DefaultAnalysisConfig()
	cfg.ThresholdMs = *thr
	v := afrixp.NewSweeper().AnalyzeLink(col.Series(), cfg)

	fmt.Printf("link %s from %s (%s), %d days at 5-minute rounds\n\n",
		target, vp.ID, vp.Monitor, *days)
	near, far := col.FullRes()
	if err := report.ASCIIPlot(os.Stdout, []string{"far RTT (ms)", "near RTT (ms)"},
		[]rune{'o', '.'}, 100, 14, far, near); err != nil {
		fatal("plot: %v", err)
	}
	fmt.Println()
	fmt.Printf("flagged (threshold %g ms): %v\n", *thr, v.Flagged)
	fmt.Printf("near end flat:             %v\n", v.NearFlat)
	fmt.Printf("recurring diurnal pattern: %v (amplitude %.1f ms, consistency %.2f, peak hour %.1f)\n",
		v.Diurnal.Diurnal, v.Diurnal.AmplitudeMs, v.Diurnal.Consistency, v.Diurnal.PeakHour)
	fmt.Printf("verdict:                   %v (%s)\n", v.Congested, v.Class)
	if v.Congested {
		fmt.Printf("A_w = %.1f ms, Δt_UD = %v over %d events\n",
			v.AW, v.DeltaTUD.Round(time.Minute), len(v.Far.Events))
	}
	fmt.Printf("far-end loss fraction:     %.2f%%\n", 100*col.FarLossFraction())

	// Operator ground truth, as the interviews provided.
	if ann, ok := w.Interviews.Find(vp.ID, target); ok {
		fmt.Printf("\noperator interview: congested=%v class=%v cause=%s confirmed=%v\n",
			ann.CongestedTruth, ann.Class, ann.PrimaryCause(), ann.OperatorConfirmed)
		for _, ph := range ann.Phases {
			fmt.Printf("  %s → %s: %s — %s\n",
				ph.Interval.Start, ph.Interval.End, ph.Cause, ph.Note)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
