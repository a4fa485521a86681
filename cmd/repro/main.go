// Command repro runs the simulated measurement campaign, regenerates
// every table and figure of the paper's evaluation from it and prints
// paper-vs-measured comparisons, or writes the campaign's artifacts —
// report, figures and raw measurement archive — into a directory.
//
// Usage:
//
//	repro [-days N] [-scale F] [-gen-seed N] [-shards N] [-seed N]
//	      [-csvdir DIR] [-out DIR] [-quiet]
//	      [-faults] [-fault-seed N] [-budget F] [-budget-seed N]
//	      [-budget-table] [-scale-sweep]
//	      [-checkpoint-dir DIR] [-checkpoint-every DUR] [-resume]
//	      [-result-sha]
//	      [-table1] [-table2] [-figs] [-headline] [-bdrmap] [-waveforms]
//	      [-asrank] [-whatif] [-cpuprofile FILE] [-memprofile FILE]
//	      [-metrics FILE] [-metrics-addr HOST:PORT] [-metrics-linger DUR]
//
// -scale ≤ 1 scales the authored paper world's synthetic populations
// (existing invocations are unchanged); -scale > 1 generates a
// continent-scale world (internal/worldgen) at that multiple of the
// paper's size, seeded by -gen-seed, with planted congestion ground
// truth. -shards partitions the VPs into memory shards, each sealing
// its series into one shared compression arena; results are
// bit-identical for any -shards / -workers / -batch. -scale-sweep
// runs the 1×/10×/100× engine sweep and prints links/s, resident
// bytes/link, and peak RSS per scale.
//
// -faults injects the deterministic fault plan (VP outages, ICMP
// blackouts and rate limiting, link flaps) and prints each VP's
// uptime and sample yield; results remain bit-identical for any
// -workers / -batch.
//
// -budget F (F > 0) installs the probe-budget scheduler: links are
// ranked by marginal utility and probed at adaptive power-of-two
// periods so the campaign sends at most F of the full-rate probes;
// results are bit-identical per (-budget, -budget-seed) for any
// -workers / -batch. F of 1 (or above, clamped) runs the scheduler at
// full spend — every link at period 1, probe-count parity with an
// unscheduled run — so 100% budgets take the same code path as 99.9%.
// -budget-table runs the campaign at 100/50/25/10% budgets and prints
// detection recall, time-to-detect, and Table-1 fidelity per budget
// point; its campaigns are the one a plain run with the same flags
// would make (world, shards, fault plan). Both sweeps print a table
// and write nothing else, so they refuse -out, -csvdir,
// -checkpoint-dir and -resume.
//
// -checkpoint-dir DIR snapshots the engine's full measurement state
// into DIR every -checkpoint-every of virtual campaign time (default
// 24h), at batch barriers. -resume loads the newest valid checkpoint
// from DIR and continues the campaign from its barrier — bit-identical
// to an uninterrupted run, even after a SIGKILL mid-write (the loader
// falls back past truncated snapshots). -result-sha prints a SHA-256
// digest of every campaign observable at the bit level, for comparing
// runs.
//
// -metrics writes a campaign telemetry snapshot (JSON) at exit;
// -metrics-addr serves the same snapshot live at /metrics (plus the
// standard expvar surface at /debug/vars) while the run progresses,
// and carries the streaming observatory's API on the same port:
// /links, /links/{id}, /alerts (since-cursor, ?wait=1 long-polls),
// and /stream (SSE barrier feed from the online level-shift
// detectors). Telemetry and observatory are strictly read-side:
// results are unchanged by them. -metrics-linger keeps the endpoint up
// after the run so scrapers can collect the final state; while it
// lingers the observatory republishes its final barrier on /stream
// once a second.
//
// -out DIR writes the campaign's artifacts, the way the paper's
// measurement infrastructure archived a campaign: report.txt (Tables
// 1 and 2, the headline fractions, bdrmap coverage, and the fault,
// budget, observatory and telemetry summaries the run has), each
// figure's CSV, SVG and text plot, and measurements.warts, one warts
// TSLP record per collected sample (cmd/replay re-analyzes it):
//
//	repro -out ./run -days 90 -scale 0.25
//
// With no selection flags, everything is printed — unless -out is
// given, when only the selected sections are. The default run covers
// the paper's full 13-month campaign at scale 1.0; use -days and
// -scale for quick looks.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"afrixp"
	"afrixp/internal/analysis"
	"afrixp/internal/budget"
	"afrixp/internal/experiments"
	"afrixp/internal/profiling"
	"afrixp/internal/report"
	"afrixp/internal/scenario"
	"afrixp/internal/warts"
)

// main delegates to run so that every deferred flush — CPU/heap
// profiles, the telemetry snapshot — executes on error paths too;
// an os.Exit in the body would skip them (the gap the profiling
// package used to document).
func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	var (
		days        = flag.Int("days", 0, "campaign length in days (0 = the paper's full period)")
		startOff    = flag.Int("start-offset", 0, "days after 2016-02-22 to start the campaign")
		scale       = flag.Float64("scale", 1.0, "world scale: ≤1 scales the authored paper world's populations; >1 generates a continent-scale world (see -gen-seed)")
		genSeed     = flag.Uint64("gen-seed", 0, "continent-scale generator seed (only with -scale > 1; 0 = default)")
		shards      = flag.Int("shards", 0, "partition VPs into this many memory shards, one shared series arena each (0/1 = one arena per VP; results are identical for any value)")
		doSweep     = flag.Bool("scale-sweep", false, "run the 1×/10×/100× scale sweep (throughput, bytes/link, peak RSS) and print the table")
		seed        = flag.Uint64("seed", 0, "world seed (0 = default)")
		csvDir      = flag.String("csvdir", "", "when set, write figure CSVs into this directory")
		outDir      = flag.String("out", "", "write the campaign's artifacts (report.txt, figure CSV/SVG/text plots, measurements.warts) into this directory")
		quiet       = flag.Bool("quiet", false, "suppress progress output")
		noLoss      = flag.Bool("no-loss", false, "skip the 1 pps loss campaigns")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "probing/analysis worker goroutines (results are identical for any value)")
		batch       = flag.Int("batch", 0, "max probing steps per worker dispatch (0 = default 1024; results are identical for any value)")
		doFaults    = flag.Bool("faults", false, "inject the deterministic fault plan (VP outages, ICMP blackouts/rate limits, link flaps) and print per-VP uptime/sample yield")
		faultSeed   = flag.Uint64("fault-seed", 0, "extra seed for the fault plan (only with -faults)")
		budgetFrac  = flag.Float64("budget", 0, "probe budget as a fraction of full rate (0 = no scheduler; ≥1 = scheduler at full spend; results identical per (budget, budget-seed) for any -workers/-batch)")
		budgetSeed  = flag.Uint64("budget-seed", 0, "extra seed for the probe-budget schedule (only with -budget)")
		doBudgetTab = flag.Bool("budget-table", false, "run the probe-budget sweep (100/50/25/10%) and print recall/time-to-detect/Table-1 fidelity per budget")
		doTable1    = flag.Bool("table1", false, "Table 1: threshold sensitivity")
		doTable2    = flag.Bool("table2", false, "Table 2: per-VP evolution")
		doFigs      = flag.Bool("figs", false, "Figures 1-4")
		doHead      = flag.Bool("headline", false, "§6.1 congested fraction")
		doBdrmap    = flag.Bool("bdrmap", false, "§4 bdrmap validation")
		doWaves     = flag.Bool("waveforms", false, "§5.2 A_w / Δt_UD")
		doRels      = flag.Bool("asrank", false, "AS-relationship inference validation")
		doWhatIf    = flag.Bool("whatif", false, "NETPAGE upgrade capacity-planning sweep")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf     = flag.String("memprofile", "", "write a heap profile to this file at exit")
		metricsOut  = flag.String("metrics", "", "write a campaign telemetry snapshot (JSON) to this file at exit")
		metricsAddr = flag.String("metrics-addr", "", "serve live telemetry at http://ADDR/metrics during the run")
		linger      = flag.Duration("metrics-linger", 0, "keep the -metrics-addr endpoint up this long after the run completes")
		ckptDir     = flag.String("checkpoint-dir", "", "snapshot the campaign's measurement state into this directory at batch barriers")
		ckptEvery   = flag.Duration("checkpoint-every", 0, "virtual-time cadence between checkpoints (0 = default 24h; only with -checkpoint-dir)")
		doResume    = flag.Bool("resume", false, "resume from the newest valid checkpoint in -checkpoint-dir (bit-identical to an uninterrupted run)")
		resultSHA   = flag.Bool("result-sha", false, "print a SHA-256 digest of every campaign observable (bit-level), for comparing runs")
	)
	flag.Parse()

	if *doBudgetTab || *doSweep {
		// A sweep prints its table and writes no artifacts or
		// checkpoints: refuse the flags it would ignore.
		var ignored []string
		for _, f := range []struct {
			name string
			set  bool
		}{{"-out", *outDir != ""}, {"-csvdir", *csvDir != ""},
			{"-checkpoint-dir", *ckptDir != ""}, {"-resume", *doResume}} {
			if f.set {
				ignored = append(ignored, f.name)
			}
		}
		if len(ignored) > 0 {
			sweep := "-scale-sweep"
			if *doBudgetTab {
				sweep = "-budget-table"
			}
			return fmt.Errorf("repro: %s ignores %s", sweep, strings.Join(ignored, ", "))
		}
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	var tele *afrixp.Telemetry
	var live *afrixp.Observatory
	if *metricsOut != "" || *metricsAddr != "" {
		tele = afrixp.NewTelemetry()
		if *metricsOut != "" {
			// Deferred so the snapshot lands even when a later stage
			// fails: whatever was counted up to the failure is kept.
			defer func() {
				if err := tele.WriteJSONFile(*metricsOut); err != nil {
					fmt.Fprintln(os.Stderr, err)
				} else {
					fmt.Fprintf(os.Stderr, "telemetry snapshot written to %s\n", *metricsOut)
				}
			}()
		}
		if *metricsAddr != "" {
			// The streaming observatory rides beside /metrics: the live
			// link table, alert log, and SSE stream of the campaign's
			// online detectors. Read-side only — results are unchanged.
			live = afrixp.NewObservatory(afrixp.ObservatoryConfig{})
			srv, err := tele.Serve(*metricsAddr, live.Mount)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "telemetry: live at http://%s/metrics\n", srv.Addr())
			fmt.Fprintf(os.Stderr, "observatory: live at http://%s/links /alerts /stream\n", srv.Addr())
			if *linger > 0 {
				// Linger before the deferred Close so a scraper (or the
				// CI smoke test) can read the post-run state. While
				// lingering, republish the observatory's final barrier
				// once a second: ObserveBarrier at an unchanged barrier
				// feeds no slots and raises no alerts, but it does emit
				// an SSE heartbeat, so a /stream subscriber that
				// connects after the campaign finished still sees
				// barrier events instead of a silent socket.
				defer func() {
					fmt.Fprintf(os.Stderr, "telemetry: lingering %v on http://%s/metrics\n",
						*linger, srv.Addr())
					deadline := time.Now().Add(*linger)
					for time.Now().Before(deadline) {
						time.Sleep(time.Second)
						live.ObserveBarrier(live.Barrier())
					}
				}()
			}
		}
	}

	all := *outDir == "" && !(*doTable1 || *doTable2 || *doFigs || *doHead || *doBdrmap || *doWaves || *doRels || *doWhatIf)

	var progress io.Writer = os.Stderr
	if *quiet {
		progress = nil
	}

	ccfg := afrixp.CampaignConfig{
		Seed: *seed, Scale: *scale, GenSeed: *genSeed, Days: *days, StartOffsetDays: *startOff,
		DisableLoss: *noLoss, Workers: *workers, BatchSteps: *batch, Shards: *shards,
		Faults: *doFaults, FaultSeed: *faultSeed,
		Budget: *budgetFrac, BudgetSeed: *budgetSeed,
		CheckpointDir: *ckptDir, CheckpointEvery: *ckptEvery, Resume: *doResume,
		Progress: progress,
	}
	if *doBudgetTab {
		return runBudgetTable(ccfg)
	}
	if *doSweep {
		fmt.Fprintln(os.Stderr, "scale sweep: 1× (paper world) + 10×/100× generated worlds...")
		points := experiments.RunScaleSweep(experiments.ScaleSweepConfig{
			GenSeed: *genSeed, Workers: *workers, Progress: progress,
		})
		experiments.RenderScaleSweep(os.Stdout, points)
		return nil
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fmt.Errorf("mkdir: %w", err)
		}
	}
	fmt.Fprintf(os.Stderr, "building world (scale %.2f) and running campaign...\n", *scale)
	start := time.Now()
	ccfg.Telemetry, ccfg.Observatory = tele, live
	c := afrixp.RunCampaign(ccfg)
	fmt.Fprintf(os.Stderr, "campaign finished in %v\n\n", time.Since(start).Round(time.Second))

	if *resultSHA {
		fmt.Fprintf(os.Stdout, "result sha256: %s\n", experiments.ResultDigest(c))
	}

	out := os.Stdout
	if *doFaults {
		t := &report.Table{Title: "fault plan: per-VP uptime and sample yield",
			Header: []string{"VP", "links", "uptime", "rounds", "missed", "skipped", "sample yield"}}
		for _, y := range c.Yields() {
			t.AddRow(y.VP, fmt.Sprint(y.Links),
				fmt.Sprintf("%.1f%%", 100*y.Uptime),
				fmt.Sprint(y.Rounds), fmt.Sprint(y.Missed), fmt.Sprint(y.Skipped),
				fmt.Sprintf("%.1f%%", 100*y.SampleYield))
		}
		t.Render(out)
		fmt.Fprintf(out, "%d fault episodes injected\n\n", len(c.Faults.Faults))
	}
	if *budgetFrac > 0 {
		rounds, skipped := c.BudgetRounds()
		fmt.Fprintf(os.Stderr, "probe budget %.0f%%: %d rounds sent, %d skipped (%.1f%% of schedule)\n\n",
			100**budgetFrac, rounds, skipped,
			100*float64(rounds)/float64(rounds+skipped))
	}
	if all || *doTable1 {
		afrixp.Table1Report(c).Render(out)
		fmt.Fprintln(out)
		report.RenderComparisons(out, "Table 1 paper-vs-measured (10 ms column)", table1Comparisons(c))
		fmt.Fprintln(out)
	}
	if all || *doTable2 {
		afrixp.Table2Report(c).Render(out)
		fmt.Fprintln(out)
	}
	if all || *doHead {
		rows, frac := afrixp.Headline(c)
		t := &report.Table{Title: "§6.1: fraction of discovered links that experienced congestion",
			Header: []string{"VP", "links", "congested", "fraction"}}
		for _, r := range rows {
			t.AddRow(r.VP, fmt.Sprint(r.Links), fmt.Sprint(r.Congested),
				fmt.Sprintf("%.1f%%", 100*r.Fraction))
		}
		t.AddRow("All", "", "", fmt.Sprintf("%.1f%%", 100*frac))
		t.Render(out)
		fmt.Fprintf(out, "paper: 2.2%% of discovered links congested; measured: %.1f%%\n\n", 100*frac)
	}
	if all || *doBdrmap {
		fmt.Fprintf(out, "§4 bdrmap validation: mean neighbor coverage %.1f%% (paper: 96.2%%)\n\n",
			100*afrixp.BdrmapAccuracy(c))
	}
	if all || *doWaves {
		t := &report.Table{Title: "§5.2 waveform statistics (sanitized level shifts)",
			Header: []string{"case", "A_w (ms)", "Δt_UD", "events", "class", "paper A_w", "paper Δt_UD"}}
		paper := map[string][2]string{
			"GIXA-GHANATEL": {"27.9", "~20h"},
			"GIXA-KNET":     {"17.5", "2h14m"},
			"QCELL-NETPAGE": {"10.7", "6h22m"},
		}
		for _, wf := range afrixp.Waveforms(c) {
			p := paper[wf.Case]
			t.AddRow(wf.Case, fmt.Sprintf("%.1f", wf.AW),
				wf.DeltaTUD.Round(time.Minute).String(),
				fmt.Sprint(wf.Events), wf.Class, p[0], p[1])
		}
		t.Render(out)
		fmt.Fprintln(out)
	}
	if all || *doRels {
		ri, err := experiments.RunRelInference(scenario.Options{Seed: *seed, Scale: *scale},
			afrixp.Date(2016, 3, 17))
		if err != nil {
			fmt.Fprintf(os.Stderr, "asrank: %v\n", err)
		} else {
			fmt.Fprintf(out, "AS-rank stand-in: %d collector paths; %.0f%% of ground-truth links visible,\n",
				ri.Paths, 100*ri.Covered)
			fmt.Fprintf(out, "  %.0f%% of visible links classified exactly; bdrmap peers truth=%d inferred=%d\n\n",
				100*ri.Exact/ri.Covered, ri.PeersTruth, ri.PeersInferred)
		}
	}
	if all || *doWhatIf {
		pts, err := experiments.RunUpgradeWhatIf(scenario.Options{Seed: *seed, Scale: *scale}, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "whatif: %v\n", err)
		} else {
			t := &report.Table{Title: "what-if: NETPAGE upgrade capacity sweep (actual choice: 1 Gbps)",
				Header: []string{"upgrade to", "still congested", "post-upgrade P95 RTT"}}
			for _, pt := range pts {
				t.AddRow(fmt.Sprintf("%.0f Mbps", pt.UpgradeBps/1e6),
					fmt.Sprint(pt.CongestedAfter),
					fmt.Sprintf("%.1f ms", pt.PeakP95Ms))
			}
			t.Render(out)
			fmt.Fprintln(out)
		}
	}
	if *outDir != "" {
		if err := writeArtifacts(*outDir, c, *doFaults, *budgetFrac, live, tele); err != nil {
			return err
		}
	}
	if all || *doFigs {
		for _, fig := range afrixp.Figures(c) {
			if err := fig.Render(out, 100, 14); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", fig.ID, err)
				continue
			}
			fmt.Fprintln(out)
			if *csvDir != "" {
				if err := writeCSV(*csvDir, fig); err != nil {
					fmt.Fprintf(os.Stderr, "csv %s: %v\n", fig.ID, err)
				}
			}
		}
	}
	return nil
}

// writeArtifacts writes the campaign's report, figure files and warts
// measurement archive into dir and prints where they went.
func writeArtifacts(dir string, c *afrixp.Campaign, faults bool, budgetFrac float64,
	live *afrixp.Observatory, tele *afrixp.Telemetry) error {
	var rf bytes.Buffer
	afrixp.Table1Report(c).Render(&rf)
	fmt.Fprintln(&rf)
	afrixp.Table2Report(c).Render(&rf)
	fmt.Fprintln(&rf)
	rows, frac := afrixp.Headline(c)
	for _, r := range rows {
		fmt.Fprintf(&rf, "%s: %d/%d links congested (%.1f%%)\n",
			r.VP, r.Congested, r.Links, 100*r.Fraction)
	}
	fmt.Fprintf(&rf, "overall congested fraction: %.1f%% (paper: 2.2%%)\n", 100*frac)
	fmt.Fprintf(&rf, "bdrmap mean coverage: %.1f%% (paper: 96.2%%)\n",
		100*afrixp.BdrmapAccuracy(c))
	if faults {
		fmt.Fprintf(&rf, "\nfault plan (%d episodes): per-VP uptime and sample yield\n",
			len(c.Faults.Faults))
		for _, y := range c.Yields() {
			fmt.Fprintf(&rf, "%s: uptime %.1f%%, sample yield %.1f%% (%d rounds, %d missed, %d skipped, %d links)\n",
				y.VP, 100*y.Uptime, 100*y.SampleYield, y.Rounds, y.Missed, y.Skipped, y.Links)
		}
	}
	if budgetFrac > 0 {
		rounds, skipped := c.BudgetRounds()
		fmt.Fprintf(&rf, "probe budget %.0f%%: %d rounds sent, %d skipped (%.1f%% of schedule)\n",
			100*budgetFrac, rounds, skipped,
			100*float64(rounds)/float64(rounds+skipped))
	}
	if live != nil {
		fmt.Fprintf(&rf, "\nstreaming observatory: %d links watched, %d alerts raised through %s\n",
			live.NumLinks(), live.TotalAlerts(), live.Barrier())
	}
	if tele != nil {
		fmt.Fprintln(&rf)
		tele.WriteReport(&rf)
	}
	reportPath := filepath.Join(dir, "report.txt")
	if err := os.WriteFile(reportPath, rf.Bytes(), 0o666); err != nil {
		return err
	}

	// Figures: CSV and SVG, plus a text plot.
	for _, fig := range afrixp.Figures(c) {
		if err := writeCSV(dir, fig); err != nil {
			return err
		}
		if err := writeFile(filepath.Join(dir, fig.ID+".txt"), func(w io.Writer) error {
			return fig.Render(w, 120, 16)
		}); err != nil {
			return err
		}
	}

	// Raw measurement archive: one warts record per collected sample.
	archive := filepath.Join(dir, "measurements.warts")
	records := 0
	if err := writeFile(archive, func(w io.Writer) error {
		wr, err := warts.NewWriter(w)
		if err != nil {
			return err
		}
		for _, vr := range c.VPs {
			for _, lr := range vr.SortedLinks() {
				n, err := analysis.ToWarts(wr, vr.VP.Monitor, lr.Collector.Series())
				records += n
				if err != nil {
					return err
				}
			}
		}
		return wr.Flush()
	}); err != nil {
		return err
	}

	t := &report.Table{Title: "campaign artifacts", Header: []string{"artifact", "path"}}
	t.AddRow("report", reportPath)
	t.AddRow("warts archive", fmt.Sprintf("%s (%d records)", archive, records))
	t.AddRow("figure CSVs", filepath.Join(dir, "fig*.csv"))
	t.Render(os.Stdout)
	return nil
}

// runBudgetTable runs the probe-budget sweep over cfg's campaign — the
// full-rate run plus budgeted reruns at 50/25/10% — and prints probe
// spend, ground-truth recall, time-to-detect, and Table-1 fidelity per
// budget point.
func runBudgetTable(cfg afrixp.CampaignConfig) error {
	base := cfg.EngineConfig()
	base.Budget = &budget.Config{Seed: cfg.BudgetSeed}
	fmt.Fprintf(os.Stderr, "budget sweep (scale %.2f): full rate + 50/25/10%% budgets...\n", cfg.Scale)
	t0 := time.Now()
	points := experiments.RunBudgetSweep(base, nil)
	fmt.Fprintf(os.Stderr, "sweep finished in %v\n\n", time.Since(t0).Round(time.Second))
	experiments.BudgetSweepReport(points).Render(os.Stdout)
	fmt.Fprintln(os.Stdout)
	return nil
}

func table1Comparisons(c *afrixp.Campaign) []report.PaperComparison {
	paper := map[string]int{"VP1": 4, "VP2": 5, "VP3": 56, "VP4": 1, "VP5": 147, "VP6": 88}
	paperD := map[string]int{"VP1": 2, "VP2": 2, "VP3": 1, "VP4": 1, "VP5": 0, "VP6": 0}
	var rows []report.PaperComparison
	for _, r := range afrixp.Table1(c) {
		if r.VP == "All VPs" {
			continue
		}
		rows = append(rows, report.PaperComparison{
			Experiment: "table1", Metric: r.VP + " flagged@10ms (diurnal)",
			Paper:      fmt.Sprintf("%d (%d)", paper[r.VP], paperD[r.VP]),
			Measured:   fmt.Sprintf("%d (%d)", r.Flagged[10], r.Diurnal[10]),
			ShapeHolds: (paperD[r.VP] == 0) == (r.Diurnal[10] == 0),
			Note:       "counts scale with -scale",
		})
	}
	return rows
}

func writeCSV(dir string, fig experiments.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, fig.ID+".csv"), fig.WriteCSV); err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, fig.ID+".svg"), func(w io.Writer) error {
		return fig.WriteSVG(w, 960, 380)
	})
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
