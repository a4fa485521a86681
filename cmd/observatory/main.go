// Command observatory runs the year-long measurement campaign the way
// the paper's infrastructure did — continuous TSLP probing from all
// six VPs with warts-format measurement archives — and writes reports,
// figure CSVs, and raw measurement files into an output directory.
//
//	observatory -out ./obs-run -days 90 -scale 0.25
//
// -scale ≤ 1 scales the authored paper world's populations (existing
// invocations are unchanged); -scale > 1 generates a continent-scale
// world (internal/worldgen) at that multiple of the paper's size,
// seeded by -gen-seed. -shards bounds per-shard series memory with
// one shared compression arena per shard; results are bit-identical
// for any -shards / -workers / -batch.
//
// -budget F (F > 0) installs the probe-budget scheduler so the
// campaign sends at most F of the full-rate probes (adaptive per-link
// rates; results bit-identical per (-budget, -budget-seed) for any
// -workers / -batch); the report gains a probe-spend line. F of 1 (or
// above, clamped) runs the scheduler at full spend, probe-count parity
// with an unscheduled run.
//
// -checkpoint-dir DIR snapshots the campaign's measurement state into
// DIR every -checkpoint-every of virtual time at batch barriers;
// -resume continues from the newest valid checkpoint there,
// bit-identical to an uninterrupted run.
//
// A long run can be watched live: -metrics-addr serves the campaign
// telemetry snapshot at /metrics (and expvar at /debug/vars) while
// probing progresses; -metrics writes the final snapshot as JSON and
// the report gains a telemetry section. -metrics-linger keeps the
// endpoint up after the run so scrapers can collect the final state
// (the observatory heartbeats its final barrier on /stream while
// lingering).
// The same port carries the streaming observatory's live API (unless
// -no-live): GET /links is the paged per-link status table, GET
// /links/{id} the detail view, GET /alerts the since-cursor alert log
// (?wait=1 long-polls), and GET /stream an SSE feed of barrier
// updates — each alert a timestamped clear → suspected → congested
// transition from the online level-shift detectors, raised as virtual
// time advances rather than at campaign end. Attaching the service
// never changes campaign results (DESIGN.md §16).
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"afrixp"
	"afrixp/internal/netaddr"
	"afrixp/internal/profiling"
	"afrixp/internal/report"
	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
	"afrixp/internal/warts"
)

// main delegates to run so that deferred flushes — CPU/heap profiles,
// the telemetry snapshot, the lingering metrics server — execute on
// error paths too; the old fatal()/os.Exit pattern skipped them.
func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out           = flag.String("out", "observatory-out", "output directory")
		days          = flag.Int("days", 0, "campaign length in days (0 = full paper period)")
		scale         = flag.Float64("scale", 1.0, "world scale: ≤1 scales the authored paper world's populations; >1 generates a continent-scale world (see -gen-seed)")
		genSeed       = flag.Uint64("gen-seed", 0, "continent-scale generator seed (only with -scale > 1; 0 = default)")
		shards        = flag.Int("shards", 0, "partition VPs into this many memory shards, one shared series arena each (0/1 = one arena per VP; results are identical for any value)")
		seed          = flag.Uint64("seed", 0, "world seed")
		noLoss        = flag.Bool("no-loss", false, "skip loss campaigns")
		workers       = flag.Int("workers", runtime.GOMAXPROCS(0), "probing/analysis worker goroutines (results are identical for any value)")
		batch         = flag.Int("batch", 0, "max probing steps per worker dispatch (0 = default 1024; results are identical for any value)")
		doFaults      = flag.Bool("faults", false, "inject the deterministic fault plan and report per-VP uptime/sample yield")
		faultSeed     = flag.Uint64("fault-seed", 0, "extra seed for the fault plan (only with -faults)")
		budgetFrac    = flag.Float64("budget", 0, "probe budget as a fraction of full rate (0 = no scheduler; ≥1 = scheduler at full spend; results identical per (budget, budget-seed) for any -workers/-batch)")
		budgetSeed    = flag.Uint64("budget-seed", 0, "extra seed for the probe-budget schedule (only with -budget)")
		cpuProf       = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf       = flag.String("memprofile", "", "write a heap profile to this file at exit")
		metricsOut    = flag.String("metrics", "", "write a campaign telemetry snapshot (JSON) to this file at exit")
		metricsAddr   = flag.String("metrics-addr", "", "serve live telemetry at http://ADDR/metrics during the run")
		metricsLinger = flag.Duration("metrics-linger", 0, "keep the -metrics-addr endpoint up this long after the run completes")
		noLive        = flag.Bool("no-live", false, "do not mount the streaming observatory API (/links, /alerts, /stream) on -metrics-addr")
		ckptDir       = flag.String("checkpoint-dir", "", "snapshot the campaign's measurement state into this directory at batch barriers")
		ckptEvery     = flag.Duration("checkpoint-every", 0, "virtual-time cadence between checkpoints (0 = default 24h; only with -checkpoint-dir)")
		doResume      = flag.Bool("resume", false, "resume from the newest valid checkpoint in -checkpoint-dir (bit-identical to an uninterrupted run)")
	)
	flag.Parse()

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
			defer func() {
				if err := tele.WriteJSONFile(*metricsOut); err != nil {
					fmt.Fprintln(os.Stderr, err)
				} else {
					fmt.Fprintf(os.Stderr, "telemetry snapshot written to %s\n", *metricsOut)
				}
			}()
		}
		if *metricsAddr != "" {
			var mounts []func(*http.ServeMux)
			if !*noLive {
				live = afrixp.NewObservatory(afrixp.ObservatoryConfig{})
				mounts = append(mounts, live.Mount)
			}
			srv, err := tele.Serve(*metricsAddr, mounts...)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "telemetry: live at http://%s/metrics\n", srv.Addr())
			if live != nil {
				fmt.Fprintf(os.Stderr, "observatory: live at http://%s/links /alerts /stream\n", srv.Addr())
			}
			if *metricsLinger > 0 {
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
						*metricsLinger, srv.Addr())
					deadline := time.Now().Add(*metricsLinger)
					for time.Now().Before(deadline) {
						time.Sleep(time.Second)
						if live != nil {
							live.ObserveBarrier(live.Barrier())
						}
					}
				}()
			}
		}
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fmt.Errorf("mkdir: %w", err)
	}
	start := time.Now()
	c := afrixp.RunCampaign(afrixp.CampaignConfig{
		Seed: *seed, Scale: *scale, GenSeed: *genSeed, Days: *days,
		DisableLoss: *noLoss, Workers: *workers, BatchSteps: *batch, Shards: *shards,
		Faults: *doFaults, FaultSeed: *faultSeed,
		Budget: *budgetFrac, BudgetSeed: *budgetSeed,
		CheckpointDir: *ckptDir, CheckpointEvery: *ckptEvery, Resume: *doResume,
		Progress: os.Stderr, Telemetry: tele, Observatory: live,
	})
	fmt.Fprintf(os.Stderr, "campaign finished in %v\n", time.Since(start).Round(time.Second))

	// Reports.
	reportPath := filepath.Join(*out, "report.txt")
	rf, err := os.Create(reportPath)
	if err != nil {
		return fmt.Errorf("create report: %w", err)
	}
	defer rf.Close()
	afrixp.Table1Report(c).Render(rf)
	fmt.Fprintln(rf)
	afrixp.Table2Report(c).Render(rf)
	fmt.Fprintln(rf)
	rows, frac := afrixp.Headline(c)
	for _, r := range rows {
		fmt.Fprintf(rf, "%s: %d/%d links congested (%.1f%%)\n",
			r.VP, r.Congested, r.Links, 100*r.Fraction)
	}
	fmt.Fprintf(rf, "overall congested fraction: %.1f%% (paper: 2.2%%)\n", 100*frac)
	fmt.Fprintf(rf, "bdrmap mean coverage: %.1f%% (paper: 96.2%%)\n",
		100*afrixp.BdrmapAccuracy(c))
	if *doFaults {
		fmt.Fprintf(rf, "\nfault plan (%d episodes): per-VP uptime and sample yield\n",
			len(c.Faults.Faults))
		for _, y := range c.Yields() {
			fmt.Fprintf(rf, "%s: uptime %.1f%%, sample yield %.1f%% (%d rounds, %d missed, %d skipped, %d links)\n",
				y.VP, 100*y.Uptime, 100*y.SampleYield, y.Rounds, y.Missed, y.Skipped, y.Links)
		}
	}
	if *budgetFrac > 0 {
		rounds, skipped := c.BudgetRounds()
		fmt.Fprintf(rf, "probe budget %.0f%%: %d rounds sent, %d skipped (%.1f%% of schedule)\n",
			100**budgetFrac, rounds, skipped,
			100*float64(rounds)/float64(rounds+skipped))
	}
	if live != nil {
		fmt.Fprintf(rf, "\nstreaming observatory: %d links watched, %d alerts raised through %s\n",
			live.NumLinks(), live.TotalAlerts(), live.Barrier())
	}
	if tele != nil {
		fmt.Fprintln(rf)
		tele.WriteReport(rf)
	}

	// Figures: ASCII into the report dir, CSVs alongside.
	for _, fig := range afrixp.Figures(c) {
		csvPath := filepath.Join(*out, fig.ID+".csv")
		cf, err := os.Create(csvPath)
		if err != nil {
			return fmt.Errorf("create %s: %w", csvPath, err)
		}
		if err := fig.WriteCSV(cf); err != nil {
			cf.Close()
			return fmt.Errorf("write %s: %w", csvPath, err)
		}
		cf.Close()
		pf, err := os.Create(filepath.Join(*out, fig.ID+".txt"))
		if err != nil {
			return fmt.Errorf("create plot: %w", err)
		}
		fig.Render(pf, 120, 16)
		pf.Close()
		sf, err := os.Create(filepath.Join(*out, fig.ID+".svg"))
		if err != nil {
			return fmt.Errorf("create svg: %w", err)
		}
		if err := fig.WriteSVG(sf, 960, 380); err != nil {
			sf.Close()
			return fmt.Errorf("write svg: %w", err)
		}
		sf.Close()
	}

	// Raw measurement archive: re-emit each VP's collected series as
	// warts records (the campaign keeps aggregated series; the
	// archive carries one record per retained sample).
	archive := filepath.Join(*out, "measurements.warts")
	af, err := os.Create(archive)
	if err != nil {
		return fmt.Errorf("create archive: %w", err)
	}
	defer af.Close()
	wr, err := warts.NewWriter(af)
	if err != nil {
		return fmt.Errorf("warts: %w", err)
	}
	records := 0
	for _, vr := range c.VPs {
		for _, lr := range vr.SortedLinks() {
			ls := lr.Collector.Series()
			// Each streams the XOR-compressed series block by block.
			emit := func(s *timeseries.Series, at func(int) simclock.Time,
				responder netaddr.Addr, respType uint8) error {
				var werr error
				s.Each(func(base int, vals []float64) {
					if werr != nil {
						return
					}
					for i, v := range vals {
						rec := &warts.Record{
							Type: warts.TypeTSLP, VP: vr.VP.Monitor,
							At: at(base + i), Target: lr.Target.Far,
							Responder: responder, RespType: respType,
						}
						if v != v { // NaN: lost/not taken
							rec.Lost = true
						} else {
							rec.RTT = time.Duration(v * float64(time.Millisecond))
						}
						if err := wr.Write(rec); err != nil {
							werr = fmt.Errorf("warts write: %w", err)
							return
						}
						records++
					}
				})
				return werr
			}
			if err := emit(ls.Near, ls.Near.TimeAt, lr.Target.Near, 11 /* time exceeded */); err != nil {
				return err
			}
			if err := emit(ls.Far, ls.Far.TimeAt, lr.Target.Far, 0 /* echo reply */); err != nil {
				return err
			}
		}
	}
	if err := wr.Flush(); err != nil {
		return fmt.Errorf("warts flush: %w", err)
	}

	// Summary table to stdout.
	t := &report.Table{Title: "observatory run complete",
		Header: []string{"artifact", "path"}}
	t.AddRow("report", reportPath)
	t.AddRow("warts archive", fmt.Sprintf("%s (%d records)", archive, records))
	t.AddRow("figure CSVs", filepath.Join(*out, "fig*.csv"))
	t.Render(os.Stdout)
	return nil
}
