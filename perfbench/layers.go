package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"afrixp/internal/analysis"
	"afrixp/internal/checkpoint"
	"afrixp/internal/cusum"
	"afrixp/internal/diurnal"
	"afrixp/internal/experiments"
	"afrixp/internal/interview"
	"afrixp/internal/levelshift"
	"afrixp/internal/observatory"
	"afrixp/internal/simclock"
	"afrixp/internal/telemetry"
	"afrixp/internal/timeseries"
	"afrixp/internal/tschunk"
)

// layerUnits names every per-layer metric of a traced run and its
// unit. trace.overhead is added by the parent, which pairs traced and
// untraced runs.
var layerUnits = map[string]string{
	// Engine phases, from the engine's own telemetry spans.
	"experiments.build_world_s": "s",
	"experiments.discovery_s":   "s",
	"bdrmap.run_ms_max":         "ms",
	"experiments.probe_batch_s": "s",
	"experiments.barrier_s":     "s",
	"experiments.analysis_s":    "s",
	"trace.coverage":            "ratio",
	// Engine, probe, analysis and fault counters.
	"netsim.inject_walks":              "count",
	"netsim.probes":                    "count",
	"experiments.batches_opened":       "count",
	"experiments.mean_batch_len":       "steps",
	"analysis.fold_reuse_ratio":        "ratio",
	"analysis.resident_bytes_per_link": "B",
	"budget.spend_fraction":            "ratio",
	"budget.skipped_rounds":            "count",
	"faults.episodes":                  "count",
	// Timed replays of each layer's public functions on this run's
	// world and collected series.
	"netsim.trace_path_us":           "us",
	"queue.advance_ns_per_step":      "ns",
	"prober.round_ns":                "ns",
	"tschunk.append_ns_per_slot":     "ns",
	"tschunk.decode_ns_per_slot":     "ns",
	"tschunk.compression_x":          "x",
	"analysis.sweep_s":               "s",
	"cusum.candidates_s":             "s",
	"diurnal.fold_s":                 "s",
	"observatory.feed_ns_per_slot":   "ns",
	"observatory.fed_slots":          "count",
	"observatory.finalize_s":         "s",
	"observatory.api_p50_ms":         "ms",
	"observatory.api_p99_ms":         "ms",
	"observatory.reader_late_p99_ms": "ms",
	"observatory.alert_lag_p95_h":    "virtual_h",
	"observatory.alerted_fraction":   "ratio",
	"checkpoint.write_ms":            "ms",
	"checkpoint.snapshot_bytes":      "B",
}

// coverageTolerance bounds how far the phase self-times may fall short
// of (or exceed) the traced run's wall time before the split counts as
// not accounting for it.
const coverageTolerance = 0.05

// replayRequests is how many requests the closed-loop pass sends to a
// replayed observatory.
const replayRequests = 1000

// measureLayers derives the per-layer split of a traced run: phase
// self-times and counters from the engine's telemetry, then timed
// replays of each layer on the run's own world and series. The replays
// run after every check, since some of them advance the world.
func measureLayers(res *experiments.Result, tele *telemetry.Telemetry, ckptDir string, wall time.Duration) (map[string]float64, []string, error) {
	m := map[string]float64{}
	var fails []string

	phases := spanPhases(tele.Spans())
	m["experiments.build_world_s"] = phases.build.Seconds()
	m["experiments.discovery_s"] = (phases.initialDiscovery + phases.loopDiscovery).Seconds()
	m["bdrmap.run_ms_max"] = ms(phases.maxDiscovery)
	m["experiments.probe_batch_s"] = phases.probeBatch.Seconds()
	barrier := phases.probing - phases.probeBatch - phases.loopDiscovery
	m["experiments.barrier_s"] = barrier.Seconds()
	m["experiments.analysis_s"] = phases.analysis.Seconds()
	self := phases.build + phases.initialDiscovery + phases.loopDiscovery + phases.probeBatch + barrier + phases.analysis
	m["trace.coverage"] = self.Seconds() / wall.Seconds()
	if c := m["trace.coverage"]; math.Abs(c-1) > coverageTolerance {
		fails = append(fails, fmt.Sprintf("phase self-times cover %.3f of the traced wall time", c))
	}
	if n := tele.SpansDropped.Load(); n > 0 {
		fails = append(fails, fmt.Sprintf("telemetry dropped %d spans", n))
	}

	snap := tele.Snapshot()
	m["netsim.inject_walks"] = float64(snap.Probe.InjectWalks)
	m["netsim.probes"] = float64(snap.Probe.Probes)
	m["experiments.batches_opened"] = float64(snap.Engine.BatchesOpened)
	if f := snap.Engine.Flushes; f > 0 {
		m["experiments.mean_batch_len"] = float64(f+snap.Engine.QuiescentSteps) / float64(f)
	}
	m["analysis.fold_reuse_ratio"] = snap.Analysis.FoldHitRate
	m["faults.episodes"] = float64(snap.Faults.Planned)
	var rounds, skipped int
	for _, y := range res.Yields() {
		rounds += y.Rounds
		skipped += y.Skipped
	}
	m["budget.spend_fraction"] = float64(rounds) / float64(rounds+skipped)
	m["budget.skipped_rounds"] = float64(skipped)

	links := linkRecords(res)
	m["analysis.resident_bytes_per_link"] = residentBytesPerLink(links, snap) / float64(len(links))

	replaySeries(m, res, links)
	fails = append(fails, replayObservatory(m, res, links)...)
	replayWorld(m, res, links)
	if err := replayCheckpoint(m, ckptDir); err != nil {
		return nil, nil, err
	}
	return m, fails, nil
}

// phaseTimes sums the wall time of the engine's phase spans.
type phaseTimes struct {
	build, initialDiscovery, loopDiscovery, maxDiscovery time.Duration
	probing, probeBatch, analysis                        time.Duration
}

func spanPhases(spans []telemetry.Span) phaseTimes {
	var p phaseTimes
	var probeStart time.Time
	for _, s := range spans {
		if s.Phase == "probing" {
			probeStart = s.WallStart
		}
	}
	for _, s := range spans {
		d := s.WallEnd.Sub(s.WallStart)
		switch s.Phase {
		case "build-world":
			p.build += d
		case "discovery":
			if probeStart.IsZero() || s.WallStart.Before(probeStart) {
				p.initialDiscovery += d
			} else {
				p.loopDiscovery += d
			}
			if d > p.maxDiscovery {
				p.maxDiscovery = d
			}
		case "probing":
			p.probing += d
		case "probe-batch":
			p.probeBatch += d
		case "analysis":
			p.analysis += d
		}
	}
	return p
}

// vpLink is one probed link with its vantage point.
type vpLink struct {
	vp *experiments.VPResult
	lr *experiments.LinkRecord
}

func linkRecords(res *experiments.Result) []vpLink {
	var out []vpLink
	for _, vr := range res.VPs {
		for _, lr := range vr.SortedLinks() {
			out = append(out, vpLink{vr, lr})
		}
	}
	return out
}

// residentBytesPerLink is the engine's own figure: the shard gauges
// when the campaign was sharded, otherwise each collector's bytes.
func residentBytesPerLink(links []vpLink, snap telemetry.Snapshot) float64 {
	var n int64
	if len(snap.Engine.Shards) > 0 {
		for _, sh := range snap.Engine.Shards {
			n += sh.ResidentBytes
		}
	} else {
		for _, l := range links {
			n += int64(l.lr.Collector.MemBytes())
		}
	}
	return float64(n)
}

// replaySeries times the series store and the analysis kernels over
// every collected link series.
func replaySeries(m map[string]float64, res *experiments.Result, links []vpLink) {
	var series []*timeseries.Series
	for _, l := range links {
		ls := l.lr.Collector.Series()
		series = append(series, ls.Near, ls.Far)
	}

	slots, raw, enc := 0, 0, 0
	t := time.Now()
	for _, s := range series {
		s.Each(func(_ int, vals []float64) { slots += len(vals) })
	}
	m["tschunk.decode_ns_per_slot"] = float64(time.Since(t).Nanoseconds()) / float64(slots)

	var appendNs int64
	for _, s := range series {
		vals := make([]float64, s.Len())
		s.Each(func(base int, vs []float64) { copy(vals[base:], vs) })
		t := time.Now()
		b := tschunk.NewBuilder(len(vals))
		for i, v := range vals {
			if !timeseries.IsMissing(v) {
				b.Set(i, v)
			}
		}
		c := b.Seal()
		appendNs += time.Since(t).Nanoseconds()
		raw += c.RawSize()
		enc += c.EncodedSize()
	}
	m["tschunk.append_ns_per_slot"] = float64(appendNs) / float64(slots)
	m["tschunk.compression_x"] = float64(raw) / float64(enc)

	cfg := analysis.DefaultConfig()
	sw := analysis.NewSweeper()
	t = time.Now()
	for _, l := range links {
		sw.AnalyzeLinkSweep(l.lr.Collector.Series(), cfg, res.Cfg.Thresholds)
	}
	m["analysis.sweep_s"] = time.Since(t).Seconds()

	// The detection kernel exactly as levelshift runs it: NaNs
	// compacted away, one-day windows, each window reseeded.
	ccfg := levelshift.DefaultConfig().Cusum
	ccfg.UseRanks = true
	det := cusum.NewDetector(ccfg)
	var cands []cusum.Candidate
	var candNs int64
	for _, s := range series {
		vals := s.Present()
		win := int(24 * time.Hour / s.Step)
		t := time.Now()
		for lo := 0; lo < len(vals); lo += win {
			cands = det.AppendCandidates(cands[:0], vals[lo:min(lo+win, len(vals))], ccfg.Seed+int64(lo))
		}
		candNs += time.Since(t).Nanoseconds()
	}
	m["cusum.candidates_s"] = float64(candNs) / 1e9

	var scr diurnal.Scratch
	dcfg := diurnal.Config{MinAmplitudeMs: 0.8 * cfg.ThresholdMs}
	t = time.Now()
	for _, l := range links {
		diurnal.FoldWith(l.lr.Collector.Series().Far, dcfg, &scr)
	}
	m["diurnal.fold_s"] = time.Since(t).Seconds()
}

// replayObservatory feeds a fresh observatory every collected slot in
// one barrier and finalizes it. Its alert log must equal the live one
// and its verdicts the engine's. Where the campaign ran no observatory,
// and so no live reader, a closed-loop pass over the finalized service's
// API gives the API metrics; it measures the handlers alone.
func replayObservatory(m map[string]float64, res *experiments.Result, links []vpLink) []string {
	var fails []string
	svc := observatory.New(observatory.Config{})
	for _, l := range links {
		asym := l.lr.Symmetry != nil && !l.lr.Symmetry.Symmetric
		svc.Watch(l.vp.VP.ID, l.lr.Target, l.lr.Collector, l.lr.CaseName, asym)
	}
	t := time.Now()
	svc.ObserveBarrier(res.Cfg.Campaign.End)
	feed := time.Since(t)
	fed := svc.FedSlots()
	t = time.Now()
	svc.Finalize(res.Cfg.Thresholds)
	m["observatory.finalize_s"] = time.Since(t).Seconds()
	m["observatory.feed_ns_per_slot"] = float64(feed.Nanoseconds()) / float64(fed)
	m["observatory.fed_slots"] = float64(fed)

	if res.Cfg.Observatory == nil {
		api, err := startAPI(svc.Handler())
		if err != nil {
			return []string{fmt.Sprintf("observatory replay API: %v", err)}
		}
		stats := readClosedLoop(api.url, replayRequests)
		if err := api.close(); err != nil {
			fails = append(fails, fmt.Sprintf("observatory replay API: %v", err))
		}
		if stats.Errors > 0 {
			fails = append(fails, fmt.Sprintf("replay reader: %d of %d requests failed", stats.Errors, stats.Sent))
		}
		setAPIMetrics(m, stats)
	}

	alerts, _ := svc.AlertsSince(0, 0, nil)
	m["observatory.alert_lag_p95_h"], m["observatory.alerted_fraction"] = alertLag(res, links, alerts)
	if liveSvc := res.Cfg.Observatory; liveSvc != nil && verdictDigest(res, liveSvc) != verdictDigest(res, svc) {
		fails = append(fails, "replayed observatory alert log differs from the live one")
	}
	for _, l := range links {
		if !sameGates(l.lr, svc.LinkVerdicts(l.vp.VP.ID, l.lr.Target), res.Cfg.Thresholds) {
			fails = append(fails, fmt.Sprintf("%s %v: replayed observatory verdicts differ", l.vp.VP.ID, l.lr.Target))
		}
	}
	return fails
}

// setAPIMetrics sets the API metrics from a reader's figures.
func setAPIMetrics(m map[string]float64, s readerStats) {
	m["observatory.api_p50_ms"] = percentile(s.LatMs, 0.50)
	m["observatory.api_p99_ms"] = percentile(s.LatMs, 0.99)
	m["observatory.reader_late_p99_ms"] = percentile(s.LateMs, 0.99)
}

// alertLag is the observatory's detection lag over the links the
// world annotates as truly congested: the 95th percentile of the
// virtual time from congestion onset (clamped to the campaign start)
// to the link's first alert, and the fraction of those links alerted.
func alertLag(res *experiments.Result, links []vpLink, alerts []observatory.Alert) (p95Hours, fraction float64) {
	first := map[string]simclock.Time{}
	for _, a := range alerts {
		if _, ok := first[a.Link]; !ok && a.To != "clear" {
			first[a.Link] = simclock.Time(a.AtNs)
		}
	}
	truth := 0
	var lags []float64
	for _, l := range links {
		ann, ok := res.World.Interviews.Find(l.vp.VP.ID, l.lr.Target)
		if !ok || !ann.CongestedTruth {
			continue
		}
		truth++
		at, ok := first[observatory.LinkID(l.vp.VP.ID, l.lr.Target)]
		if !ok {
			continue
		}
		onset := res.Cfg.Campaign.Start
		for _, ph := range ann.Phases {
			if ph.Cause != interview.CauseNone && ph.Cause != "" {
				if ph.Interval.Start > onset {
					onset = ph.Interval.Start
				}
				break
			}
		}
		lags = append(lags, at.Sub(onset).Hours())
	}
	if truth == 0 {
		return 0, 0
	}
	return percentile(lags, 0.95), float64(len(lags)) / float64(truth)
}

// replayWorld times the forwarding walk, the fluid-queue advance and
// the prober round on the run's world. It advances the world past the
// campaign end, so it runs after everything that reads the result.
func replayWorld(m map[string]float64, res *experiments.Result, links []vpLink) {
	net := res.World.Net
	t := time.Now()
	for _, l := range links {
		net.TracePath(l.vp.VP.Node, l.lr.Target.Far, 64)
	}
	m["netsim.trace_path_us"] = float64(time.Since(t).Nanoseconds()) / 1e3 / float64(len(links))

	end := res.Cfg.Campaign.End
	day := simclock.Interval{Start: end, End: end.Add(24 * time.Hour)}
	var steps []simclock.Time
	day.Steps(res.Cfg.Step, func(s simclock.Time) { steps = append(steps, s) })
	t = time.Now()
	net.AdvanceQueuesBatch(steps)
	m["queue.advance_ns_per_step"] = float64(time.Since(t).Nanoseconds()) / float64(len(steps))

	const roundsPerLink = 4
	t = time.Now()
	for k := 0; k < roundsPerLink; k++ {
		at := day.End.Add(simclock.Duration(k) * res.Cfg.Step)
		for _, l := range links {
			l.lr.Collector.TSLP.Round(at)
		}
	}
	m["prober.round_ns"] = float64(time.Since(t).Nanoseconds()) / float64(roundsPerLink*len(links))
}

// replayCheckpoint rewrites the run's newest checkpoint three times and
// reports the median write time and the payload size.
func replayCheckpoint(m map[string]float64, dir string) error {
	snap, err := checkpoint.LoadLatest(dir, nil)
	if err != nil {
		return err
	}
	if snap == nil {
		return fmt.Errorf("traced run left no checkpoint in %s", dir)
	}
	out := filepath.Join(dir, "replay")
	defer os.RemoveAll(out)
	var times []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		n, err := checkpoint.Write(out, snap)
		if err != nil {
			return err
		}
		times = append(times, ms(time.Since(t)))
		m["checkpoint.snapshot_bytes"] = float64(n)
	}
	m["checkpoint.write_ms"] = median(times)
	return nil
}

// percentile is the nearest-rank percentile of vs (0 when empty).
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}
