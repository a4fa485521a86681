package afrixp

// One benchmark per paper table and figure (see DESIGN.md §5), plus
// ablation benches for the design choices the pipeline makes. The
// table/figure benches share one cached campaign (building it is
// BenchmarkFullCampaign's job) and measure regeneration of their
// artifact from the collected data; the campaign covers the windows of
// every figure.

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"afrixp/internal/analysis"
	"afrixp/internal/checkpoint"
	"afrixp/internal/cusum"
	"afrixp/internal/experiments"
	"afrixp/internal/levelshift"
	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
	"afrixp/internal/tschunk"
)

var (
	benchOnce sync.Once
	benchRes  *Campaign
)

// benchCampaign runs one shared 8-month campaign at reduced scale —
// long enough to cover every figure window (fig1 in March through
// fig3a ending late October).
func benchCampaign(b *testing.B) *Campaign {
	b.Helper()
	benchOnce.Do(func() {
		benchRes = RunCampaign(CampaignConfig{
			Seed: 1, Scale: 0.08, Days: 255,
		})
	})
	return benchRes
}

func BenchmarkFullCampaign(b *testing.B) {
	// The end-to-end cost of a one-week, all-VP campaign: world
	// construction, discovery, probing, threshold-sweep analysis.
	for i := 0; i < b.N; i++ {
		RunCampaign(CampaignConfig{Seed: uint64(i + 1), Scale: 0.08, Days: 7,
			StartOffsetDays: 14, DisableLoss: true})
	}
}

// BenchmarkFaultCampaign measures the same one-week campaign with the
// default fault plan injected — VP outages, ICMP blackouts and
// rate-limit duty cycles, link flaps. The delta over
// BenchmarkFullCampaign is the full cost of fault injection: plan
// construction, the per-step outage gate, the per-probe ICMP-silence
// schedules, and the extra barrier events at episode boundaries.
func BenchmarkFaultCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		RunCampaign(CampaignConfig{Seed: uint64(i + 1), Scale: 0.08, Days: 7,
			StartOffsetDays: 14, DisableLoss: true, Faults: true})
	}
}

// BenchmarkBudgetCampaign measures the one-week campaign under the
// probe-budget scheduler at 100/50/25/10% budgets. ns/op deltas are
// the net effect of probing less (fewer TSLP rounds) plus the
// scheduler's own bill (per-step skip gate, streaming CUSUM taps,
// barrier recomputes); the probes_sent metric records the per-link
// rounds actually sent so the ledger can verify the spend reduction
// (budget=50 must send at most ~55% of budget=100's probes — see
// scripts/benchjson).
func BenchmarkBudgetCampaign(b *testing.B) {
	for _, pct := range []int{100, 50, 25, 10} {
		b.Run(fmt.Sprintf("budget=%d", pct), func(b *testing.B) {
			sent := 0
			for i := 0; i < b.N; i++ {
				res := RunCampaign(CampaignConfig{Seed: uint64(i + 1), Scale: 0.08, Days: 7,
					StartOffsetDays: 14, DisableLoss: true,
					Budget: float64(pct) / 100, BudgetSeed: 1})
				sent = 0
				for _, y := range res.Yields() {
					sent += y.Rounds
				}
			}
			if sent == 0 {
				b.Fatal("campaign sent no probe rounds")
			}
			b.ReportMetric(float64(sent), "probes_sent")
		})
	}
}

// BenchmarkAlertLatency runs the streaming observatory's detection-lag
// experiment (internal/experiments.RunStreamAlertLatency): a 7-day
// campaign over the 10× generated world per budget fraction, with the
// streaming service attached. ns/op is the experiment's cost; the
// alert_latency_p50_s / alert_latency_p95_s metrics record the
// virtual-time lag from planted congestion onset to the first
// streaming alert, which the benchjson guard sanity-checks (warn-only:
// lags must be positive and inside the campaign week, p95 ≥ p50).
func BenchmarkAlertLatency(b *testing.B) {
	for _, pct := range []int{100, 50} {
		b.Run(fmt.Sprintf("budget=%d", pct), func(b *testing.B) {
			var row experiments.StreamAlertLatency
			for i := 0; i < b.N; i++ {
				rows := experiments.RunStreamAlertLatency([]float64{float64(pct) / 100})
				row = rows[0]
			}
			if row.Truth == 0 || row.Alerted == 0 {
				b.Fatal("no planted congestion alerted; the latency metrics are vacuous")
			}
			b.ReportMetric(float64(row.Alerted)/float64(row.Truth), "alerted_fraction")
			b.ReportMetric(time.Duration(row.P50).Seconds(), "alert_latency_p50_s")
			b.ReportMetric(time.Duration(row.P95).Seconds(), "alert_latency_p95_s")
		})
	}
}

// BenchmarkCheckpoint measures the barrier snapshot write path —
// gob-encoding the full measurement state (collector grids, loss
// batches, CUSUM streams, rate ladders, arena bytes) plus the CRC
// framing and the atomic tmp+rename — on a snapshot taken from a real
// one-week faulted, budgeted campaign. ns/op is the per-barrier stall
// a checkpointing campaign pays; snapshot_bytes is the on-disk size
// the cadence multiplies.
func BenchmarkCheckpoint(b *testing.B) {
	dir := b.TempDir()
	RunCampaign(CampaignConfig{Seed: 1, Scale: 0.08, Days: 7,
		StartOffsetDays: 14, Faults: true, Budget: 0.5, BudgetSeed: 1,
		CheckpointDir: dir, CheckpointEvery: 24 * time.Hour})
	snap, err := checkpoint.LoadLatest(dir, nil)
	if err != nil || snap == nil {
		b.Fatalf("campaign left no checkpoint: %v", err)
	}
	out := b.TempDir()
	var bytes int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bytes, err = checkpoint.Write(out, snap)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if bytes == 0 {
		b.Fatal("empty snapshot payload")
	}
	b.ReportMetric(float64(bytes), "snapshot_bytes")
}

// BenchmarkTelemetryCampaign is BenchmarkFullCampaign with a telemetry
// root attached; the delta between the two is the entire observability
// bill — per-probe plain counting, barrier-time republication into the
// atomic mirrors, span/event recording, worker busy accounting. The
// design target is within 5% of BenchmarkFullCampaign.
func BenchmarkTelemetryCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		RunCampaign(CampaignConfig{Seed: uint64(i + 1), Scale: 0.08, Days: 7,
			StartOffsetDays: 14, DisableLoss: true, Telemetry: NewTelemetry()})
	}
}

// BenchmarkCampaignParallel measures the same one-week campaign as
// BenchmarkFullCampaign under the sequential engine (workers=1) and the
// parallel one (workers=GOMAXPROCS); the two sub-benchmarks produce
// bit-identical results (TestParallelCampaignBitIdentical), so the
// ratio is pure engine speedup. On a single-core runner the ratio is
// ~1 by construction.
func BenchmarkCampaignParallel(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RunCampaign(CampaignConfig{Seed: uint64(i + 1), Scale: 0.08, Days: 7,
					StartOffsetDays: 14, DisableLoss: true, Workers: workers})
			}
		})
	}
}

// BenchmarkProbeStepBatch isolates the batch planner's barrier
// amortization: the same one-week parallel campaign dispatched one
// probing step per worker hand-off (batch=1, the pre-batching engine's
// cadence) versus larger batches up to the default. Results are
// bit-identical at every batch size (TestBatchSizeSweepBitIdentical),
// so the ratio is pure scheduling overhead — channel hand-offs and
// world-clock barriers per probing step.
func BenchmarkProbeStepBatch(b *testing.B) {
	for _, batch := range []int{1, 32, 1024} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RunCampaign(CampaignConfig{Seed: uint64(i + 1), Scale: 0.08, Days: 7,
					StartOffsetDays: 14, DisableLoss: true,
					Workers: runtime.GOMAXPROCS(0), BatchSteps: batch})
			}
		})
	}
}

// BenchmarkAnalysisFanout measures the per-link threshold-sweep
// analysis phase alone (rank-CUSUM bootstrap dominated) re-derived from
// one shared collected campaign, sequentially vs fanned out.
func BenchmarkAnalysisFanout(b *testing.B) {
	res := benchCampaign(b)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res.Reanalyze(workers)
			}
		})
	}
}

// BenchmarkAnalysisSweep isolates the detect-once/threshold-many win on
// the same collected links: "sweep" runs one AnalyzeLinkSweep per link
// (one Sweeper, the campaign worker pattern) while "independent" pays a
// full detection per threshold on a fresh Sweeper — the pre-sweep cost
// model. Both cover the Table-1 thresholds; the ratio is the pure sweep
// speedup with the fan-out machinery factored out. The "sweep" sweeper
// is warmed by one untimed pass, so its B/op is the steady per-pass
// cost whatever b.N is, not a share of its first-use scratch growth.
func BenchmarkAnalysisSweep(b *testing.B) {
	res := benchCampaign(b)
	var series []analysis.LinkSeries
	for _, vr := range res.VPs {
		for _, lr := range vr.SortedLinks() {
			series = append(series, lr.Collector.Series())
		}
	}
	thresholds := res.Cfg.Thresholds
	cfg := analysis.DefaultConfig()
	b.Run("sweep", func(b *testing.B) {
		b.ReportAllocs()
		sw := analysis.NewSweeper()
		pass := func() {
			for _, ls := range series {
				if got := sw.AnalyzeLinkSweep(ls, cfg, thresholds); len(got) != len(thresholds) {
					b.Fatalf("%d verdicts for %d thresholds", len(got), len(thresholds))
				}
			}
		}
		pass()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass()
		}
	})
	b.Run("independent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, ls := range series {
				for _, thr := range thresholds {
					one := cfg
					one.ThresholdMs = thr
					if v := analysis.NewSweeper().AnalyzeLink(ls, one); v.Target != ls.Target {
						b.Fatal("verdict target mismatch")
					}
				}
			}
		}
	})
}

// BenchmarkChunkCompression measures the columnar store on the shared
// campaign's collected series: ns/op is one full decode sweep over
// every link series (the block-streaming read path the
// analysis pays), and the compression_x metric is the raw-grid bytes
// (8 B/slot) over the XOR-encoded arena bytes — the resident-memory
// ratio the ledger records for the ROADMAP's 10^5–10^6-link target.
func BenchmarkChunkCompression(b *testing.B) {
	// reseal seals a series' present samples into a chunk of its own,
	// as the collector's builder sealed them, for its encoded size.
	reseal := func(s *timeseries.Series) *tschunk.Chunk {
		bl := tschunk.NewBuilder(s.Len())
		s.Each(func(base int, vals []float64) {
			for k, v := range vals {
				if !timeseries.IsMissing(v) {
					bl.Set(base+k, v)
				}
			}
		})
		return bl.Seal()
	}
	res := benchCampaign(b)
	var series []*timeseries.Series
	raw, encoded := 0, 0
	for _, vr := range res.VPs {
		for _, lr := range vr.SortedLinks() {
			ls := lr.Collector.Series()
			for _, s := range []*timeseries.Series{ls.Near, ls.Far} {
				series = append(series, s)
				c := reseal(s)
				raw += c.RawSize()
				encoded += c.EncodedSize()
			}
		}
	}
	if len(series) == 0 || encoded == 0 {
		b.Fatal("no chunked series collected")
	}
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		for _, s := range series {
			s.Each(func(_ int, vals []float64) {
				for _, v := range vals {
					if !timeseries.IsMissing(v) {
						sink++
					}
				}
			})
		}
	}
	b.StopTimer()
	if sink == 0 {
		b.Fatal("decode sweep saw no present samples")
	}
	b.ReportMetric(float64(raw)/float64(encoded), "compression_x")
}

func BenchmarkTable1Sensitivity(b *testing.B) {
	res := benchCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := Table1(res)
		if len(rows) != 7 {
			b.Fatalf("rows = %d", len(rows))
		}
		Table1Report(res).Render(io.Discard)
	}
}

func BenchmarkTable2Evolution(b *testing.B) {
	res := benchCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(Table2(res)) == 0 {
			b.Fatal("no rows")
		}
		Table2Report(res).Render(io.Discard)
	}
}

// benchFigure measures extraction + rendering of one figure.
func benchFigure(b *testing.B, id string) {
	res := benchCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found := false
		for _, fig := range Figures(res) {
			if fig.ID != id {
				continue
			}
			found = true
			if err := fig.Render(io.Discard, 100, 14); err != nil {
				b.Fatal(err)
			}
			if err := fig.WriteCSV(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		if !found {
			b.Fatalf("figure %s not covered by the bench campaign", id)
		}
	}
}

func BenchmarkFigure1GhanatelPhase1(b *testing.B)  { benchFigure(b, "fig1") }
func BenchmarkFigure2aGhanatelPhase2(b *testing.B) { benchFigure(b, "fig2a") }
func BenchmarkFigure2bGhanatelLoss(b *testing.B)   { benchFigure(b, "fig2b") }
func BenchmarkFigure3aKnetRTT(b *testing.B)        { benchFigure(b, "fig3a") }
func BenchmarkFigure3bKnetLoss(b *testing.B)       { benchFigure(b, "fig3b") }
func BenchmarkFigure4aNetpagePhase1(b *testing.B)  { benchFigure(b, "fig4a") }
func BenchmarkFigure4bNetpagePhase2(b *testing.B)  { benchFigure(b, "fig4b") }

func BenchmarkHeadlineCongestedFraction(b *testing.B) {
	res := benchCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, frac := Headline(res); frac < 0 {
			b.Fatal("negative fraction")
		}
	}
}

func BenchmarkBdrmapAccuracy(b *testing.B) {
	// A fresh single-VP border-mapping run per iteration — the §4
	// validation workload.
	w := NewWorld(WorldOptions{Seed: 2, Scale: 0.08})
	vp, _ := w.VPByID("VP1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := BorderMap(w, vp, w.Now())
		if err != nil {
			b.Fatal(err)
		}
		if frac, _, _ := ValidateNeighbors(res, w.TruthNeighbors(vp)); frac < 0.5 {
			b.Fatalf("coverage %v", frac)
		}
	}
}

func BenchmarkWaveformStats(b *testing.B) {
	res := benchCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(Waveforms(res)) == 0 {
			b.Fatal("no waveforms")
		}
	}
}

// ---------------------------------------------------------------
// Ablations: the design choices DESIGN.md calls out.
// ---------------------------------------------------------------

// ablationSeries is a 30-day diurnal congestion series with noise and
// short blips — the input on which the ablations disagree.
func ablationSeries() *timeseries.Series {
	rng := rand.New(rand.NewSource(9))
	vs := make([]float64, 30*288)
	for i := range vs {
		h := simclock.Time(time.Duration(i) * 5 * time.Minute).HourOfDay()
		v := 2.0
		if h >= 10 && h < 16 {
			v += 22
		}
		if i%288 == 40 { // daily 5-minute blip
			v += 60
		}
		vs[i] = v + math.Abs(0.6*rng.NormFloat64())
	}
	return timeseries.FromValues(0, 5*time.Minute, vs)
}

// levelShiftAt is the §5.2 level-shift pipeline at one threshold,
// through a fresh detector and scratch.
func levelShiftAt(s *timeseries.Series, cfg levelshift.Config, thresholdMs float64) levelshift.Result {
	return levelshift.Detect(cusum.NewDetector(cusum.Config{}), s, cfg, &levelshift.Scratch{}).AtThreshold(thresholdMs)
}

// BenchmarkAblationMinDuration compares detection with and without
// the paper's 30-minute minimum event duration. Without it, the daily
// blip inflates the event count.
func BenchmarkAblationMinDuration(b *testing.B) {
	s := ablationSeries()
	with := levelshift.DefaultConfig()
	without := levelshift.DefaultConfig()
	without.MinDuration = 0
	without.AggregateTo = 0 // native resolution keeps the blips visible
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rw := levelShiftAt(s, with, 10)
		ro := levelShiftAt(s, without, 10)
		if len(ro.Events) < len(rw.Events) {
			b.Fatalf("ablation lost events: %d < %d", len(ro.Events), len(rw.Events))
		}
	}
}

// BenchmarkAblationSanitize compares Δt_UD with and without level
// shift sanitization — the paper sanitizes before computing GIXA–KNET
// durations.
func BenchmarkAblationSanitize(b *testing.B) {
	s := ablationSeries()
	cfg := levelshift.DefaultConfig()
	res := levelShiftAt(s, cfg, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw := levelshift.Result{Events: res.Events}
		san := levelshift.Result{Events: levelshift.Sanitize(res.Events, 90*time.Minute, cfg.MinDuration)}
		if san.MeanDuration() < raw.MeanDuration() {
			b.Fatal("sanitization must merge, not shrink, events")
		}
	}
}

// BenchmarkAblationRankCUSUM compares the rank-based detector against
// raw-value CUSUM on an outlier-ridden series: the rank variant is
// the paper's choice because ICMP stragglers poison raw means.
func BenchmarkAblationRankCUSUM(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 600)
	for i := range xs {
		v := 5.0
		if i >= 300 {
			v = 21
		}
		if i%41 == 0 {
			v = 800 // straggler
		}
		xs[i] = v + rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ranked, _ := cusum.ApplyMagnitudeInto(nil, nil, xs,
			cusum.NewDetector(cusum.Config{UseRanks: true}).AppendCandidates(nil, xs, 1), 8)
		if len(ranked) == 0 {
			b.Fatal("rank CUSUM missed the shift")
		}
		_, _ = cusum.ApplyMagnitudeInto(nil, nil, xs,
			cusum.NewDetector(cusum.Config{}).AppendCandidates(nil, xs, 1), 8)
	}
}

// BenchmarkAblationNearEndCheck quantifies the near-end-flat
// requirement: without it, upstream congestion (shifting both ends)
// would be misattributed to the probed link.
func BenchmarkAblationNearEndCheck(b *testing.B) {
	res := benchCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		withCheck, withoutCheck := 0, 0
		for _, vr := range res.VPs {
			for _, lr := range vr.SortedLinks() {
				v, ok := lr.Verdicts[10]
				if !ok {
					continue
				}
				if v.Congested {
					withCheck++
				}
				if v.Flagged && v.Diurnal.Diurnal && v.Symmetric {
					withoutCheck++ // near-end requirement dropped
				}
			}
		}
		if withoutCheck < withCheck {
			b.Fatal("dropping a filter cannot reduce detections")
		}
	}
}

// BenchmarkScaleCampaign measures the sharded engine across world
// scales: a one-day campaign on the authored paper world (scale=1)
// and on 10×/100× generated worlds (4 shards), reporting probing
// throughput (link_rounds_per_sec), resident series memory per probed
// link (bytes_per_link — scripts/benchjson warns when a scale>1 row
// exceeds the scale=1 figure, the sharded memory bound), the wall time
// spent in bdrmap discovery (discovery_s), and the
// process RSS high-water mark (peak_rss_mb; cumulative across the
// process, so within one run it is monotone in scale order). The 100×
// point probes a deterministic 48-VP prefix to keep iterations
// tractable; the world-size columns still describe the full world.
func BenchmarkScaleCampaign(b *testing.B) {
	for _, scale := range []float64{1, 10, 100} {
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			var p experiments.ScalePoint
			for i := 0; i < b.N; i++ {
				pts := experiments.RunScaleSweep(experiments.ScaleSweepConfig{
					Scales: []float64{scale}, MaxVPs: 48,
				})
				p = pts[0]
			}
			if p.ProbedLinks == 0 {
				b.Fatal("scale point probed no links")
			}
			b.ReportMetric(p.LinkRoundsPerSec, "link_rounds_per_sec")
			b.ReportMetric(p.BytesPerLink, "bytes_per_link")
			b.ReportMetric(p.DiscoverySecs, "discovery_s")
			b.ReportMetric(p.PeakRSSMB, "peak_rss_mb")
		})
	}
}

// BenchmarkTSLPSamplingThroughput measures raw per-round probing cost
// — the number that bounds full-year campaign time.
func BenchmarkTSLPSamplingThroughput(b *testing.B) {
	w := NewWorld(WorldOptions{Seed: 3, Scale: 0.08})
	vp, _ := w.VPByID("VP4")
	p := NewProber(w, vp)
	ts, err := p.NewTSLP(vp.CaseLinks["QCELL-NETPAGE"])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Round(simclock.Time(int64(i%100000) * int64(5*time.Minute)))
	}
}
