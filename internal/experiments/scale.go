package experiments

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
	"afrixp/internal/telemetry"
	"afrixp/internal/worldgen"
)

// ScalePoint is one row of the scale sweep: how the sharded engine
// behaves on a generated world at one scale factor.
type ScalePoint struct {
	Scale float64
	// World sizes (worldgen.StatsOf).
	IXPs, ASes, VPs, WorldLinks int
	// ProbedLinks counts the links the campaign discovered and probed;
	// Rounds the link-rounds attempted across them.
	ProbedLinks, Rounds int
	// WallSecs is the campaign wall time (build + probe + analyze).
	WallSecs float64
	// DiscoverySecs is the part of WallSecs spent in bdrmap discovery
	// (the engine's "discovery" spans).
	DiscoverySecs float64
	// LinkRoundsPerSec is probing throughput: Rounds / WallSecs.
	LinkRoundsPerSec float64
	// BytesPerLink is resident series memory per probed link: the
	// shard arenas (shared slabs, counted once each) plus every
	// collector's private state, divided by ProbedLinks.
	BytesPerLink float64
	// PeakRSSMB is the process high-water resident set (VmHWM) after
	// the point ran. Cumulative across the process, so within one
	// sweep it is monotone — compare points run in separate processes
	// (the benchmark does) for isolated figures.
	PeakRSSMB float64
}

// ScaleSweepConfig drives RunScaleSweep.
type ScaleSweepConfig struct {
	// Scales to run (default 1, 10, 100). Scale 1 uses the authored
	// paper world; larger scales generate worlds with worldgen.
	Scales []float64
	// GenSeed seeds the world generator (default worldgen's).
	GenSeed uint64
	// Days is each point's campaign length (default 1).
	Days int
	// Shards is the campaign shard count (default 4).
	Shards int
	// Workers is the probing/analysis worker count (default
	// GOMAXPROCS).
	Workers int
	// MaxVPs, when positive, truncates probing to the first MaxVPs
	// vantage points (world-scale stats still describe the full
	// world). The benchmark uses it to keep 100× iterations tractable;
	// 0 probes from every VP.
	MaxVPs int
	// Progress, when non-nil, receives one line per point.
	Progress io.Writer
}

func (c ScaleSweepConfig) withDefaults() ScaleSweepConfig {
	if len(c.Scales) == 0 {
		c.Scales = []float64{1, 10, 100}
	}
	if c.Days <= 0 {
		c.Days = 1
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// RunScaleSweep measures the sharded campaign engine across world
// scales: for each scale it builds (or generates) the world, runs a
// short campaign, and reports throughput and memory-residency figures.
// The bench ledger records these via BenchmarkScaleCampaign.
func RunScaleSweep(cfg ScaleSweepConfig) []ScalePoint {
	cfg = cfg.withDefaults()
	out := make([]ScalePoint, 0, len(cfg.Scales))
	for _, scale := range cfg.Scales {
		p := runScalePoint(scale, cfg)
		out = append(out, p)
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress,
				"scale %g: %d IXPs, %d links (%d probed), %.0f rounds/s, %.0f bytes/link, peak RSS %.1f MB (wall %.1fs, discovery %.1fs)\n",
				p.Scale, p.IXPs, p.WorldLinks, p.ProbedLinks,
				p.LinkRoundsPerSec, p.BytesPerLink, p.PeakRSSMB, p.WallSecs, p.DiscoverySecs)
		}
	}
	return out
}

func runScalePoint(scale float64, cfg ScaleSweepConfig) ScalePoint {
	tele := telemetry.New()
	ccfg := Config{
		Campaign: simclock.Interval{
			Start: simclock.Date(2016, time.July, 20),
			End:   simclock.Date(2016, time.July, 20).Add(time.Duration(cfg.Days) * 24 * time.Hour),
		},
		Workers:   cfg.Workers,
		Shards:    cfg.Shards,
		Telemetry: tele,
	}
	var w *scenario.World
	if scale > 1 {
		w = worldgen.Generate(worldgen.Options{Seed: cfg.GenSeed, Scale: scale})
	} else {
		w = scenario.Paper(scenario.Options{})
	}
	st := worldgen.StatsOf(w)
	if cfg.MaxVPs > 0 && len(w.VPs) > cfg.MaxVPs {
		w.VPs = w.VPs[:cfg.MaxVPs]
	}
	ccfg.BuildWorld = func() *scenario.World { return w }

	wall := time.Now()
	res := Run(ccfg)
	elapsed := time.Since(wall).Seconds()

	p := ScalePoint{
		Scale: scale,
		IXPs:  st.IXPs, ASes: st.ASes, VPs: st.VPs, WorldLinks: st.InterdomainLinks,
		WallSecs: elapsed,
	}
	for _, y := range res.Yields() {
		p.ProbedLinks += y.Links
		p.Rounds += y.Rounds + y.Missed + y.Skipped
	}
	if elapsed > 0 {
		p.LinkRoundsPerSec = float64(p.Rounds) / elapsed
	}
	for _, s := range tele.Spans() {
		if s.Phase == "discovery" {
			p.DiscoverySecs += s.WallEnd.Sub(s.WallStart).Seconds()
		}
	}
	p.BytesPerLink = bytesPerLink(res, tele)
	p.PeakRSSMB = float64(peakRSSBytes()) / 1e6
	return p
}

// bytesPerLink computes resident series bytes per probed link from
// the per-shard figure (shard arena plus collector state) the engine
// publishes as telemetry gauges at barriers.
func bytesPerLink(res *Result, tele *telemetry.Telemetry) float64 {
	links := 0
	for _, vr := range res.VPs {
		links += len(vr.Links)
	}
	if links == 0 {
		return 0
	}
	var resident int64
	for _, sh := range tele.Snapshot().Engine.Shards {
		resident += sh.ResidentBytes
	}
	return float64(resident) / float64(links)
}

// peakRSSBytes reads the process resident-set high-water mark (VmHWM).
// Falls back to the Go heap high-water proxy when /proc is unavailable
// (non-Linux).
func peakRSSBytes() int64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
					return kb << 10
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

// RenderScaleSweep writes the sweep as the EXPERIMENTS.md-style table.
func RenderScaleSweep(w io.Writer, points []ScalePoint) {
	fmt.Fprintf(w, "%8s %6s %6s %6s %10s %8s %12s %12s %10s %10s\n",
		"scale", "ixps", "ases", "vps", "worldlinks", "probed", "rounds/s", "bytes/link", "peakRSS", "discovery")
	for _, p := range points {
		fmt.Fprintf(w, "%8g %6d %6d %6d %10d %8d %12.0f %12.0f %8.1fMB %9.2fs\n",
			p.Scale, p.IXPs, p.ASes, p.VPs, p.WorldLinks, p.ProbedLinks,
			p.LinkRoundsPerSec, p.BytesPerLink, p.PeakRSSMB, p.DiscoverySecs)
	}
}
