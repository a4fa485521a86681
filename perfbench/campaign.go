package main

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"afrixp/internal/experiments"
	"afrixp/internal/observatory"
	"afrixp/internal/telemetry"
)

// runResult is one child campaign's raw measurements, passed to the
// parent as JSON.
type runResult struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	// SetupS is world construction plus initial discovery: from the
	// call into the engine to its last "initial discovery" progress
	// line. CampaignS runs from there to the return of experiments.Run,
	// which includes the analysis and the observatory's Finalize.
	SetupS    float64 `json:"setup_s"`
	CampaignS float64 `json:"campaign_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	AllocMB   float64 `json:"alloc_mb"`
	// VerdictDigest covers every link's per-threshold gates and the
	// observatory alert log; ResultDigest is experiments.ResultDigest,
	// recorded for information only.
	VerdictDigest string             `json:"verdict_digest"`
	ResultDigest  string             `json:"result_digest"`
	Failures      []string           `json:"failures,omitempty"`
	Reader        *readerStats       `json:"reader,omitempty"`
	Layers        map[string]float64 `json:"layers,omitempty"`
}

// addReader records the live API reader's figures, and on a traced run
// the API metrics they give.
func (r *runResult) addReader(s readerStats) {
	r.Reader = &s
	if r.Layers != nil {
		setAPIMetrics(r.Layers, s)
	}
}

// progressClock timestamps the engine's progress lines as they are
// written; the last initial-discovery line marks the end of set-up.
type progressClock struct {
	setupEnd time.Time
}

func (p *progressClock) Write(b []byte) (int, error) {
	if bytes.Contains(b, []byte("initial discovery found")) {
		p.setupEnd = time.Now()
	}
	return len(b), nil
}

// readerRate is the open-loop API reader's request rate. It is sized
// so that one observatory-live campaign sends well over 1000 requests.
const readerRate = 400

// campaignOpts say how to run one campaign.
type campaignOpts struct {
	seed   uint64
	traced bool
	// midCheckpoint has a workload that writes no checkpoints write one
	// at mid-campaign, so that the checkpoint layer has a snapshot to
	// replay. Both children of a traced pair set it, so that
	// trace.overhead compares like with like.
	midCheckpoint bool
	workDir       string
	// api watches the live API of a workload with an observatory.
	api apiWatcher
}

// runCampaign runs one campaign of the workload in this process,
// checks it, and, when traced, replays each layer on its output.
func runCampaign(w workload, o campaignOpts) (runResult, error) {
	r := runResult{Workload: w.name, Seed: o.seed, Traced: o.traced}
	cfg := w.config(o.seed)
	clock := &progressClock{}
	cfg.Progress = clock

	tmp, err := os.MkdirTemp(o.workDir, "run-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(tmp)

	var svc *observatory.Service
	var api *apiServer
	if w.observatory {
		svc = observatory.New(observatory.Config{})
		cfg.Observatory = svc
		cfg.CheckpointDir = tmp
		if api, err = startAPI(svc.Handler()); err != nil {
			return r, err
		}
		if err := o.api.started(api.url); err != nil {
			return r, err
		}
	}
	if o.midCheckpoint && cfg.CheckpointDir == "" {
		cfg.CheckpointDir = tmp
		cfg.CheckpointEvery = cfg.Campaign.Duration() / 2
	}
	var tele *telemetry.Telemetry
	if o.traced {
		tele = telemetry.New()
		cfg.Telemetry = tele
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	res := experiments.Run(cfg)
	t1 := time.Now()
	runtime.ReadMemStats(&after)
	r.PeakRSSMB = float64(peakRSSBytes()) / 1e6
	var live *readerStats
	if api != nil {
		if live, err = o.api.finished(); err != nil {
			return r, err
		}
		if err := api.close(); err != nil {
			return r, err
		}
	}

	if clock.setupEnd.IsZero() {
		r.Failures = append(r.Failures, "engine printed no initial-discovery progress line")
		clock.setupEnd = t0
	}
	r.SetupS = clock.setupEnd.Sub(t0).Seconds()
	r.CampaignS = t1.Sub(clock.setupEnd).Seconds()
	r.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	if !o.traced {
		setups := []float64{r.SetupS}
		for len(setups) < w.setups {
			s, err := timeSetup(w, o.seed)
			if err != nil {
				return r, err
			}
			setups = append(setups, s)
		}
		r.SetupS = median(setups)
	}

	r.VerdictDigest = verdictDigest(res, svc)
	r.ResultDigest = experiments.ResultDigest(res)
	r.Failures = append(r.Failures, checkPartitions(res, svc)...)

	if o.traced {
		l, fails, err := measureLayers(res, tele, cfg.CheckpointDir, t1.Sub(t0))
		if err != nil {
			return r, err
		}
		r.Layers = l
		r.Failures = append(r.Failures, fails...)
	}
	if live != nil {
		r.addReader(*live)
	}
	return r, nil
}

// timeSetup times one more set-up of the workload: that of a one-hour
// campaign with the full campaign's world and initial discovery.
func timeSetup(w workload, seed uint64) (float64, error) {
	cfg := w.config(seed)
	cfg.Campaign.End = cfg.Campaign.Start.Add(time.Hour)
	clock := &progressClock{}
	cfg.Progress = clock
	t0 := time.Now()
	experiments.Run(cfg)
	if clock.setupEnd.IsZero() {
		return 0, errors.New("engine printed no initial-discovery progress line")
	}
	return clock.setupEnd.Sub(t0).Seconds(), nil
}

// peakRSSBytes reads the process's resident-set high-water mark.
func peakRSSBytes() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseInt(fields[1], 10, 64)
			return kb << 10
		}
	}
	return 0
}
