// Command perfbench is the campaign benchmark: it runs one workload's
// campaign repeatedly, each time in a fresh child process with one
// probing worker, checks every run's verdicts and accounting, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// split of a separate traced run) as one JSON line. See README.md.
//
// Run it from the root of an afrixp checkout through run.sh, which
// builds it first:
//
//	bash perfbench/run.sh --workload paper-campaign --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// pinnedSeed is the seed whose verdict digests golden.json pins, and
// the default -seed.
const pinnedSeed = 1

// options are the command-line flags shared by the parent and child
// processes.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	child    bool
	// pair marks a child as one of a traced pair (see campaignOpts).
	pair    bool
	workDir string
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name (see README.md)")
	fs.Uint64Var(&o.seed, "seed", pinnedSeed, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 30, "measure for this many seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer split instead of the end-to-end runs")
	fs.BoolVar(&o.child, "child", false, "run one campaign in this process and print its raw result")
	fs.BoolVar(&o.pair, "pair", false, "with -child: the campaign is one of a traced pair")
	fs.StringVar(&o.workDir, "workdir", ".bench_build", "directory for checkpoints and scratch files")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	o.trace = *trace == 1
	if o.seconds <= 0 {
		return o, errors.New("-seconds must be positive")
	}
	return o, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	if o.child {
		r, err := runCampaign(w, campaignOpts{
			seed:          o.seed,
			traced:        o.trace,
			midCheckpoint: o.pair,
			workDir:       o.workDir,
			api:           parentReader{bufio.NewReader(os.Stdin)},
		})
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(r)
	}
	rep, err := measure(w, o)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measure runs fresh child campaigns until the time budget is spent
// (at least one) and summarizes them. With tracing, each round is one
// untraced and one traced child, so the tracing overhead is measured
// on the same machine state.
func measure(w workload, o options) (report, error) {
	start := time.Now()
	var plain, traced []runResult
	for len(plain) == 0 || time.Since(start).Seconds() < o.seconds {
		r, err := spawn(w, o, false)
		if err != nil {
			return report{}, err
		}
		plain = append(plain, r)
		if o.trace {
			r, err := spawn(w, o, true)
			if err != nil {
				return report{}, err
			}
			traced = append(traced, r)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d runs in %.1fs\n",
		w.name, o.seed, len(plain)+len(traced), time.Since(start).Seconds())
	if o.trace {
		return traceReport(plain, traced, golden), nil
	}
	return endToEndReport(plain, golden), nil
}

// spawn runs one campaign in a fresh copy of this executable. When the
// child announces a live API, this process polls it with the open-loop
// reader until the child's campaign returns (see parentReader).
func spawn(w workload, o options, traced bool) (runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-child", "-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
		"-trace", trace, "-pair="+strconv.FormatBool(o.trace), "-workdir", o.workDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return runResult{}, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return runResult{}, err
	}
	if err := cmd.Start(); err != nil {
		return runResult{}, err
	}
	var reader *openLoopReader
	var stats *readerStats
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		switch line := sc.Text(); {
		case strings.HasPrefix(line, apiUpPrefix) && reader == nil:
			reader = startReader(strings.TrimPrefix(line, apiUpPrefix), readerRate)
			io.WriteString(stdin, "reading\n")
		case line == campaignDone && reader != nil && stats == nil:
			s := reader.stop()
			stats = &s
			stdin.Close()
		default:
			fmt.Fprintln(os.Stderr, line)
		}
	}
	if reader != nil && stats == nil {
		reader.stop()
	}
	stdin.Close()
	if err := cmd.Wait(); err != nil {
		return runResult{}, fmt.Errorf("%s child: %w", w.name, err)
	}
	var r runResult
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return runResult{}, fmt.Errorf("%s child output: %w", w.name, err)
	}
	if stats != nil {
		r.addReader(*stats)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d traced=%t: setup %.3fs campaign %.3fs rss %.1fMB alloc %.1fMB\n",
		r.Workload, r.Seed, r.Traced, r.SetupS, r.CampaignS, r.PeakRSSMB, r.AllocMB)
	return r, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's one-line result.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations over a set of runs: each campaign is one
// operation (failed if any of its checks failed) and each API request
// another. A run fails if its verdict digest differs from the pinned
// one or from the first run's (runs of one seed must agree), or if it
// is traced and lacks a per-layer metric.
func tally(runs []runResult, pins map[string]goldenEntry) report {
	var rep report
	for i, r := range runs {
		rep.Attempted++
		fails := append(checkDigest(r, pins), r.Failures...)
		if r.VerdictDigest != runs[0].VerdictDigest {
			fails = append(fails, fmt.Sprintf("verdict digest differs from run 0: %s vs %s",
				r.VerdictDigest, runs[0].VerdictDigest))
		}
		if r.Traced {
			for name := range layerUnits {
				if _, ok := r.Layers[name]; !ok {
					fails = append(fails, "no value for "+name)
				}
			}
		}
		if len(fails) > 0 {
			rep.Failed++
			for _, f := range fails {
				fmt.Fprintf(os.Stderr, "perfbench: run %d (%s seed %d): %s\n", i, r.Workload, r.Seed, f)
			}
		}
		if r.Reader != nil {
			rep.Attempted += r.Reader.Sent
			rep.Failed += r.Reader.Errors
		}
	}
	rep.Correct = rep.Failed == 0
	return rep
}

// endToEndReport reports the fastest child's campaign time and the
// median child's set-up time and memory. On a shared host, other
// tenants only ever add time, in spells that can cover half a run's
// children, so the fastest child is the steadiest estimate of the
// campaign's own time.
func endToEndReport(runs []runResult, pins map[string]goldenEntry) report {
	rep := tally(runs, pins)
	col := func(stat func([]float64) float64, f func(runResult) float64) float64 {
		vs := make([]float64, len(runs))
		for i, r := range runs {
			vs[i] = f(r)
		}
		return stat(vs)
	}
	rep.Metrics = map[string]metric{
		"setup_s":     {col(median, func(r runResult) float64 { return r.SetupS }), "s"},
		"campaign_s":  {col(slices.Min, func(r runResult) float64 { return r.CampaignS }), "s"},
		"peak_rss_mb": {col(median, func(r runResult) float64 { return r.PeakRSSMB }), "MB"},
		"alloc_mb":    {col(median, func(r runResult) float64 { return r.AllocMB }), "MB"},
	}
	return rep
}

// traceReport is the per-layer split: the median of each layer metric
// over the traced runs, plus the tracing overhead against the paired
// untraced runs. Traced and untraced runs must reach the same verdicts.
func traceReport(plain, traced []runResult, pins map[string]goldenEntry) report {
	rep := tally(append(append([]runResult(nil), plain...), traced...), pins)
	rep.Metrics = make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		vs := make([]float64, len(traced))
		for i, r := range traced {
			vs[i] = r.Layers[name]
		}
		rep.Metrics[name] = metric{median(vs), unit}
	}
	ratios := make([]float64, len(traced))
	for i := range traced {
		ratios[i] = traced[i].CampaignS / plain[i].CampaignS
	}
	rep.Metrics["trace.overhead"] = metric{median(ratios), "ratio"}
	return rep
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
