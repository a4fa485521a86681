package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"afrixp/internal/experiments"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// short cuts a workload's campaign to two days so that the tests run
// every workload in seconds; the world and attachments are unchanged.
func short(w workload) workload {
	full := w.config
	w.config = func(seed uint64) experiments.Config {
		cfg := full(seed)
		cfg.Campaign.End = cfg.Campaign.Start.Add(days(2))
		return cfg
	}
	return w
}

// runShort runs a short campaign in this process, with the API reader
// in this process too.
func runShort(t *testing.T, w workload, o campaignOpts) runResult {
	t.Helper()
	o.workDir = t.TempDir()
	o.api = &localReader{}
	r, err := runCampaign(short(w), o)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// pinned pins r's digest as the workload's golden one.
func pinned(r runResult) map[string]goldenEntry {
	return map[string]goldenEntry{r.Workload: {VerdictDigest: r.VerdictDigest}}
}

func TestSpecMatchesBenchmark(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		if _, err := findWorkload(sw.Name); err != nil {
			t.Error(err)
		}
		if _, ok := golden[sw.Name]; !ok {
			t.Errorf("%s has no pinned verdict digest", sw.Name)
		}
	}
	for _, m := range spec.PerLayer {
		if u, ok := layerUnits[m.Name]; m.Name != "trace.overhead" && (!ok || u != m.Unit) {
			t.Errorf("per-layer metric %s (%s) is not measured with that unit", m.Name, m.Unit)
		}
	}
	if len(spec.PerLayer) != len(layerUnits)+1 {
		t.Errorf("BENCHMARK.json names %d per-layer metrics, the benchmark measures %d",
			len(spec.PerLayer), len(layerUnits)+1)
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload briefly, untraced
// and traced, and checks both reports name every metric of
// BENCHMARK.json with its unit and pass every check.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := runShort(t, w, campaignOpts{seed: pinnedSeed})
			pair := runShort(t, w, campaignOpts{seed: pinnedSeed, midCheckpoint: true})
			traced := runShort(t, w, campaignOpts{seed: pinnedSeed, traced: true, midCheckpoint: true})
			pins := pinned(plain)
			if w.observatory && (plain.Reader == nil || plain.Reader.Sent == 0) {
				t.Error("no API request was sent during the campaign")
			}

			rep := endToEndReport([]runResult{plain}, pins)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("end-to-end report: correct=%t attempted=%d failed=%d, failures %q",
					rep.Correct, rep.Attempted, rep.Failed, plain.Failures)
			}
			if len(rep.Metrics) != len(spec.EndToEnd) {
				t.Errorf("end-to-end report has %d metrics, BENCHMARK.json %d", len(rep.Metrics), len(spec.EndToEnd))
			}
			for _, m := range spec.EndToEnd {
				if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s: got %+v (present %t), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}

			rep = traceReport([]runResult{pair}, []runResult{traced}, pins)
			if !rep.Correct {
				t.Errorf("traced report incorrect; failures %q", traced.Failures)
			}
			if len(rep.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced report has %d metrics, BENCHMARK.json %d", len(rep.Metrics), len(spec.PerLayer))
			}
			for _, m := range spec.PerLayer {
				if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %t), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
		})
	}
}

// TestCorruptedDigestFails checks that a verdict digest differing from
// the pinned one, or from another run of the same seed, is a failure,
// and so is a traced run that lacks a per-layer metric.
func TestCorruptedDigestFails(t *testing.T) {
	w, _ := findWorkload("paper-campaign")
	r := runShort(t, w, campaignOpts{seed: pinnedSeed})
	if rep := tally([]runResult{r}, pinned(r)); !rep.Correct {
		t.Fatalf("clean run failed: %q", r.Failures)
	}

	pins := pinned(r)
	p := pins[r.Workload]
	p.VerdictDigest = strings.Repeat("0", len(p.VerdictDigest))
	pins[r.Workload] = p
	if rep := tally([]runResult{r}, pins); rep.Correct || rep.Failed != 1 {
		t.Errorf("corrupted pin: correct=%t failed=%d, want one failure", rep.Correct, rep.Failed)
	}

	other := r
	other.VerdictDigest = strings.Repeat("f", len(r.VerdictDigest))
	if rep := tally([]runResult{r, other}, pinned(r)); rep.Correct || rep.Failed != 1 {
		t.Errorf("disagreeing runs: correct=%t failed=%d, want the second to fail", rep.Correct, rep.Failed)
	}

	if rep := tally([]runResult{r}, nil); rep.Correct {
		t.Error("a workload without a pinned digest passed")
	}

	bare := r
	bare.Traced, bare.Layers = true, map[string]float64{}
	if rep := tally([]runResult{bare}, pinned(r)); rep.Correct {
		t.Error("a traced run without per-layer metrics passed")
	}
}

// TestSecondSeedRunsClean checks that a seed other than the pinned one
// runs every check clean and repeats its own verdicts.
func TestSecondSeedRunsClean(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			seed := uint64(pinnedSeed + 1)
			a := runShort(t, w, campaignOpts{seed: seed})
			b := runShort(t, w, campaignOpts{seed: seed})
			// Other seeds are not pinned: the pinned seed's entry must
			// not apply to them.
			pins := map[string]goldenEntry{w.name: {VerdictDigest: "unused"}}
			if rep := tally([]runResult{a, b}, pins); !rep.Correct {
				t.Errorf("seed %d: failed %d of %d; failures %q %q", seed, rep.Failed, rep.Attempted, a.Failures, b.Failures)
			}
		})
	}
}

func TestPercentileAndMedian(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3}
	if got := median(vs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if got := percentile(vs, 0.99); got != 5 {
		t.Errorf("p99 = %g, want 5", got)
	}
	if got := percentile(vs, 0.5); got != 3 {
		t.Errorf("p50 = %g, want 3", got)
	}
	if vs[0] != 5 {
		t.Error("median or percentile reordered its input")
	}
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "paper-campaign", "--seed", "3", "--seconds", "10", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if o.workload != "paper-campaign" || o.seed != 3 || o.seconds != 10 || !o.trace {
		t.Errorf("parsed %+v", o)
	}
	if o, err := parseFlags(nil); err != nil || o.seed != pinnedSeed {
		t.Errorf("default seed %d (err %v), want %d", o.seed, err, pinnedSeed)
	}
	for _, bad := range [][]string{{"--trace", "2"}, {"--seed", "x"}, {"--seconds", "0"}} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}
