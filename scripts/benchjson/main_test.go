package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const sampleRaw = `goos: linux
goarch: amd64
pkg: afrixp
BenchmarkFullCampaign                  3         424646477 ns/op        45747189 B/op     929197 allocs/op
BenchmarkCampaignParallel/workers=1-4  3         408039389 ns/op        45747178 B/op     929197 allocs/op
BenchmarkCampaignParallel/workers=4-4  3         108039389 ns/op        45747178 B/op     929197 allocs/op
BenchmarkTSLPSamplingThroughput        4319487   283.9 ns/op            0 B/op            0 allocs/op
BenchmarkChunkCompression              38        30169853 ns/op         5.265 compression_x  425984 B/op  208 allocs/op
PASS
ok      afrixp  12.3s
`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseRaw(t *testing.T) {
	benches, err := parseRaw(writeTemp(t, "raw.txt", sampleRaw))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5", len(benches))
	}
	b := benches[1]
	if b.Name != "BenchmarkCampaignParallel/workers=1" || b.Procs != 4 {
		t.Fatalf("cpu suffix not split: %+v", b)
	}
	if b.NsPerOp != 408039389 || b.BytesPerOp == nil || *b.BytesPerOp != 45747178 {
		t.Fatalf("values misparsed: %+v", b)
	}
	if benches[0].Procs != 1 {
		t.Fatalf("suffix-free name must mean procs=1: %+v", benches[0])
	}
	if benches[3].NsPerOp != 283.9 {
		t.Fatalf("fractional ns/op misparsed: %+v", benches[3])
	}
	if benches[4].Metrics["compression_x"] != 5.265 {
		t.Fatalf("custom metric unit misparsed: %+v", benches[4])
	}
	if benches[4].BytesPerOp == nil || *benches[4].BytesPerOp != 425984 {
		t.Fatalf("standard units after a custom metric misparsed: %+v", benches[4])
	}
}

func TestCompressionRatioLifted(t *testing.T) {
	benches, err := parseRaw(writeTemp(t, "raw.txt", sampleRaw))
	if err != nil {
		t.Fatal(err)
	}
	if r := compressionRatio(benches); r != 5.265 {
		t.Fatalf("compressionRatio = %v, want 5.265", r)
	}
	if r := compressionRatio(benches[:4]); r != 0 {
		t.Fatalf("compressionRatio without the bench = %v, want 0", r)
	}
}

func TestGuardWarnsOnBytesRegression(t *testing.T) {
	// ns/op and allocs/op are flat but bytes/op is ~9x the baseline:
	// exactly one warning, from the bytes guard.
	baseline := `{
  "date": "2026-01-01T00:00:00Z", "go": "go1.24.0",
  "benchmarks": [
    {"name": "BenchmarkFullCampaign", "procs": 1, "iterations": 3, "ns_per_op": 424646477, "bytes_per_op": 5000000, "allocs_per_op": 929197}
  ]
}`
	benches, err := parseRaw(writeTemp(t, "raw.txt", sampleRaw))
	if err != nil {
		t.Fatal(err)
	}
	if got := runGuard(benches, writeTemp(t, "base.json", baseline), 25); got != 1 {
		t.Fatalf("runGuard warned %d times, want 1 (bytes/op regression)", got)
	}
}

func TestParseRawRejectsEmpty(t *testing.T) {
	if _, err := parseRaw(writeTemp(t, "empty.txt", "PASS\n")); err == nil {
		t.Fatal("expected error for a log without benchmark lines")
	}
}

func TestReadLedgerNormalizesProcs(t *testing.T) {
	// Rows written before the procs field carry 0; they must come back
	// as procs 1 at every level (latest run and history), so record
	// mode stops propagating 0-rows and guard matches old baselines.
	ledger := `{
  "date": "2026-01-02T00:00:00Z", "go": "go1.24.0",
  "benchmarks": [
    {"name": "BenchmarkFullCampaign", "procs": 0, "iterations": 3, "ns_per_op": 1},
    {"name": "BenchmarkTSLPSamplingThroughput", "procs": 4, "iterations": 3, "ns_per_op": 1}
  ],
  "history": [
    {"date": "2026-01-01T00:00:00Z", "go": "go1.24.0",
     "benchmarks": [{"name": "BenchmarkFullCampaign", "iterations": 3, "ns_per_op": 1}]}
  ]
}`
	l, err := readLedger(writeTemp(t, "ledger.json", ledger))
	if err != nil {
		t.Fatal(err)
	}
	if l.Benchmarks[0].Procs != 1 {
		t.Fatalf("latest-run procs 0 not backfilled: %+v", l.Benchmarks[0])
	}
	if l.Benchmarks[1].Procs != 4 {
		t.Fatalf("explicit procs clobbered: %+v", l.Benchmarks[1])
	}
	if l.History[0].Benchmarks[0].Procs != 1 {
		t.Fatalf("history procs 0 not backfilled: %+v", l.History[0].Benchmarks[0])
	}
}

func TestGuardWarnsOnAllocRegression(t *testing.T) {
	// ns/op is flat but allocs/op is ~9× the baseline: exactly one
	// warning, from the allocs guard.
	baseline := `{
  "date": "2026-01-01T00:00:00Z", "go": "go1.24.0",
  "benchmarks": [
    {"name": "BenchmarkFullCampaign", "procs": 1, "iterations": 3, "ns_per_op": 424646477, "allocs_per_op": 100000}
  ]
}`
	benches, err := parseRaw(writeTemp(t, "raw.txt", sampleRaw))
	if err != nil {
		t.Fatal(err)
	}
	if got := runGuard(benches, writeTemp(t, "base.json", baseline), 25); got != 1 {
		t.Fatalf("runGuard warned %d times, want 1 (allocs/op regression)", got)
	}
}

func TestWarnInvertedScaling(t *testing.T) {
	mk := func(name string, procs int, ns float64) Benchmark {
		return Benchmark{Name: name, Procs: procs, NsPerOp: ns}
	}
	// workers=4 slower than workers=1 at procs=4: one warning.
	inverted := []Benchmark{
		mk("BenchmarkCampaignParallel/workers=1", 4, 100),
		mk("BenchmarkCampaignParallel/workers=4", 4, 150),
	}
	if got := warnInvertedScaling(inverted, 4); got != 1 {
		t.Fatalf("inverted scaling at procs=4: %d warnings, want 1", got)
	}
	// Healthy scaling: no warning.
	got := warnInvertedScaling([]Benchmark{
		mk("BenchmarkCampaignParallel/workers=1", 4, 100),
		mk("BenchmarkCampaignParallel/workers=4", 4, 40),
	}, 4)
	if got != 0 {
		t.Fatalf("healthy scaling: %d warnings, want 0", got)
	}
	// procs=1 parity is expected (single-core runner), not a warning.
	got = warnInvertedScaling([]Benchmark{
		mk("BenchmarkCampaignParallel/workers=1", 1, 100),
		mk("BenchmarkCampaignParallel/workers=4", 1, 110),
	}, 0)
	if got != 0 {
		t.Fatalf("procs=1 parity: %d warnings, want 0", got)
	}
	// A ledger recorded on a known single-core runner (cores=1)
	// suppresses the whole check, even when GOMAXPROCS says 4: the
	// cgroup limit, not the engine, inverts the ratio there.
	if got := warnInvertedScaling(inverted, 1); got != 0 {
		t.Fatalf("cores=1 baseline: %d warnings, want 0 (check suppressed)", got)
	}
	// An unrecorded core count (pre-field ledger, cores=0) keeps the
	// check live — suppression needs positive evidence.
	if got := warnInvertedScaling(inverted, 0); got != 1 {
		t.Fatalf("cores=0 baseline: %d warnings, want 1 (check stays live)", got)
	}
}

func TestGuardSuppressesInvertedScalingOnSingleCoreLedger(t *testing.T) {
	// End-to-end through runGuard: the raw log shows workers=4 slower
	// than workers=1 at procs=4, but the committed baseline says the
	// runner has one effective core — no warning.
	raw := `goos: linux
BenchmarkCampaignParallel/workers=1-4  3  100000000 ns/op
BenchmarkCampaignParallel/workers=4-4  3  150000000 ns/op
PASS
`
	baseline := `{
  "date": "2026-01-01T00:00:00Z", "go": "go1.24.0", "cores": 1,
  "benchmarks": [
    {"name": "BenchmarkCampaignParallel/workers=1", "procs": 4, "iterations": 3, "ns_per_op": 100000000},
    {"name": "BenchmarkCampaignParallel/workers=4", "procs": 4, "iterations": 3, "ns_per_op": 150000000}
  ]
}`
	benches, err := parseRaw(writeTemp(t, "raw.txt", raw))
	if err != nil {
		t.Fatal(err)
	}
	if got := runGuard(benches, writeTemp(t, "base.json", baseline), 25); got != 0 {
		t.Fatalf("runGuard warned %d times on a cores=1 ledger, want 0", got)
	}
}

func TestWarnBudgetSpend(t *testing.T) {
	mk := func(pct int, sent float64) Benchmark {
		return Benchmark{
			Name:    "BenchmarkBudgetCampaign/budget=" + strconv.Itoa(pct),
			Procs:   1,
			NsPerOp: 1,
			Metrics: map[string]float64{"probes_sent": sent},
		}
	}
	// 50% budget sending 31% of full-rate probes: within contract.
	if got := warnBudgetSpend([]Benchmark{mk(100, 179424), mk(50, 55979)}); got != 0 {
		t.Fatalf("compliant spend: %d warnings, want 0", got)
	}
	// 50% budget sending 80%: the scheduler is overspending.
	if got := warnBudgetSpend([]Benchmark{mk(100, 100000), mk(50, 80000)}); got != 1 {
		t.Fatalf("overspend: %d warnings, want 1", got)
	}
	// No budget=100 sibling (partial -bench filter): nothing to compare.
	if got := warnBudgetSpend([]Benchmark{mk(50, 80000)}); got != 0 {
		t.Fatalf("missing full-rate sibling: %d warnings, want 0", got)
	}
	// probes_sent metric absent: skipped, not a crash.
	noMetric := Benchmark{Name: "BenchmarkBudgetCampaign/budget=50", Procs: 1, NsPerOp: 1}
	if got := warnBudgetSpend([]Benchmark{mk(100, 100000), noMetric}); got != 0 {
		t.Fatalf("metric-free sub-benchmark: %d warnings, want 0", got)
	}
}

func TestWarnAlertLatency(t *testing.T) {
	mk := func(p50, p95, frac float64) Benchmark {
		return Benchmark{
			Name:    "BenchmarkAlertLatency/budget=100",
			Procs:   1,
			NsPerOp: 1,
			Metrics: map[string]float64{
				"alert_latency_p50_s": p50,
				"alert_latency_p95_s": p95,
				"alerted_fraction":    frac,
			},
		}
	}
	// Healthy: p50 14h, p95 18h, everything alerted.
	if got := warnAlertLatency([]Benchmark{mk(50400, 64710, 1)}); got != 0 {
		t.Fatalf("healthy latency: %d warnings, want 0", got)
	}
	// Outside the campaign week: the detector stopped noticing in time.
	if got := warnAlertLatency([]Benchmark{mk(50400, 8*24*3600, 1)}); got != 1 {
		t.Fatalf("p95 past the window: %d warnings, want 1", got)
	}
	// Inverted quantiles.
	if got := warnAlertLatency([]Benchmark{mk(64710, 50400, 1)}); got != 1 {
		t.Fatalf("inverted quantiles: %d warnings, want 1", got)
	}
	// Most planted congestion missed.
	if got := warnAlertLatency([]Benchmark{mk(50400, 64710, 0.3)}); got != 1 {
		t.Fatalf("low alerted fraction: %d warnings, want 1", got)
	}
	// Half a metric pair is itself a finding; no metrics is a skip.
	half := Benchmark{Name: "BenchmarkAlertLatency/budget=50", Procs: 1, NsPerOp: 1,
		Metrics: map[string]float64{"alert_latency_p50_s": 50400}}
	if got := warnAlertLatency([]Benchmark{half}); got != 1 {
		t.Fatalf("lone p50: %d warnings, want 1", got)
	}
	if got := warnAlertLatency([]Benchmark{{Name: "BenchmarkFullCampaign", Procs: 1, NsPerOp: 1}}); got != 0 {
		t.Fatalf("metric-free benchmark: %d warnings, want 0", got)
	}
}

func TestAddNoteDeduplicates(t *testing.T) {
	// Regression: the single-core caveat was stamped with a plain
	// append, so a note already present (or stamped twice) duplicated
	// in the committed ledger row. addNote must be idempotent and
	// leave unrelated notes alone.
	notes := addNote(nil, "scaling_unverified")
	notes = addNote(notes, "scaling_unverified")
	if len(notes) != 1 || notes[0] != "scaling_unverified" {
		t.Fatalf("addNote duplicated: %v", notes)
	}
	notes = addNote(notes, "other_caveat")
	notes = addNote(notes, "scaling_unverified")
	if len(notes) != 2 {
		t.Fatalf("addNote with mixed notes: %v, want 2 distinct entries", notes)
	}
}

func TestRowNotes(t *testing.T) {
	ckpt := Benchmark{Name: "BenchmarkCheckpoint", Procs: 2}
	full := Benchmark{Name: "BenchmarkFullCampaign", Procs: 2}
	cases := []struct {
		benches []Benchmark
		cores   int
		want    []string
	}{
		{[]Benchmark{full}, 2, nil},
		{[]Benchmark{full}, 1, []string{"scaling_unverified"}},
		{[]Benchmark{ckpt, full, ckpt}, 2, []string{"checkpoint_capture_untimed"}},
		{[]Benchmark{ckpt}, 1, []string{"scaling_unverified", "checkpoint_capture_untimed"}},
	}
	for _, c := range cases {
		got := rowNotes(c.benches, c.cores)
		if strings.Join(got, ",") != strings.Join(c.want, ",") {
			t.Fatalf("rowNotes(%v, %d) = %v, want %v", c.benches, c.cores, got, c.want)
		}
	}
}

func TestGuardMatchesByNameAndProcs(t *testing.T) {
	// The guard is warn-only; here we only pin that it does not crash
	// on a baseline missing the procs field (pre-field ledgers) and on
	// benchmarks absent from the baseline.
	baseline := `{
  "date": "2026-01-01T00:00:00Z", "go": "go1.24.0",
  "benchmarks": [
    {"name": "BenchmarkFullCampaign", "iterations": 3, "ns_per_op": 400000000, "bytes_per_op": 1, "allocs_per_op": 1}
  ]
}`
	benches, err := parseRaw(writeTemp(t, "raw.txt", sampleRaw))
	if err != nil {
		t.Fatal(err)
	}
	runGuard(benches, writeTemp(t, "base.json", baseline), 25)
}

func TestWarnScaleMemory(t *testing.T) {
	mk := func(scale string, bpl float64) Benchmark {
		return Benchmark{Name: "BenchmarkScaleCampaign/scale=" + scale, Procs: 4, NsPerOp: 1,
			Metrics: map[string]float64{"bytes_per_link": bpl}}
	}
	// Sharded 100x at or below the 1x figure: the memory bound holds.
	if got := warnScaleMemory([]Benchmark{mk("1", 11000), mk("100", 7000)}, Ledger{}, 25); got != 0 {
		t.Fatalf("bound holds: %d warnings, want 0", got)
	}
	// Above the 1x figure: the per-shard bound is broken.
	if got := warnScaleMemory([]Benchmark{mk("1", 11000), mk("100", 12000)}, Ledger{}, 25); got != 1 {
		t.Fatalf("bound broken: %d warnings, want 1", got)
	}
	// Growth vs the committed ledger beyond tolerance warns too.
	baseline := Ledger{Run: Run{Benchmarks: []Benchmark{mk("100", 5000)}}}
	if got := warnScaleMemory([]Benchmark{mk("100", 7000)}, baseline, 25); got != 1 {
		t.Fatalf("ledger regression: %d warnings, want 1", got)
	}
	if got := warnScaleMemory([]Benchmark{mk("100", 5100)}, baseline, 25); got != 0 {
		t.Fatalf("within tolerance: %d warnings, want 0", got)
	}
	// No scale=1 sibling and no baseline row (partial -bench filter):
	// nothing to compare, not a crash.
	if got := warnScaleMemory([]Benchmark{mk("100", 9000)}, Ledger{}, 25); got != 0 {
		t.Fatalf("missing siblings: %d warnings, want 0", got)
	}
}

// samples builds one benchmark's -count repetitions at the given ns/op.
func samples(name string, ns ...float64) []Benchmark {
	out := make([]Benchmark, len(ns))
	for i, v := range ns {
		out[i] = Benchmark{Name: name, Procs: 1, Iterations: 1, NsPerOp: v}
	}
	return out
}

// ledgerJSON writes a ledger whose latest row holds benches.
func ledgerJSON(t *testing.T, benches []Benchmark) string {
	t.Helper()
	buf, err := json.Marshal(Ledger{Run: Run{Date: "2026-01-01T00:00:00Z", Go: "go1.24.0", Benchmarks: benches}})
	if err != nil {
		t.Fatal(err)
	}
	return writeTemp(t, "base.json", string(buf))
}

func TestMedianSpread(t *testing.T) {
	for _, c := range []struct {
		vs             []float64
		median, spread float64
	}{
		{[]float64{7}, 7, 0},
		{[]float64{4, 1, 3, 2}, 2.5, 1.5},
		{[]float64{140, 60, 100, 120, 80}, 100, 40},
	} {
		if m, s := medianSpread(c.vs); m != c.median || s != c.spread {
			t.Errorf("medianSpread(%v) = %v, %v; want %v, %v", c.vs, m, s, c.median, c.spread)
		}
	}
}

// With five samples a side, the guard compares medians: one slow
// current sample, or one fast baseline sample recorded last, is not a
// regression; a shift of the whole distribution is, once.
func TestGuardComparesMedians(t *testing.T) {
	const name = "BenchmarkAnalysisSweep/sweep"
	for _, c := range []struct {
		what        string
		base, cur   []float64
		wantWarning int
	}{
		{"one slow current sample", []float64{100, 100, 100, 100, 100}, []float64{100, 100, 300, 100, 100}, 0},
		{"fast last baseline sample", []float64{100, 100, 100, 100, 40}, []float64{105, 105, 105, 105, 105}, 0},
		{"whole distribution slower", []float64{100, 100, 100, 100, 100}, []float64{140, 140, 140, 140, 140}, 1},
		{"within the baseline's spread", []float64{60, 80, 100, 120, 140}, []float64{130, 130, 130, 130, 130}, 0},
		{"beyond the baseline's spread", []float64{60, 80, 100, 120, 140}, []float64{150, 150, 150, 150, 150}, 1},
		{"one sample a side", []float64{100}, []float64{130}, 1},
	} {
		got := runGuard(samples(name, c.cur...), ledgerJSON(t, samples(name, c.base...)), 25)
		if got != c.wantWarning {
			t.Errorf("%s: %d warnings, want %d", c.what, got, c.wantWarning)
		}
	}
}

// A COUNT=N log parses to all N samples, in order, which record mode
// writes into the ledger row as they are.
func TestParseRawKeepsEverySample(t *testing.T) {
	raw := "BenchmarkX-2 10 100 ns/op\nBenchmarkX-2 10 120 ns/op\nBenchmarkX-2 10 90 ns/op\n"
	benches, err := parseRaw(writeTemp(t, "raw.txt", raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 3 || benches[1].NsPerOp != 120 {
		t.Fatalf("parsed %+v, want the three samples in order", benches)
	}
}

// A one-iteration smoke sample is not compared with a ledger median of
// many iterations: its first-run bytes/op and ns/op would always read
// as regressions. The skipped benchmark is listed in one summary line,
// and the same figures at comparable iteration counts still warn.
func TestGuardSkipsMismatchedIterations(t *testing.T) {
	const name = "BenchmarkChunkCompression"
	bytes := func(iters int64, ns, b float64) Benchmark {
		return Benchmark{Name: name, Procs: 1, Iterations: iters, NsPerOp: ns, BytesPerOp: &b}
	}
	base := ledgerJSON(t, []Benchmark{bytes(38, 3e7, 85), bytes(40, 3e7, 85), bytes(37, 3e7, 85)})

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	got := runGuard([]Benchmark{bytes(1, 3.3e8, 2312)}, base, 25)
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	if got != 0 {
		t.Fatalf("one-iteration smoke against a 38-iteration median warned %d times, want 0", got)
	}
	summary := 0
	for _, line := range strings.Split(string(out), "\n") {
		if strings.Contains(line, "not compared") {
			summary++
			if !strings.Contains(line, name+" (procs=1, 38 vs 1)") {
				t.Errorf("summary line %q does not name the skipped benchmark", line)
			}
		}
	}
	if summary != 1 {
		t.Errorf("%d summary lines of skipped benchmarks, want 1:\n%s", summary, out)
	}

	if got := runGuard([]Benchmark{bytes(20, 3.3e8, 2312)}, base, 25); got != 2 {
		t.Fatalf("comparable iteration counts warned %d times, want 2 (ns/op and bytes/op)", got)
	}
}

// A lone current ns/op sample above the baseline median by more than
// the tolerance, but within the tolerance of the baseline's slowest
// sample, is unresolved: one summary line, no warning. Beyond that it
// warns, and bytes/op keeps warning on a lone sample as before.
func TestGuardLoneSampleUnresolved(t *testing.T) {
	const name = "BenchmarkAnalysisSweep/independent"
	sample := func(ns, b float64) Benchmark {
		return Benchmark{Name: name, Procs: 2, Iterations: 1, NsPerOp: ns, BytesPerOp: &b}
	}
	base := ledgerJSON(t, []Benchmark{
		sample(3.09e9, 9e8), sample(3.38e9, 9e8), sample(2.99e9, 9e8), sample(3.03e9, 9e8), sample(3.09e9, 9e8),
	})
	guard := func(cur Benchmark) (int, string) {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		stdout := os.Stdout
		os.Stdout = w
		got := runGuard([]Benchmark{cur}, base, 25)
		os.Stdout = stdout
		w.Close()
		out, _ := io.ReadAll(r)
		return got, string(out)
	}

	// +35% over the median, +23% over the slowest baseline sample.
	got, out := guard(sample(4.17e9, 9e8))
	if got != 0 {
		t.Fatalf("lone sample inside the widened baseline range warned %d times, want 0:\n%s", got, out)
	}
	summary := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "unresolved") {
			summary++
			if !strings.Contains(line, name+" (procs=2, +35%)") {
				t.Errorf("summary line %q does not name the unresolved benchmark", line)
			}
		}
	}
	if summary != 1 {
		t.Errorf("%d summary lines of unresolved comparisons, want 1:\n%s", summary, out)
	}

	// +30% over the slowest baseline sample: a warning, not unresolved.
	if got, out := guard(sample(4.4e9, 9e8)); got != 1 || strings.Contains(out, "unresolved") {
		t.Errorf("lone sample beyond the widened range: %d warnings, want 1, none unresolved:\n%s", got, out)
	}
	// bytes/op on a lone sample warns as before, ns/op unresolved.
	if got, out := guard(sample(4.17e9, 1.5e9)); got != 1 || !strings.Contains(out, "bytes/op regressed") {
		t.Errorf("lone-sample bytes/op regression: %d warnings, want 1:\n%s", got, out)
	}
}
