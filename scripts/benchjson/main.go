// Command benchjson turns `go test -bench` output into the committed
// benchmark ledger (BENCH_campaign.json) and guards CI against
// performance regressions.
//
// Record mode (the default) parses a raw benchmark log and writes the
// ledger. The previous ledger's run — and everything already in its
// history — is carried into the new file's history array, so the
// committed JSON accumulates a performance record across PRs:
//
//	benchjson -raw bench.txt -prev BENCH_campaign.json -out BENCH_campaign.json
//
// Guard mode compares a raw benchmark log against the committed
// ledger and prints a warning for every benchmark whose median ns/op
// (or allocs/op, bytes/op) regressed beyond the tolerance and beyond
// the baseline's own sample spread. It always exits 0 — single-shot CI
// smoke runs are too noisy to gate on — the warning is for humans:
//
//	benchjson -guard -raw smoke.txt -prev BENCH_campaign.json -tolerance 25
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one `Benchmark...` result line. Procs is the GOMAXPROCS
// suffix go test appends to the name (1 when absent), kept separately
// so the same benchmark is comparable across runner core counts.
type Benchmark struct {
	Name        string   `json:"name"`
	Procs       int      `json:"procs"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
	// Metrics carries custom b.ReportMetric units (e.g. the chunk
	// store's "compression_x") keyed by unit name.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Run is one recording session.
type Run struct {
	Date string `json:"date"`
	Go   string `json:"go"`
	// Cores is the runner's effective core count (-cores flag; 0 in
	// rows recorded before the field existed). It makes the "workers=4
	// measures at parity with workers=1 on a single-core runner"
	// caveat machine-readable: consumers can tell a genuine scaling
	// regression from a starved runner.
	Cores int `json:"cores,omitempty"`
	// CompressionRatio is the columnar store's raw/encoded byte ratio,
	// lifted from the compression_x metric when the run includes
	// BenchmarkChunkCompression.
	CompressionRatio float64 `json:"compression_ratio,omitempty"`
	// Notes carries machine-readable caveats about the row (rowNotes):
	//
	//   - "scaling_unverified", stamped when the run was recorded on a
	//     single effective core (Cores=1): every multi-worker number in
	//     the row then measured time-sharing, not parallelism, so no
	//     speedup claim may be read from it.
	//   - "checkpoint_capture_untimed", stamped when the row holds
	//     BenchmarkCheckpoint: it rewrites a loaded snapshot, so its
	//     ns/op leaves out the capture-time packing of each builder's
	//     open block (checkpoint format 3). The end-to-end campaign
	//     figures (perfbench's campaign_s) include it.
	Notes      []string    `json:"notes,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Ledger is the committed file: the latest run plus prior runs.
type Ledger struct {
	Run
	History []Run `json:"history,omitempty"`
}

var cpuSuffix = regexp.MustCompile(`-(\d+)$`)

func main() {
	var (
		raw       = flag.String("raw", "", "raw `go test -bench` log to parse (required)")
		prev      = flag.String("prev", "", "previous ledger: feeds history (record) or the baseline (guard)")
		out       = flag.String("out", "", "ledger file to write (record mode)")
		guard     = flag.Bool("guard", false, "compare -raw against -prev and warn on ns/op regressions")
		tolerance = flag.Float64("tolerance", 25, "guard: allowed ns/op regression in percent")
		cores     = flag.Int("cores", 0, "record: effective core count of the runner, stamped into the ledger row")
	)
	flag.Parse()

	if *raw == "" {
		fatal("benchjson: -raw is required")
	}
	benches, err := parseRaw(*raw)
	if err != nil {
		fatal("benchjson: %v", err)
	}

	if *guard {
		if *prev == "" {
			fatal("benchjson: guard mode needs -prev")
		}
		runGuard(benches, *prev, *tolerance)
		return
	}

	if *out == "" {
		fatal("benchjson: record mode needs -out")
	}
	ledger := Ledger{Run: Run{
		Date:             time.Now().UTC().Format(time.RFC3339),
		Go:               runtime.Version(),
		Cores:            *cores,
		CompressionRatio: compressionRatio(benches),
		Benchmarks:       benches,
	}}
	ledger.Notes = rowNotes(benches, *cores)
	if *cores == 1 {
		fmt.Fprintln(os.Stderr,
			"benchjson: note: scaling_unverified — this row was recorded on a single effective core; multi-worker numbers measure time-sharing, not speedup")
	}
	if *prev != "" {
		if old, err := readLedger(*prev); err == nil {
			// The previous latest run becomes the newest history entry.
			ledger.History = append([]Run{old.Run}, old.History...)
		} else if !os.IsNotExist(err) {
			fatal("benchjson: %v", err)
		}
	}
	buf, err := json.MarshalIndent(&ledger, "", "  ")
	if err != nil {
		fatal("benchjson: %v", err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fatal("benchjson: %v", err)
	}
}

// rowNotes returns the caveats a recorded row carries (Run.Notes).
func rowNotes(benches []Benchmark, cores int) []string {
	var notes []string
	if cores == 1 {
		notes = addNote(notes, "scaling_unverified")
	}
	for _, b := range benches {
		if b.Name == "BenchmarkCheckpoint" {
			notes = addNote(notes, "checkpoint_capture_untimed")
		}
	}
	return notes
}

// addNote appends note to a Run's Notes unless it is already present.
// Notes are a set of machine-readable caveats, so stamping one twice —
// a plain append did exactly that on every single-core record run —
// must not produce a duplicate entry in the committed ledger.
func addNote(notes []string, note string) []string {
	for _, n := range notes {
		if n == note {
			return notes
		}
	}
	return append(notes, note)
}

// parseRaw extracts Benchmark lines from a `go test -bench` log.
func parseRaw(path string) ([]Benchmark, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Benchmark
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		b := Benchmark{Name: fields[0], Procs: 1}
		if m := cpuSuffix.FindStringSubmatch(b.Name); m != nil {
			b.Procs, _ = strconv.Atoi(m[1])
			b.Name = strings.TrimSuffix(b.Name, m[0])
		}
		if b.Iterations, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue // e.g. a "Benchmarking..." prose line
		}
		// Values carry their unit in the following field.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				v := v
				b.BytesPerOp = &v
			case "allocs/op":
				v := v
				b.AllocsPerOp = &v
			case "MB/s":
				// go test throughput; derivable from ns/op, not kept.
			default:
				// Custom b.ReportMetric units (compression_x, …).
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64, 1)
				}
				b.Metrics[unit] = v
			}
		}
		out = append(out, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines found", path)
	}
	return out, nil
}

// compressionRatio lifts the columnar store's raw/encoded ratio out of
// the parsed benchmarks: the highest compression_x metric seen (several
// sub-benchmarks may report one; they measure the same store). Zero
// when the run didn't include a compression benchmark.
func compressionRatio(benches []Benchmark) float64 {
	ratio := 0.0
	for _, b := range benches {
		if r, ok := b.Metrics["compression_x"]; ok && r > ratio {
			ratio = r
		}
	}
	return ratio
}

// normalize backfills fields older ledger rows lack. Rows written
// before the procs field existed carry procs 0; an absent GOMAXPROCS
// suffix means the benchmark ran at procs 1, so 0 and 1 are the same
// row and must not split into two ledger keys.
func (r *Run) normalize() {
	for i := range r.Benchmarks {
		if r.Benchmarks[i].Procs == 0 {
			r.Benchmarks[i].Procs = 1
		}
	}
}

// readLedger loads and normalizes a committed ledger: the latest run
// and every history entry come back with procs backfilled, so record
// mode never carries procs-0 rows forward and guard mode matches
// pre-field baselines correctly.
func readLedger(path string) (Ledger, error) {
	var l Ledger
	buf, err := os.ReadFile(path)
	if err != nil {
		return l, err
	}
	if err := json.Unmarshal(buf, &l); err != nil {
		return l, fmt.Errorf("%s: %w", path, err)
	}
	l.Run.normalize()
	for i := range l.History {
		l.History[i].normalize()
	}
	return l, nil
}

// runGuard warns about ns/op, allocs/op and bytes/op regressions
// against the baseline ledger, plus inverted parallel scaling in the
// current run, returning the warning count. Benchmarks are matched by
// name and procs; benchmarks present on only one side are skipped (new
// or retired benchmarks are not regressions), and so are benchmarks
// whose two sides ran iteration counts too far apart to compare
// (comparableIterations), which one summary line lists. A COUNT=N log
// and ledger row hold N samples per benchmark, so each side is reduced
// to its median, and a regression warns only when the median grew by
// more than tol percent and by more than the baseline's own
// interquartile spread (zero for a one-sample row). A lone current
// ns/op sample cannot be told from host noise, so it warns only when it
// also lies more than tol percent above the baseline's slowest sample;
// otherwise the comparison is listed as unresolved in one summary line.
// The caller always exits 0 — single-shot CI smoke runs are too noisy
// to gate on.
func runGuard(benches []Benchmark, prevPath string, tol float64) int {
	baselineLedger, err := readLedger(prevPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: guard skipped: %v\n", err)
		return 0
	}
	baseline, _ := groupSamples(baselineLedger.Benchmarks)
	current, order := groupSamples(benches)
	regressions := 0
	var skipped, unresolved []string
	for _, k := range order {
		base, ok := baseline[k]
		if !ok {
			continue
		}
		if bi, ci, ok := comparableIterations(base, current[k]); !ok {
			skipped = append(skipped, fmt.Sprintf("%s (procs=%d, %d vs %d)", k.name, k.procs, bi, ci))
			continue
		}
		// allocs/op and bytes/op are deterministic where ns/op is
		// noisy, so the same tolerance catches real allocation creep
		// without false alarms. bytes/op is the one the columnar-store
		// work drove down 4×+ — creeping back up is a regression even
		// when ns/op holds.
		for _, m := range guardMetrics {
			bv, cv := m.values(base), m.values(current[k])
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			bMed, bSpread := medianSpread(bv)
			cMed, _ := medianSpread(cv)
			if bMed <= 0 {
				continue
			}
			change := 100 * (cMed - bMed) / bMed
			if change > tol && cMed-bMed > bSpread {
				if m.unit == "ns/op" && len(cv) == 1 && cMed <= slices.Max(bv)*(1+tol/100) {
					unresolved = append(unresolved, fmt.Sprintf("%s (procs=%d, %+.0f%%)", k.name, k.procs, change))
					continue
				}
				regressions++
				fmt.Printf("WARNING: %s (procs=%d) %s regressed %.1f%% (median %.0f -> %.0f over %d -> %d samples, tolerance %.0f%%, baseline spread %.0f)\n",
					k.name, k.procs, m.unit, change, bMed, cMed, len(bv), len(cv), tol, bSpread)
			}
		}
	}
	if len(skipped) > 0 {
		fmt.Printf("bench guard: %d benchmark(s) not compared, iterations per sample differ over %d× from the baseline's (baseline vs current median): %s\n",
			len(skipped), maxIterRatio, strings.Join(skipped, ", "))
	}
	if len(unresolved) > 0 {
		fmt.Printf("bench guard: %d ns/op comparison(s) unresolved, one current sample within %.0f%% of the baseline's slowest (current vs baseline median): %s\n",
			len(unresolved), tol, strings.Join(unresolved, ", "))
	}
	regressions += warnInvertedScaling(benches, baselineLedger.Cores)
	regressions += warnBudgetSpend(benches)
	regressions += warnScaleMemory(benches, baselineLedger, tol)
	regressions += warnAlertLatency(benches)
	if regressions == 0 {
		fmt.Printf("bench guard: no regression beyond %.0f%% vs %s\n", tol, prevPath)
	} else {
		fmt.Printf("bench guard: %d warning(s) — investigate before trusting the numbers (non-fatal)\n",
			regressions)
	}
	return regressions
}

// maxIterRatio bounds how far apart two sides' iteration counts may be
// for the guard to compare their per-op figures. A -benchtime 1x smoke
// sample pays first-run costs (cold caches, lazily grown scratch, one
// GC cycle) that a sample of thousands of iterations amortizes, so its
// per-op figures — bytes/op above all — are not comparable with it.
const maxIterRatio = 4

// comparableIterations reports the median iteration count of each
// side's samples and whether they are within maxIterRatio of each
// other.
func comparableIterations(base, cur []Benchmark) (baseIters, curIters int64, ok bool) {
	median := func(bs []Benchmark) int64 {
		its := make([]int64, len(bs))
		for i, b := range bs {
			its[i] = b.Iterations
		}
		slices.Sort(its)
		return its[len(its)/2]
	}
	bi, ci := median(base), median(cur)
	lo, hi := min(bi, ci), max(bi, ci)
	return bi, ci, hi <= maxIterRatio*lo
}

// benchKey identifies one benchmark across runs.
type benchKey struct {
	name  string
	procs int
}

// groupSamples collects each benchmark's samples (one per -count
// repetition), returning the keys in first-seen order.
func groupSamples(benches []Benchmark) (map[benchKey][]Benchmark, []benchKey) {
	groups := make(map[benchKey][]Benchmark, len(benches))
	var order []benchKey
	for _, b := range benches {
		k := benchKey{b.Name, b.Procs}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], b)
	}
	return groups, order
}

// guardMetric is one per-op figure the guard compares.
type guardMetric struct {
	unit string
	get  func(Benchmark) (float64, bool)
}

var guardMetrics = []guardMetric{
	{"ns/op", func(b Benchmark) (float64, bool) { return b.NsPerOp, true }},
	{"allocs/op", func(b Benchmark) (float64, bool) { return deref(b.AllocsPerOp) }},
	{"bytes/op", func(b Benchmark) (float64, bool) { return deref(b.BytesPerOp) }},
}

func deref(p *float64) (float64, bool) {
	if p == nil {
		return 0, false
	}
	return *p, true
}

// values returns the metric over the samples that report it.
func (m guardMetric) values(samples []Benchmark) []float64 {
	var vs []float64
	for _, b := range samples {
		if v, ok := m.get(b); ok {
			vs = append(vs, v)
		}
	}
	return vs
}

// medianSpread returns the median of vs and its interquartile spread
// Q3 − Q1, each quantile linearly interpolated between closest ranks.
func medianSpread(vs []float64) (median, spread float64) {
	sorted := slices.Clone(vs)
	slices.Sort(sorted)
	q := func(p float64) float64 {
		pos := p * float64(len(sorted)-1)
		lo := int(pos)
		if lo+1 >= len(sorted) {
			return sorted[lo]
		}
		return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
	}
	return q(0.5), q(0.75) - q(0.25)
}

// workersVariant splits "Benchmark.../workers=N" sub-benchmark names.
var workersVariant = regexp.MustCompile(`^(.+)/workers=(\d+)$`)

// warnInvertedScaling flags multi-worker sub-benchmarks that ran slower
// than their workers=1 sibling at GOMAXPROCS>1 — the signature of the
// engine paying coordination overhead without buying parallelism. At
// procs=1 the comparison is skipped: time-sharing one core cannot
// speed anything up, so parity there is expected, not a regression.
// baselineCores is the committed ledger's recorded effective core
// count: 1 means the CI runner is known single-core (a cgroup limit
// GOMAXPROCS doesn't see), so the whole check is suppressed — every
// "inverted" ratio there is the runner, not the engine.
func warnInvertedScaling(benches []Benchmark, baselineCores int) int {
	if baselineCores == 1 {
		// Not silent: the skipped check is itself a finding. Without
		// this line a clean guard run on a single-core ledger would
		// read as "scaling verified" when scaling was never measured.
		fmt.Println("note: scaling_unverified — baseline ledger was recorded on a single effective core (cores=1); inverted-scaling checks are skipped and no multi-worker speedup claim is implied")
		return 0
	}
	type key struct {
		prefix string
		procs  int
	}
	sequential := make(map[key]Benchmark)
	for _, b := range benches {
		if m := workersVariant.FindStringSubmatch(b.Name); m != nil && m[2] == "1" {
			sequential[key{m[1], b.Procs}] = b
		}
	}
	warnings := 0
	for _, b := range benches {
		m := workersVariant.FindStringSubmatch(b.Name)
		if m == nil || m[2] == "1" || b.Procs <= 1 {
			continue
		}
		base, ok := sequential[key{m[1], b.Procs}]
		if !ok || base.NsPerOp <= 0 {
			continue
		}
		if b.NsPerOp > base.NsPerOp {
			warnings++
			fmt.Printf("WARNING: %s (procs=%d) is slower than %s/workers=1 (%.0f > %.0f ns/op) — parallel engine scaling is inverted\n",
				b.Name, b.Procs, m[1], b.NsPerOp, base.NsPerOp)
		}
	}
	return warnings
}

// budgetVariant splits "Benchmark.../budget=N" sub-benchmark names.
var budgetVariant = regexp.MustCompile(`^(.+)/budget=(\d+)$`)

// warnBudgetSpend checks the probe-budget scheduler's spend contract
// within the current run: a budget=50 sub-benchmark must send at most
// 55% of its budget=100 sibling's probes_sent (5 points of slack for
// the full-rate exploration window before the scheduler's first
// recompute). Warn-only like the rest of the guard — but unlike ns/op
// this metric is deterministic, so a warning here is a real contract
// break, not noise.
func warnBudgetSpend(benches []Benchmark) int {
	type key struct {
		prefix string
		procs  int
	}
	full := make(map[key]float64)
	for _, b := range benches {
		if m := budgetVariant.FindStringSubmatch(b.Name); m != nil && m[2] == "100" {
			if sent, ok := b.Metrics["probes_sent"]; ok {
				full[key{m[1], b.Procs}] = sent
			}
		}
	}
	warnings := 0
	for _, b := range benches {
		m := budgetVariant.FindStringSubmatch(b.Name)
		if m == nil || m[2] != "50" {
			continue
		}
		sent, ok := b.Metrics["probes_sent"]
		if !ok {
			continue
		}
		base, ok := full[key{m[1], b.Procs}]
		if !ok || base <= 0 {
			continue
		}
		if frac := sent / base; frac > 0.55 {
			warnings++
			fmt.Printf("WARNING: %s (procs=%d) sent %.1f%% of %s/budget=100's probes (want ≤55%%) — the budget scheduler is overspending\n",
				b.Name, b.Procs, 100*frac, m[1])
		}
	}
	return warnings
}

// warnAlertLatency sanity-checks the streaming observatory's measured
// detection lag (BenchmarkAlertLatency's alert_latency_p50_s /
// alert_latency_p95_s): both quantiles must be positive, inside the
// experiment's one-week campaign window, and ordered p95 ≥ p50.
// Warn-only like the rest of the guard, but these metrics come from a
// deterministic virtual-time campaign, so a warning is a real contract
// break — the streaming detector stopped noticing planted congestion
// in time — not noise.
func warnAlertLatency(benches []Benchmark) int {
	const week = 7 * 24 * 3600 // campaign window, virtual seconds
	warnings := 0
	for _, b := range benches {
		p50, ok50 := b.Metrics["alert_latency_p50_s"]
		p95, ok95 := b.Metrics["alert_latency_p95_s"]
		if !ok50 && !ok95 {
			continue
		}
		if !ok50 || !ok95 {
			warnings++
			fmt.Printf("WARNING: %s (procs=%d) reports only one of alert_latency_p50_s/p95_s\n", b.Name, b.Procs)
			continue
		}
		if p50 <= 0 || p50 > week || p95 > week {
			warnings++
			fmt.Printf("WARNING: %s (procs=%d) alert latency outside (0, one week]: p50=%.0fs p95=%.0fs — planted congestion is not being alerted in-window\n",
				b.Name, b.Procs, p50, p95)
		}
		if p95 < p50 {
			warnings++
			fmt.Printf("WARNING: %s (procs=%d) alert latency quantiles inverted: p95=%.0fs < p50=%.0fs\n",
				b.Name, b.Procs, p95, p50)
		}
		if frac, ok := b.Metrics["alerted_fraction"]; ok && frac < 0.5 {
			warnings++
			fmt.Printf("WARNING: %s (procs=%d) alerted only %.0f%% of planted congested links (want ≥50%%)\n",
				b.Name, b.Procs, 100*frac)
		}
	}
	return warnings
}

// scaleVariant splits "Benchmark.../scale=N" sub-benchmark names.
var scaleVariant = regexp.MustCompile(`^(.+)/scale=([0-9.]+)$`)

// warnScaleMemory guards the sharded engine's resident-memory bound —
// warn-only like the rest of the guard, but the bytes_per_link metric
// is deterministic, so a warning is a real contract break, not noise.
// Two claims: within the current run, a scale>1 sub-benchmark must
// hold bytes_per_link at or below its scale=1 sibling (the sharded
// layout's bound against the paper-world figure); and against the
// committed ledger, bytes_per_link must not grow beyond tol percent
// at any scale.
func warnScaleMemory(benches []Benchmark, baseline Ledger, tol float64) int {
	type key struct {
		name  string
		procs int
	}
	base := make(map[key]float64)
	for _, b := range baseline.Benchmarks {
		if v, ok := b.Metrics["bytes_per_link"]; ok {
			base[key{b.Name, b.Procs}] = v
		}
	}
	unit := make(map[key]float64) // scale=1 sibling per prefix
	for _, b := range benches {
		if m := scaleVariant.FindStringSubmatch(b.Name); m != nil && m[2] == "1" {
			if v, ok := b.Metrics["bytes_per_link"]; ok {
				unit[key{m[1], b.Procs}] = v
			}
		}
	}
	warnings := 0
	for _, b := range benches {
		v, ok := b.Metrics["bytes_per_link"]
		if !ok {
			continue
		}
		if m := scaleVariant.FindStringSubmatch(b.Name); m != nil && m[2] != "1" {
			if ref, ok := unit[key{m[1], b.Procs}]; ok && ref > 0 && v > ref {
				warnings++
				fmt.Printf("WARNING: %s (procs=%d) holds %.0f resident bytes/link, above %s/scale=1's %.0f — the per-shard memory bound is broken\n",
					b.Name, b.Procs, v, m[1], ref)
			}
		}
		if ref, ok := base[key{b.Name, b.Procs}]; ok && ref > 0 {
			if change := 100 * (v - ref) / ref; change > tol {
				warnings++
				fmt.Printf("WARNING: %s (procs=%d) bytes_per_link regressed %.1f%% (%.0f -> %.0f, tolerance %.0f%%)\n",
					b.Name, b.Procs, change, ref, v, tol)
			}
		}
	}
	return warnings
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
