package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"afrixp/internal/loss"
	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
)

// runShortCampaign runs a 4-day mid-2016 campaign that exercises every
// concurrent code path: the window covers a Table 2 snapshot date
// (VP4, 2016-07-22) and the 1 pps loss campaigns (which begin
// 2016-07-19 + 2 days), so snapshot discovery, TSLP rounds, and loss
// batches all run.
func runShortCampaign(workers int) *Result {
	return runShortCampaignCfg(workers, 0)
}

// runShortCampaignCfg is runShortCampaign with the batch-planner cap
// pinned too — the second axis the chunked-campaign matrix sweeps.
func runShortCampaignCfg(workers, batchSteps int) *Result {
	return Run(Config{
		Opts: scenario.Options{Seed: 5, Scale: 0.1},
		Campaign: simclock.Interval{
			Start: simclock.Date(2016, time.July, 20),
			End:   simclock.Date(2016, time.July, 24),
		},
		Workers:    workers,
		BatchSteps: batchSteps,
	})
}

// summarizeResult is the summary the digest hashes, as text, for the
// determinism tests to compare and diff.
func summarizeResult(res *Result) string {
	var b strings.Builder
	if err := writeSummary(&b, res); err != nil {
		panic(err) // a strings.Builder never fails a write
	}
	return b.String()
}

// renderReports renders Table 1, Table 2, and the headline fraction as
// the CLI would print them.
func renderReports(t *testing.T, res *Result) string {
	t.Helper()
	var b bytes.Buffer
	if err := Table1Report(res).Render(&b); err != nil {
		t.Fatalf("table1: %v", err)
	}
	if err := Table2Report(res).Render(&b); err != nil {
		t.Fatalf("table2: %v", err)
	}
	rows, frac := Headline(res)
	fmt.Fprintf(&b, "headline=%x\n", bits(frac))
	for _, r := range rows {
		fmt.Fprintf(&b, "%s %d %d %x\n", r.VP, r.Links, r.Congested, bits(r.Fraction))
	}
	return b.String()
}

// firstDiff locates the first differing line of two multi-line strings.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  workers=1: %s\n  workers=8: %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(la), len(lb))
}

// TestParallelCampaignBitIdentical is the engine's core guarantee: a
// campaign probed and analyzed by 8 workers produces exactly the same
// numbers as the sequential run — every series value, verdict, shift,
// event, loss batch, and rendered report, compared at the bit level.
func TestParallelCampaignBitIdentical(t *testing.T) {
	seq := runShortCampaign(1)
	par := runShortCampaign(8)

	links := 0
	for _, vr := range seq.VPs {
		links += len(vr.Links)
	}
	if links == 0 {
		t.Fatal("campaign discovered no links; determinism check is vacuous")
	}

	if a, b := summarizeResult(seq), summarizeResult(par); a != b {
		t.Errorf("campaign results differ between workers=1 and workers=8\n%s", firstDiff(a, b))
	}
	if a, b := renderReports(t, seq), renderReports(t, par); a != b {
		t.Errorf("rendered reports differ between workers=1 and workers=8\n%s", firstDiff(a, b))
	}
}

// TestChunkedCampaignBitIdentical is the chunked campaign's guarantee:
// every series value, verdict scalar, shift, event, loss batch, loss
// grid, and rendered report is the same across the Workers ×
// BatchSteps matrix. The workers=1 batch=1 run is the reference; every
// other cell of {1, 8 workers} × {1, 4096 batch steps} must match it
// at the bit level. The collector's grids are checked against a flat
// min filter by TestCollectorMatchesFlatOracle in internal/analysis.
func TestChunkedCampaignBitIdentical(t *testing.T) {
	ref := runShortCampaignCfg(1, 1)
	links := 0
	for _, vr := range ref.VPs {
		links += len(vr.Links)
	}
	if links == 0 {
		t.Fatal("campaign discovered no links; equivalence check is vacuous")
	}
	checkLossGrids(t, ref)
	refSum, refRep := summarizeResult(ref), renderReports(t, ref)

	for _, workers := range []int{1, 8} {
		for _, batch := range []int{1, 4096} {
			if workers == 1 && batch == 1 {
				continue // the reference itself
			}
			res := runShortCampaignCfg(workers, batch)
			if got := summarizeResult(res); got != refSum {
				t.Errorf("workers=%d batch=%d: results differ from reference\n%s",
					workers, batch, firstDiff(refSum, got))
			}
			if got := renderReports(t, res); got != refRep {
				t.Errorf("workers=%d batch=%d: reports differ from reference\n%s",
					workers, batch, firstDiff(refRep, got))
			}
		}
	}
}

// checkLossGrids pins the loss grid the digest renders: gridding the
// completed batches with loss.ToSeries over the GridFor layout of the
// link's own loss window must drop no batch.
func checkLossGrids(t *testing.T, res *Result) {
	t.Helper()
	grids := 0
	for _, vr := range res.VPs {
		for _, lr := range vr.SortedLinks() {
			if lr.lossCol == nil {
				continue
			}
			grids++
			gridStart, gridStep, gridN := loss.GridFor(lr.lossIv)
			if _, dropped := loss.ToSeries(lr.LossBatches, gridStart, gridStep, gridN); dropped != 0 {
				t.Errorf("link %v: ToSeries dropped %d batches off its own grid", lr.Target, dropped)
			}
		}
	}
	if grids == 0 {
		t.Fatal("no loss grids collected; grid equivalence check is vacuous")
	}
}

// TestReanalyzeParallelMatchesSequential checks the analysis fan-out in
// isolation: re-deriving verdicts with many workers from one collected
// campaign must reproduce the sequential verdicts bit for bit.
func TestReanalyzeParallelMatchesSequential(t *testing.T) {
	res := runShortCampaign(1)
	before := summarizeResult(res)
	res.Reanalyze(8)
	if after := summarizeResult(res); before != after {
		t.Errorf("Reanalyze(8) changed verdicts\n%s", firstDiff(before, after))
	}
}
