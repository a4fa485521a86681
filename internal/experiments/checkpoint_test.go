package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"afrixp/internal/analysis"
	"afrixp/internal/budget"
	"afrixp/internal/checkpoint"
	"afrixp/internal/faults"
	"afrixp/internal/loss"
	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
	"afrixp/internal/tschunk"
)

// ckptInterval is the 4-day mid-2016 window every determinism test
// uses (snapshot discovery, TSLP rounds, and loss batches all run).
var ckptInterval = simclock.Interval{
	Start: simclock.Date(2016, time.July, 20),
	End:   simclock.Date(2016, time.July, 24),
}

// ckptCampaignCfg is the checkpoint matrix's campaign: fault plan and
// a 50% probe budget both enabled, so snapshots must carry outage
// accounting, CUSUM streams, rate ladders, and loss-round state.
func ckptCampaignCfg(workers, batchSteps, shards int) Config {
	return Config{
		Opts:       scenario.Options{Seed: 5, Scale: 0.1},
		Campaign:   ckptInterval,
		Workers:    workers,
		BatchSteps: batchSteps,
		Shards:     shards,
		Faults:     &faults.Config{},
		Budget:     &budget.Config{Fraction: 0.5, Seed: 1, RecomputeEvery: 6 * time.Hour},
	}
}

// requireNonVacuous fails unless the reference campaign exercises
// everything a snapshot serializes: discovered links, fault episodes,
// and budget skips.
func requireNonVacuous(t *testing.T, res *Result) {
	t.Helper()
	links, skipped := 0, 0
	for _, vr := range res.VPs {
		links += len(vr.Links)
		for _, lr := range vr.SortedLinks() {
			_, _, _, s := lr.Collector.Yield()
			skipped += s
		}
	}
	if links == 0 {
		t.Fatal("campaign discovered no links; checkpoint equivalence is vacuous")
	}
	if res.Faults == nil || len(res.Faults.Faults) == 0 {
		t.Fatal("campaign injected no fault episodes; checkpoint equivalence is vacuous")
	}
	if skipped == 0 {
		t.Fatal("budget scheduler skipped nothing; checkpoint equivalence is vacuous")
	}
}

// TestCheckpointResumeBitIdentical is the tentpole guarantee: a
// campaign that (a) writes barrier checkpoints and (b) is restarted
// from the newest checkpoint produces exactly the same numbers as an
// uninterrupted run — across the full Workers × BatchSteps × Shards
// matrix, with faults injected and a 50% probe budget installed.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	ref := Run(ckptCampaignCfg(1, 1, 0))
	requireNonVacuous(t, ref)
	refSum := summarizeResult(ref)

	for _, workers := range []int{1, 8} {
		for _, batch := range []int{1, 4096} {
			for _, shards := range []int{1, 4} {
				dir := t.TempDir()

				// Writing run: checkpoints on must not perturb results.
				cfg := ckptCampaignCfg(workers, batch, shards)
				cfg.CheckpointDir = dir
				cfg.CheckpointEvery = 30 * time.Hour
				if got := summarizeResult(Run(cfg)); got != refSum {
					t.Errorf("workers=%d batch=%d shards=%d: checkpointing perturbed the run\n%s",
						workers, batch, shards, firstDiff(refSum, got))
				}
				snap, err := checkpoint.LoadLatest(dir, nil)
				if err != nil || snap == nil {
					t.Fatalf("workers=%d batch=%d shards=%d: no checkpoint written: %v", workers, batch, shards, err)
				}
				if want := ckptInterval.Start.Add(90 * time.Hour); snap.Barrier != want {
					t.Fatalf("newest barrier %v, want %v", snap.Barrier, want)
				}

				// Resumed run: replay to the newest barrier, restore,
				// probe the tail — bit-identical to never stopping.
				cfg.ResumeFrom = dir
				if got := summarizeResult(Run(cfg)); got != refSum {
					t.Errorf("workers=%d batch=%d shards=%d: resumed run differs\n%s",
						workers, batch, shards, firstDiff(refSum, got))
				}
			}
		}
	}
}

// TestResumeFallsBackPastTruncatedCheckpoint pins SIGKILL-mid-write
// recovery: when the newest snapshot is truncated (what a kill during
// the write leaves), resume must fall back to the previous barrier
// snapshot and still finish bit-identical to an uninterrupted run.
func TestResumeFallsBackPastTruncatedCheckpoint(t *testing.T) {
	ref := Run(ckptCampaignCfg(1, 1, 0))
	requireNonVacuous(t, ref)
	refSum := summarizeResult(ref)

	dir := t.TempDir()
	cfg := ckptCampaignCfg(8, 4096, 2)
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 30 * time.Hour
	if got := summarizeResult(Run(cfg)); got != refSum {
		t.Fatalf("writing run differs from reference\n%s", firstDiff(refSum, got))
	}

	// Truncate the newest snapshot mid-payload.
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.bin"))
	if err != nil || len(names) < 2 {
		t.Fatalf("want ≥2 checkpoint files to fall back across, have %v (%v)", names, err)
	}
	newest := names[len(names)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	snap, err := checkpoint.LoadLatest(dir, nil)
	if err != nil || snap == nil {
		t.Fatalf("no fallback snapshot after truncation: %v", err)
	}
	if want := ckptInterval.Start.Add(60 * time.Hour); snap.Barrier != want {
		t.Fatalf("fallback barrier %v, want the previous barrier %v", snap.Barrier, want)
	}

	var progress bytes.Buffer
	cfg.ResumeFrom = dir
	cfg.Progress = &progress
	if got := summarizeResult(Run(cfg)); got != refSum {
		t.Errorf("resume after truncation differs\n%s", firstDiff(refSum, got))
	}
	if !strings.Contains(progress.String(), "replaying to checkpoint barrier") {
		t.Errorf("resume did not replay from a checkpoint; progress:\n%s", progress.String())
	}
}

// TestResumeRefusesWrongRun pins the manifest check: resuming a
// checkpoint onto a campaign with a different seed must fail loudly,
// never silently diverge or quietly start fresh.
func TestResumeRefusesWrongRun(t *testing.T) {
	dir := t.TempDir()
	cfg := ckptCampaignCfg(8, 0, 0)
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 30 * time.Hour
	Run(cfg)

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("resuming onto a different seed must panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "different run") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	wrong := ckptCampaignCfg(8, 0, 0)
	wrong.Opts.Seed = 6
	wrong.ResumeFrom = dir
	Run(wrong)
}

// TestResumeFromEmptyDirStartsFresh: a resume pointed at a directory
// with no checkpoints is a fresh start, not an error.
func TestResumeFromEmptyDirStartsFresh(t *testing.T) {
	ref := Run(ckptCampaignCfg(1, 1, 0))
	cfg := ckptCampaignCfg(8, 0, 0)
	cfg.ResumeFrom = t.TempDir()
	if a, b := summarizeResult(ref), summarizeResult(Run(cfg)); a != b {
		t.Errorf("fresh-start resume differs from plain run\n%s", firstDiff(a, b))
	}
}

// writeSnapshot writes snap into a fresh directory and returns the
// file's bytes.
func writeSnapshot(t *testing.T, snap *checkpoint.Snapshot) []byte {
	t.Helper()
	dir := t.TempDir()
	if _, err := checkpoint.Write(dir, snap); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.bin"))
	if err != nil || len(names) != 1 {
		t.Fatalf("want one checkpoint file, have %v (%v)", names, err)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCaptureReuseMatchesFresh: capture refills one snapshot across
// barriers. Before each capture every slot the reused snapshot holds,
// to the capacity of its slices, is poisoned; between captures VPs
// discover links, so link slices grow. The refilled snapshot must
// still write the same file as one built from nothing.
func TestCaptureReuseMatchesFresh(t *testing.T) {
	cfg := ckptCampaignCfg(1, 4096, 2).withDefaults()
	e := newEngine(cfg)
	for _, vr := range e.res.VPs {
		e.discover(vr, cfg.Campaign.Start, false)
	}
	e.startProbing()
	defer e.pool.close()

	poison := func(snap *checkpoint.Snapshot) {
		snap.Budget = nil
		vps := snap.VPs[:cap(snap.VPs)]
		for vi := range vps {
			vps[vi].RoundsDown = -1
			slots := vps[vi].Links[:cap(vps[vi].Links)]
			for li := range slots {
				slots[li] = checkpoint.LinkState{
					Collector: analysis.CollectorState{FullNearB: tschunk.BuilderState{N: -1, CurBlock: []byte{1}},
						FullFarB: tschunk.BuilderState{N: -1}, MissedRounds: -1},
					Loss: &loss.CollectorState{Skipped: -1},
				}
			}
		}
	}
	links := func() []int {
		n := make([]int, len(e.res.VPs))
		for i, vr := range e.res.VPs {
			n[i] = len(vr.records)
		}
		return n
	}
	captures, grew, lossSlots := 0, false, 0
	var last []int
	next := cfg.Campaign.Start
	open := func(t0 simclock.Time) {
		e.open(t0)
		if t0 < next {
			return
		}
		next = t0.Add(12 * time.Hour)
		reused := e.snap
		e.snap = checkpoint.Snapshot{}
		want := writeSnapshot(t, e.capture(t0))
		e.snap = reused
		poison(&e.snap)
		if got := writeSnapshot(t, e.capture(t0)); !bytes.Equal(got, want) {
			t.Fatalf("barrier %v: the refilled snapshot writes %d bytes that differ from a fresh one's %d",
				t0, len(got), len(want))
		}
		now := links()
		for i := range now {
			grew = grew || (last != nil && now[i] > last[i])
		}
		for _, vs := range e.snap.VPs {
			for _, ls := range vs.Links {
				if ls.Loss != nil {
					lossSlots++
				}
			}
		}
		last = now
		captures++
	}
	cfg.Campaign.StepBatches(cfg.Step, cfg.BatchSteps, open, e.quiescent, e.flush)
	if captures < 4 || !grew || lossSlots == 0 {
		t.Fatalf("vacuous: %d captures, link set grew %v, %d loss slots", captures, grew, lossSlots)
	}
}
