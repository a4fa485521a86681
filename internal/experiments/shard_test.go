package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
	"afrixp/internal/telemetry"
	"afrixp/internal/tschunk"
	"afrixp/internal/worldgen"
)

// runShardCampaign is the 4-day paper-world short campaign with the
// sharded engine installed.
func runShardCampaign(workers, batchSteps, shards int, tele *telemetry.Telemetry) *Result {
	return Run(Config{
		Opts: scenario.Options{Seed: 5, Scale: 0.1},
		Campaign: simclock.Interval{
			Start: simclock.Date(2016, time.July, 20),
			End:   simclock.Date(2016, time.July, 24),
		},
		Workers:    workers,
		BatchSteps: batchSteps,
		Shards:     shards,
		Telemetry:  tele,
	})
}

// TestShardedCampaignBitIdentical: sharding is a memory/scheduling
// change only — a sharded campaign must reproduce the unsharded one at
// the bit level for any shard and worker count.
func TestShardedCampaignBitIdentical(t *testing.T) {
	ref := runShortCampaignCfg(1, 1)
	refSum, refRep := summarizeResult(ref), renderReports(t, ref)

	for _, shards := range []int{2, 4} {
		for _, workers := range []int{1, 8} {
			res := runShardCampaign(workers, 0, shards, nil)
			if got := summarizeResult(res); got != refSum {
				t.Errorf("shards=%d workers=%d: results differ from unsharded reference\n%s",
					shards, workers, firstDiff(refSum, got))
			}
			if got := renderReports(t, res); got != refRep {
				t.Errorf("shards=%d workers=%d: reports differ from unsharded reference\n%s",
					shards, workers, firstDiff(refRep, got))
			}
		}
	}
}

// TestShardedTelemetryGauges: the sharded engine publishes per-shard
// gauges — links owned, rounds scheduled, resident series bytes — that
// must sum to the campaign totals, and the report must render them.
func TestShardedTelemetryGauges(t *testing.T) {
	tele := telemetry.New()
	res := runShardCampaign(4, 0, 4, tele)

	snap := tele.Snapshot()
	if len(snap.Engine.Shards) != 4 {
		t.Fatalf("snapshot has %d shard gauges, want 4", len(snap.Engine.Shards))
	}
	var links, rounds, resident int64
	for _, sh := range snap.Engine.Shards {
		if sh.ResidentBytes <= 0 {
			t.Errorf("shard %d: resident bytes %d, want > 0", sh.Shard, sh.ResidentBytes)
		}
		if sh.LinksOwned <= 0 {
			t.Errorf("shard %d: links owned %d, want > 0", sh.Shard, sh.LinksOwned)
		}
		links += sh.LinksOwned
		rounds += sh.Rounds
		resident += sh.ResidentBytes
	}
	var wantLinks, wantRounds int64
	for _, vr := range res.VPs {
		wantLinks += int64(len(vr.Links))
		wantRounds += int64(vr.RoundsScheduled)
	}
	if links != wantLinks {
		t.Errorf("shard gauges own %d links, campaign discovered %d", links, wantLinks)
	}
	if rounds != wantRounds {
		t.Errorf("shard gauges scheduled %d rounds, campaign scheduled %d", rounds, wantRounds)
	}

	var b bytes.Buffer
	tele.WriteReport(&b)
	if !strings.Contains(b.String(), "shard 0:") {
		t.Errorf("telemetry report lacks shard lines:\n%s", b.String())
	}

	// An unsharded campaign runs one shard, so one gauge, per VP.
	tele2 := telemetry.New()
	res2 := runShardCampaign(4, 0, 0, tele2)
	if n := len(tele2.Snapshot().Engine.Shards); n != len(res2.VPs) {
		t.Errorf("unsharded campaign published %d shard gauges, want one per VP (%d)", n, len(res2.VPs))
	}
}

// privateScratchBytes is tschunk's worst-case encoded block
// (worstBlockBytes): the encode scratch every builder held in the
// retired private-arena layout.
const privateScratchBytes = 2474

// residentBytesPrivate is the resident series bytes the retired
// private-arena layout held for the same links, computed from the grid
// sizes: per link, two builders each with a 4n+16-byte arena reserve
// for its n-slot grid, an encode scratch and a raw open block, plus
// the flat full-resolution window on case links.
func residentBytesPrivate(res *Result) int64 {
	var n int64
	for _, vr := range res.VPs {
		for _, lr := range vr.SortedLinks() {
			_, _, slots := lr.Collector.AggSpan()
			n += 2 * int64(4*slots+16+privateScratchBytes+8*tschunk.BlockLen)
			if near, far := lr.Collector.FullRes(); near != nil {
				n += 8 * int64(near.Len()+far.Len())
			}
		}
	}
	return n
}

// TestShardedMemoryBounded: sealing a shard's collectors into one
// shared arena must not cost more resident series bytes per link than
// the private-arena layout (it saves the per-builder encode scratch).
func TestShardedMemoryBounded(t *testing.T) {
	ref := runShortCampaignCfg(1, 1)
	refResident := residentBytesPrivate(ref)
	refLinks := int64(0)
	for _, vr := range ref.VPs {
		refLinks += int64(len(vr.Links))
	}
	if refLinks == 0 || refResident == 0 {
		t.Fatal("reference campaign has no links or no resident bytes")
	}

	tele := telemetry.New()
	runShardCampaign(1, 1, 4, tele)
	var resident, links int64
	for _, sh := range tele.Snapshot().Engine.Shards {
		resident += sh.ResidentBytes
		links += sh.LinksOwned
	}
	if links != refLinks {
		t.Fatalf("sharded campaign owns %d links, reference %d", links, refLinks)
	}
	sharded := float64(resident) / float64(links)
	private := float64(refResident) / float64(refLinks)
	if sharded > private {
		t.Errorf("sharded resident bytes/link %.0f exceeds private %.0f", sharded, private)
	}
	t.Logf("bytes/link: sharded %.0f, private %.0f", sharded, private)
}

// TestGeneratedWorldShardMatrix is the continent-scale acceptance
// gate: a 100×-scale generated world (≥ 30 IXPs, ≥ 10^4 interdomain
// links) runs the sharded campaign bit-identically across the full
// Workers × BatchSteps × Shards matrix, and the sharded runs stay
// within the unsharded memory-per-link figure. Probing is truncated to
// a deterministic 48-VP prefix to keep the 8-cell matrix tractable;
// world-scale assertions run on the full generated world. Skipped in
// -short and under the race detector (scripts/ci.sh races the 10×
// generated-world smoke instead).
func TestGeneratedWorldShardMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("100× matrix skipped in -short")
	}
	if raceEnabled {
		t.Skip("100× matrix skipped under race detector")
	}

	st := worldgen.StatsOf(worldgen.Generate(worldgen.Options{Seed: 11, Scale: 100}))
	if st.IXPs < 30 {
		t.Fatalf("100× world has %d IXPs, want ≥ 30", st.IXPs)
	}
	if st.InterdomainLinks < 10_000 {
		t.Fatalf("100× world has %d interdomain links, want ≥ 10^4", st.InterdomainLinks)
	}

	// Each campaign run advances its world's event clock, so every run
	// regenerates the (deterministic) world rather than sharing one.
	genWorld := func() *scenario.World {
		w := worldgen.Generate(worldgen.Options{Seed: 11, Scale: 100})
		if len(w.VPs) > 48 {
			w.VPs = w.VPs[:48]
		}
		return w
	}

	run := func(workers, batch, shards int, tele *telemetry.Telemetry) *Result {
		return Run(Config{
			BuildWorld: genWorld,
			Campaign: simclock.Interval{
				Start: simclock.Date(2016, time.July, 20),
				End:   simclock.Date(2016, time.July, 21),
			},
			Workers:    workers,
			BatchSteps: batch,
			Shards:     shards,
			Telemetry:  tele,
		})
	}

	ref := run(1, 1, 1, nil)
	probed := 0
	for _, vr := range ref.VPs {
		probed += len(vr.Links)
	}
	if probed < 2000 {
		t.Fatalf("campaign probed %d links, want ≥ 2000", probed)
	}
	refSum := summarizeResult(ref)
	privatePerLink := float64(residentBytesPrivate(ref)) / float64(probed)

	for _, workers := range []int{1, 8} {
		for _, batch := range []int{1, 4096} {
			for _, shards := range []int{1, 4} {
				if workers == 1 && batch == 1 && shards == 1 {
					continue // the reference itself
				}
				tele := telemetry.New()
				res := run(workers, batch, shards, tele)
				if got := summarizeResult(res); got != refSum {
					t.Fatalf("workers=%d batch=%d shards=%d: results differ from reference\n%s",
						workers, batch, shards, firstDiff(refSum, got))
				}
				if shardSnaps := tele.Snapshot().Engine.Shards; len(shardSnaps) > 0 {
					var resident, links int64
					for _, sh := range shardSnaps {
						resident += sh.ResidentBytes
						links += sh.LinksOwned
					}
					if perLink := float64(resident) / float64(links); perLink > privatePerLink {
						t.Errorf("workers=%d batch=%d shards=%d: %.0f resident bytes/link exceeds private %.0f",
							workers, batch, shards, perLink, privatePerLink)
					}
				}
			}
		}
	}
}

// TestGeneratedWorldRecall round-trips the planted ground truth: a
// short campaign over a 10× generated world must discover the
// annotated links and detect a solid majority of the planted
// congestion at the paper's 10 ms operating point. The window spans
// seven days because the diurnal gate needs MinDays (5) evaluable
// days of folded profile before it will confirm a recurring pattern.
func TestGeneratedWorldRecall(t *testing.T) {
	res := Run(Config{
		BuildWorld: func() *scenario.World {
			return worldgen.Generate(worldgen.Options{Seed: 7, Scale: 10})
		},
		Campaign: simclock.Interval{
			Start: simclock.Date(2016, time.July, 20),
			End:   simclock.Date(2016, time.July, 27),
		},
		Workers: 8,
		Shards:  2,
	})
	truth, detected, _ := budgetRecall(res)
	if truth < 10 {
		t.Fatalf("campaign saw %d annotated truth links, want ≥ 10 (planted ground truth not discovered)", truth)
	}
	recall := float64(detected) / float64(truth)
	t.Logf("planted ground truth: %d/%d detected (recall %.2f)", detected, truth, recall)
	if recall < 0.6 {
		t.Errorf("recall %.2f below 0.6: planted congestion is not detectable", recall)
	}
}
