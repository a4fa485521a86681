package analysis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"afrixp/internal/prober"
	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
	"afrixp/internal/tschunk"
)

// collectorStream is one random probing stream: times march forward
// from before the campaign to past its end, in jumps of 0–40 minutes
// (so a 30-minute bin gets zero, one or several hits), with lost near
// and far samples and RTTs drawn from a small set so ties are common.
func collectorStream(rng *rand.Rand, campaign simclock.Interval) []prober.Sample {
	rtts := make([]simclock.Duration, 1+rng.Intn(8))
	for i := range rtts {
		rtts[i] = simclock.Duration(rng.Int63n(int64(200 * time.Millisecond)))
	}
	var out []prober.Sample
	for t := campaign.Start.Add(-time.Duration(rng.Intn(120)) * time.Minute); t < campaign.End.Add(2*time.Hour); {
		out = append(out, prober.Sample{
			At:       t,
			NearRTT:  rtts[rng.Intn(len(rtts))],
			FarRTT:   rtts[rng.Intn(len(rtts))],
			NearLost: rng.Intn(5) == 0,
			FarLost:  rng.Intn(4) == 0,
		})
		// Now and then a round lands back in time, inside the open
		// block, so a bin the stream already left is merged again.
		if back := t.Add(-time.Duration(1+rng.Intn(40)) * time.Minute); rng.Intn(6) == 0 &&
			back >= campaign.Start && sameBlock(campaign.Start, back, t) {
			out = append(out, prober.Sample{At: back, NearRTT: rtts[rng.Intn(len(rtts))],
				FarRTT: rtts[rng.Intn(len(rtts))]})
		}
		t = t.Add(time.Duration(rng.Intn(41)) * time.Minute)
	}
	return out
}

// sameBlock reports whether a and b fall in the same tschunk block of
// the aggregated grid starting at start.
func sameBlock(start, a, b simclock.Time) bool {
	block := func(t simclock.Time) int64 {
		return int64(t.Sub(start) / DefaultAggStep / tschunk.BlockLen)
	}
	return a >= start && b >= start && block(a) == block(b)
}

// flatMinFilter is the oracle: the collector's binning and min filter
// written out over flat grids.
type flatMinFilter struct {
	start     simclock.Time
	near, far []float64
}

func newFlatMinFilter(campaign simclock.Interval) *flatMinFilter {
	n := campaign.NumSteps(DefaultAggStep)
	f := &flatMinFilter{start: campaign.Start, near: make([]float64, n), far: make([]float64, n)}
	for i := range f.near {
		f.near[i], f.far[i] = timeseries.Missing, timeseries.Missing
	}
	return f
}

func (f *flatMinFilter) record(s prober.Sample) {
	merge := func(dst []float64, lost bool, rtt simclock.Duration) {
		if lost || s.At < f.start {
			return
		}
		ms := float64(rtt) / float64(time.Millisecond)
		if i := int(s.At.Sub(f.start) / DefaultAggStep); i < len(dst) && (timeseries.IsMissing(dst[i]) || ms < dst[i]) {
			dst[i] = ms
		}
	}
	merge(f.near, s.NearLost, s.NearRTT)
	merge(f.far, s.FarLost, s.FarRTT)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// seriesValues decodes a series' whole grid.
func seriesValues(s *timeseries.Series) []float64 {
	out := make([]float64, 0, s.Len())
	s.Each(func(_ int, vals []float64) { out = append(out, vals...) })
	return out
}

// copyAll reads the collector's whole grid through CopyAgg.
func copyAll(c *Collector, n int) (near, far []float64) {
	near, far = make([]float64, n), make([]float64, n)
	c.CopyAgg(0, near, far)
	return near, far
}

// TestCollectorMatchesFlatOracle checks the compressed collector
// against a flat min filter, bit for bit: mid-stream through CopyAgg,
// after sealing through Series and a sealed CopyAgg, and on a fresh
// collector restored from a mid-stream Checkpoint and fed the rest of
// the stream.
func TestCollectorMatchesFlatOracle(t *testing.T) {
	f := func(seed int64, startMin uint16, slots uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		start := simclock.Time(0).Add(time.Duration(startMin) * time.Minute)
		campaign := simclock.Interval{Start: start,
			End: start.Add(time.Duration(slots%700+1) * DefaultAggStep)}
		cfg := CollectorConfig{Campaign: campaign}
		ts := &prober.TSLP{}
		col := NewCollector(ts, cfg)
		ref := newFlatMinFilter(campaign)
		_, _, n := col.AggSpan()
		if n != len(ref.near) {
			t.Logf("grid %d slots, oracle %d", n, len(ref.near))
			return false
		}

		stream := collectorStream(rng, campaign)
		cut := rng.Intn(len(stream) + 1)
		var restored *Collector
		for k, s := range stream {
			if k == cut {
				near, far := copyAll(col, n)
				if !sameBits(near, ref.near) || !sameBits(far, ref.far) {
					t.Logf("seed %d: mid-stream CopyAgg differs at sample %d", seed, k)
					return false
				}
				restored = NewCollector(ts, cfg)
				restored.RestoreCheckpoint(col.Checkpoint())
			}
			col.recordSample(s.At, s)
			if restored != nil {
				restored.recordSample(s.At, s)
			}
			ref.record(s)
		}
		if restored == nil {
			restored = NewCollector(ts, cfg)
			restored.RestoreCheckpoint(col.Checkpoint())
		}

		a1, f1, _, _ := col.Yield()
		if a2, f2, _, _ := restored.Yield(); a1 != a2 || f1 != f2 {
			t.Logf("seed %d: restored yield %d/%d, live %d/%d", seed, f2, a2, f1, a1)
			return false
		}
		for _, c := range []*Collector{col, restored} {
			near, far := copyAll(c, n)
			if !sameBits(near, ref.near) || !sameBits(far, ref.far) {
				t.Logf("seed %d: CopyAgg before sealing differs", seed)
				return false
			}
			ls := c.Series()
			for _, p := range []struct {
				got  *timeseries.Series
				want []float64
			}{{ls.Near, ref.near}, {ls.Far, ref.far}} {
				if p.got.Start != start || p.got.Step != DefaultAggStep || p.got.Len() != n {
					t.Logf("seed %d: sealed series shape %v/%v×%d", seed,
						p.got.Start, p.got.Step, p.got.Len())
					return false
				}
				if !sameBits(seriesValues(p.got), p.want) {
					t.Logf("seed %d: sealed series differs", seed)
					return false
				}
			}
			from := rng.Intn(n)
			near, far = make([]float64, n-from), make([]float64, n-from)
			c.CopyAgg(from, near, far)
			if !sameBits(near, ref.near[from:]) || !sameBits(far, ref.far[from:]) {
				t.Logf("seed %d: sealed CopyAgg from %d differs", seed, from)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSharedArenaBlockSealZeroAlloc pins the block seal under the
// zero-alloc claim: collectors on one shared arena with room reserved,
// driven across block boundaries of the aggregated grids and the
// full-resolution windows, compress and seal those blocks into the
// slab without touching the heap.
func TestSharedArenaBlockSealZeroAlloc(t *testing.T) {
	campaign := simclock.Interval{Start: 0, End: simclock.Time(30 * 24 * time.Hour)}
	arena := tschunk.NewArena(1 << 20)
	cols := make([]*Collector, 4)
	for i := range cols {
		cols[i] = NewCollector(&prober.TSLP{}, CollectorConfig{
			Campaign: campaign, FullResWindow: campaign, Arena: arena})
	}
	at, k := campaign.Start, 0
	// One run is one aggregated block: BlockLen 30-minute bins of six
	// 5-minute rounds each, with moving RTTs so blocks encode to more
	// than a bit per slot.
	block := func() {
		for i := 0; i < tschunk.BlockLen*6; i++ {
			k++
			s := prober.Sample{
				NearRTT: time.Duration(1000+k%7) * time.Microsecond,
				FarRTT:  time.Duration(20000+(k*7919)%9973) * time.Microsecond,
				FarLost: k%11 == 0,
			}
			for _, c := range cols {
				c.recordSample(at, s)
			}
			at = at.Add(5 * time.Minute)
		}
	}
	sealed, capBefore := arena.Len(), arena.Cap()
	if avg := testing.AllocsPerRun(3, block); avg != 0 {
		t.Errorf("probing across block boundaries makes %v heap allocations per block; want 0", avg)
	}
	if arena.Len() == sealed || arena.Cap() != capBefore {
		t.Errorf("arena went from %d/%d to %d/%d bytes used/reserved; the seal claim is vacuous or the reserve grew",
			sealed, capBefore, arena.Len(), arena.Cap())
	}
}
