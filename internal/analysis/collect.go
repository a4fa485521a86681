package analysis

import (
	"time"

	"afrixp/internal/prober"
	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
	"afrixp/internal/tschunk"
)

// Collector streams one link's TSLP rounds into RTT series. To keep a
// year-long multi-VP campaign in memory, samples land directly in
// min-filtered bins of DefaultAggStep (the resolution the level-shift
// detector runs at), and the bins live in
// XOR-compressed tschunk builders — probing writes march strictly
// forward in virtual time, so each 256-bin block compresses exactly
// once as the frontier passes it (DESIGN.md §12). An optional
// full-resolution window retains native 5-minute samples for the
// case-study figures in two more builders on the same arena.
type Collector struct {
	TSLP *prober.TSLP

	nearB, farB *tschunk.Builder
	aggStart    simclock.Time
	nAgg        int
	nearS, farS *timeseries.Series // sealed views, cached by seal
	// fullNearB/fullFarB retain native-resolution samples inside
	// window (nil when no window is configured); fullNear/fullFar are
	// their sealed views.
	fullNearB, fullFarB *tschunk.Builder
	fullNear, fullFar   *timeseries.Series
	window              simclock.Interval
	step                simclock.Duration

	// farLossRounds / farRounds track round-level far loss for the
	// "probes unsuccessful" signal; missedRounds counts rounds that
	// never ran because the vantage point itself was down;
	// skippedRounds counts rounds the probe-budget scheduler elected
	// not to run (a deliberate saving, not an outage).
	farRounds, farLostRounds, missedRounds, skippedRounds int

	// bin is the aggregated slot of [binStart, binEnd), the bin the
	// last round landed in: rounds march forward in time, so most
	// rounds reuse it instead of dividing (an empty range until then).
	bin              int
	binStart, binEnd simclock.Time
}

// CollectorConfig sizes a Collector.
type CollectorConfig struct {
	// Campaign is the full probing interval.
	Campaign simclock.Interval
	// Step is the probing cadence (default 5 minutes).
	Step simclock.Duration
	// FullResWindow, when non-degenerate, retains native-resolution
	// series over the given sub-interval (for figures).
	FullResWindow simclock.Interval
	// Arena, when non-nil, is the page arena every builder of the
	// collector seals into — the campaign engine hands every shard one
	// Arena so a shard's series memory is bounded and accountable in
	// one place.
	// nil gives each builder an arena of its own (standalone
	// collectors). The sample values are bit-identical either way;
	// only the byte store moves.
	Arena *tschunk.Arena
}

// DefaultAggStep is the collector's bin width: the 30-minute
// resolution the level-shift detector runs at. Offline replay bins
// at the same width so it reaches the live grid.
const DefaultAggStep = 30 * time.Minute

func (c CollectorConfig) withDefaults() CollectorConfig {
	if c.Step <= 0 {
		c.Step = 5 * time.Minute
	}
	return c
}

// NewCollector builds a collector for one TSLP session. The builders
// reserve their share of the arena here, at discovery, so the
// per-sample write path never allocates; sealing a block allocates
// only when the reserved pages are full, and then one fixed page,
// never a copy of the sealed bytes (tschunk.Arena.Reserve).
func NewCollector(ts *prober.TSLP, cfg CollectorConfig) *Collector {
	cfg = cfg.withDefaults()
	nAgg := cfg.Campaign.NumSteps(DefaultAggStep)
	c := &Collector{
		TSLP:     ts,
		aggStart: cfg.Campaign.Start,
		nAgg:     nAgg,
		window:   cfg.FullResWindow,
		step:     cfg.Step,
		nearB:    tschunk.NewBuilderArena(nAgg, cfg.Arena),
		farB:     tschunk.NewBuilderArena(nAgg, cfg.Arena),
	}
	if cfg.FullResWindow.Duration() > 0 {
		n := cfg.FullResWindow.NumSteps(cfg.Step)
		c.fullNearB = tschunk.NewBuilderArena(n, cfg.Arena)
		c.fullFarB = tschunk.NewBuilderArena(n, cfg.Arena)
	}
	return c
}

// aggIndex maps t onto the aggregated grid, or -1 off-grid — the same
// clamping Series.Index applies.
func (c *Collector) aggIndex(t simclock.Time) int {
	if t < c.aggStart {
		return -1
	}
	i := int(t.Sub(c.aggStart) / DefaultAggStep)
	if i >= c.nAgg {
		return -1
	}
	return i
}

// Round probes the link once and records the result.
func (c *Collector) Round(t simclock.Time) {
	c.recordSample(t, c.TSLP.Round(t))
}

// FarSample is the far end of a recorded round, which the budget
// scheduler's utility tap reads. It has two fields, not a
// prober.Sample's five, because the compiler keeps a struct of at most
// four fields in registers; a larger one is copied through the stack
// on every round.
type FarSample struct {
	FarRTT  simclock.Duration
	FarLost bool
}

// RoundFrozen probes the link once through the frozen-frontier sampler
// (see prober.TSLP.RoundFrozen) and records the result. The far end is
// also returned so the caller can feed schedulers (the budget
// scheduler's utility tap) without a second probe. Used by the
// parallel campaign engine after the per-step queue advance.
func (c *Collector) RoundFrozen(t simclock.Time) FarSample {
	near, far, nearLost, farLost := c.TSLP.RoundFrozen(t)
	c.record(t, near, far, nearLost, farLost)
	return FarSample{FarRTT: far, FarLost: farLost}
}

// recordSample records a round's Sample.
func (c *Collector) recordSample(t simclock.Time, s prober.Sample) {
	c.record(t, s.NearRTT, s.FarRTT, s.NearLost, s.FarLost)
}

// record banks one round: the round accounting, then each delivered
// RTT min-merged into its aggregated bin and, inside the
// full-resolution window, set into its native slot. Both slots are
// computed once per round; a slot off its grid is -1.
func (c *Collector) record(t simclock.Time, near, far simclock.Duration, nearLost, farLost bool) {
	c.farRounds++
	if farLost {
		c.farLostRounds++
		if nearLost {
			return
		}
	}
	if t < c.binStart || t >= c.binEnd {
		c.bin = c.aggIndex(t)
		c.binStart, c.binEnd = 0, 0
		if c.bin >= 0 {
			c.binStart = c.aggStart.Add(simclock.Duration(c.bin) * DefaultAggStep)
			c.binEnd = c.binStart.Add(DefaultAggStep)
		}
	}
	agg, full := c.bin, -1
	if c.fullNearB != nil && c.window.Contains(t) {
		// The slot Series.SetAt would pick; off-grid times are dropped.
		if i := int(t.Sub(c.window.Start) / c.step); i < c.fullNearB.Len() {
			full = i
		}
	}
	if !nearLost {
		bank(c.nearB, c.fullNearB, agg, full, near)
	}
	if !farLost {
		bank(c.farB, c.fullFarB, agg, full, far)
	}
}

// bank writes one delivered RTT, in milliseconds, into its aggregated
// bin (streaming min filter) and its full-resolution slot.
func bank(aggB, fullB *tschunk.Builder, agg, full int, rtt simclock.Duration) {
	ms := float64(rtt) / float64(time.Millisecond)
	if agg >= 0 {
		aggB.MergeMin(agg, ms)
	}
	if full >= 0 {
		fullB.Set(full, ms)
	}
}

// seal compresses every builder and caches the sealed views. Sealing
// appends to the arena, so on a shared arena it follows the arena's
// single-writer rule; the campaign engine seals every collector
// serially before its analysis fan-out.
func (c *Collector) seal() {
	if c.nearS != nil {
		return
	}
	c.nearS = timeseries.FromChunk(c.aggStart, DefaultAggStep, c.nearB.Seal())
	c.farS = timeseries.FromChunk(c.aggStart, DefaultAggStep, c.farB.Seal())
	if c.fullNearB != nil {
		c.fullNear = timeseries.FromChunk(c.window.Start, c.step, c.fullNearB.Seal())
		c.fullFar = timeseries.FromChunk(c.window.Start, c.step, c.fullFarB.Seal())
	}
}

// Series returns the aggregated link series for analysis. The first
// call (or FullRes) seals the builders (the campaign engine analyzes
// only after probing ends); the sealed views are cached, so repeated
// calls return the same series.
func (c *Collector) Series() LinkSeries {
	c.seal()
	return LinkSeries{Target: c.TSLP.Target, Near: c.nearS, Far: c.farS}
}

// AggSpan returns the aggregated grid geometry: the grid origin, the
// bin width, and the slot count.
func (c *Collector) AggSpan() (start simclock.Time, step simclock.Duration, n int) {
	return c.aggStart, DefaultAggStep, c.nAgg
}

// FinalizedBefore returns how many leading aggregated slots can no
// longer change once every probing step strictly before t has run:
// exactly the bins whose window closes at or before t. The streaming
// observatory feeds its detectors from this frontier at batch
// barriers — samples land min-filtered into a bin until virtual time
// passes its end, so only closed bins are safe to read incrementally.
func (c *Collector) FinalizedBefore(t simclock.Time) int {
	if t <= c.aggStart {
		return 0
	}
	n := int(t.Sub(c.aggStart) / DefaultAggStep)
	if n > c.nAgg {
		n = c.nAgg
	}
	return n
}

// CopyAgg copies aggregated slots [from, from+len(near)) of both
// series into caller-owned buffers (near and far must be the same
// length). Unlike Series it never seals the builders, so it is safe
// mid-campaign: the engine's write path continues bit-for-bit as if
// the read never happened. Allocation-free; works after sealing too.
func (c *Collector) CopyAgg(from int, near, far []float64) {
	c.nearB.CopyRange(from, near)
	c.farB.CopyRange(from, far)
}

// FullRes returns the sealed native-resolution window series (nil
// when not configured). Like Series, it seals the builders.
func (c *Collector) FullRes() (near, far *timeseries.Series) {
	c.seal()
	return c.fullNear, c.fullFar
}

// MemBytes reports the collector's resident series bytes outside its
// arena: the builders' open blocks. The arena is accounted where it is
// owned — by the engine once per shard. Allocation-free; the engine
// publishes per-shard memory gauges from this at every batch barrier.
func (c *Collector) MemBytes() int {
	n := c.nearB.MemBytes() + c.farB.MemBytes()
	if c.fullNearB != nil {
		n += c.fullNearB.MemBytes() + c.fullFarB.MemBytes()
	}
	return n
}

// RoundMissed accounts a probing round that never ran — the vantage
// point was offline. The grid slots stay missing (the NaN gap the
// analysis pipeline must survive) and the round counts toward
// sample-yield accounting, but not toward far loss: no probe was sent.
func (c *Collector) RoundMissed() { c.missedRounds++ }

// RoundSkipped accounts a probing round the budget scheduler elected
// not to run. Distinct from RoundMissed: the VP was healthy, the
// scheduler just spent its probes elsewhere — so skipped rounds are
// excluded from the sample-yield denominator instead of dragging it
// down like an outage would.
func (c *Collector) RoundSkipped() { c.skippedRounds++ }

// Yield reports round-level accounting: rounds attempted, rounds that
// produced a far sample, rounds missed entirely (VP outages), and
// rounds skipped by the probe-budget scheduler.
func (c *Collector) Yield() (attempted, farSamples, missed, skipped int) {
	return c.farRounds, c.farRounds - c.farLostRounds, c.missedRounds, c.skippedRounds
}

// FarLossFraction is the fraction of rounds whose far probe was lost.
func (c *Collector) FarLossFraction() float64 {
	if c.farRounds == 0 {
		return 0
	}
	return float64(c.farLostRounds) / float64(c.farRounds)
}

// CollectorState is a Collector's full mutable state at a batch
// barrier, for engine checkpoints (DESIGN.md §15).
type CollectorState struct {
	// The aggregated grids' builder state.
	NearB, FarB tschunk.BuilderState
	// The full-resolution windows' builder state, when configured.
	FullNearB, FullFarB tschunk.BuilderState
	// Round accounting.
	FarRounds, FarLostRounds, MissedRounds, SkippedRounds int
}

// Checkpoint captures the collector's state. Must run at a batch
// barrier before any further writes: chunked builder state aliases
// live buffers until serialized. Panics if Series has already sealed
// the builders (collectors are only checkpointed mid-campaign).
func (c *Collector) Checkpoint() CollectorState {
	st := CollectorState{
		NearB:         c.nearB.State(),
		FarB:          c.farB.State(),
		FarRounds:     c.farRounds,
		FarLostRounds: c.farLostRounds,
		MissedRounds:  c.missedRounds,
		SkippedRounds: c.skippedRounds,
	}
	if c.fullNearB != nil {
		st.FullNearB = c.fullNearB.State()
		st.FullFarB = c.fullFarB.State()
	}
	return st
}

// RestoreCheckpoint overwrites the collector's state from a snapshot
// taken at the same barrier of an equivalent run. The collector must
// have been built with the same CollectorConfig.
func (c *Collector) RestoreCheckpoint(st CollectorState) {
	c.nearB.RestoreState(st.NearB)
	c.farB.RestoreState(st.FarB)
	if c.fullNearB != nil {
		c.fullNearB.RestoreState(st.FullNearB)
		c.fullFarB.RestoreState(st.FullFarB)
	}
	c.farRounds = st.FarRounds
	c.farLostRounds = st.FarLostRounds
	c.missedRounds = st.MissedRounds
	c.skippedRounds = st.SkippedRounds
}
