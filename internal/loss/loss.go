// Package loss aggregates the 1-packet-per-second loss-rate probes the
// paper ran against repeatedly congested links (§4): the loss rate is
// computed over every batch of 100 probes, giving one loss percentage
// per ~100 seconds, which figures 2b and 3b plot over time.
package loss

import (
	"fmt"
	"time"

	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
)

// BatchSize is the paper's batch: 100 probes.
const BatchSize = 100

// Batch is one loss-rate measurement.
type Batch struct {
	// Start is when the first probe of the batch was sent.
	Start simclock.Time
	// Sent and Lost count probes in the batch.
	Sent, Lost int
}

// Rate returns the batch loss rate in percent.
func (b Batch) Rate() float64 {
	if b.Sent == 0 {
		return 0
	}
	return 100 * float64(b.Lost) / float64(b.Sent)
}

// Collector accumulates per-probe outcomes into batches. Figures and
// the result digest grid the batches with ToSeries.
type Collector struct {
	batches []Batch
	cur     Batch
	open    bool

	// skippedRounds counts scheduled loss rounds the probe-budget
	// scheduler elected not to run; missedRounds counts rounds that
	// never ran because the vantage point was down. Kept separate so
	// yield reporting never conflates budget back-off with outages.
	skippedRounds, missedRounds int
}

// Reserve pre-sizes the batch store for n completed batches, so a
// campaign that knows its loss window up front collects without
// regrowing the slice mid-flight.
func (c *Collector) Reserve(n int) {
	if n > cap(c.batches) {
		grown := make([]Batch, len(c.batches), n)
		copy(grown, c.batches)
		c.batches = grown
	}
}

// Record adds one probe outcome at time t.
func (c *Collector) Record(t simclock.Time, lost bool) {
	if !c.open {
		c.cur = Batch{Start: t}
		c.open = true
	}
	c.cur.Sent++
	if lost {
		c.cur.Lost++
	}
	if c.cur.Sent >= BatchSize {
		c.batches = append(c.batches, c.cur)
		c.open = false
	}
}

// RoundSkipped accounts one scheduled loss round (a full BatchSize
// burst) that the probe-budget scheduler skipped. Allocation-free.
func (c *Collector) RoundSkipped() { c.skippedRounds++ }

// RoundMissed accounts one scheduled loss round that never ran
// because the vantage point was offline. Allocation-free.
func (c *Collector) RoundMissed() { c.missedRounds++ }

// RoundAccounting reports the rounds that did not run, split by
// cause: budget skips versus VP-outage misses.
func (c *Collector) RoundAccounting() (skipped, missed int) {
	return c.skippedRounds, c.missedRounds
}

// CollectorState is a loss Collector's full mutable state at a batch
// barrier, for engine checkpoints (DESIGN.md §15).
type CollectorState struct {
	Batches []Batch
	Cur     Batch
	Open    bool
	Skipped int
	Missed  int
}

// Checkpoint captures the collector's state. Must run at a batch
// barrier before any further recording: the batch list aliases the
// live slice until serialized.
func (c *Collector) Checkpoint() CollectorState {
	return CollectorState{
		Batches: c.batches,
		Cur:     c.cur,
		Open:    c.open,
		Skipped: c.skippedRounds,
		Missed:  c.missedRounds,
	}
}

// RestoreCheckpoint overwrites the collector's state from a snapshot
// taken at the same barrier of an equivalent run.
func (c *Collector) RestoreCheckpoint(st CollectorState) {
	c.batches = append(c.batches[:0], st.Batches...)
	c.cur = st.Cur
	c.open = st.Open
	c.skippedRounds = st.Skipped
	c.missedRounds = st.Missed
}

// Batches returns all completed batches. A partial trailing batch is
// included only if it holds at least half a batch of probes.
func (c *Collector) Batches() []Batch {
	out := c.batches
	if c.open && c.cur.Sent >= BatchSize/2 {
		out = append(append([]Batch(nil), out...), c.cur)
	}
	return out
}

// Summary aggregates a batch sequence.
type Summary struct {
	Batches  int
	MeanRate float64 // percent, probe-weighted
	MaxRate  float64
	MinRate  float64
	// FracLossy is the fraction of batches with any loss.
	FracLossy float64
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("%d batches, mean %.2f%%, min %.1f%%, max %.1f%%, %.0f%% lossy",
		s.Batches, s.MeanRate, s.MinRate, s.MaxRate, 100*s.FracLossy)
}

// Summarize computes the Summary of a batch sequence.
func Summarize(batches []Batch) Summary {
	var s Summary
	s.Batches = len(batches)
	if len(batches) == 0 {
		return s
	}
	var sent, lost, lossy int
	s.MinRate = batches[0].Rate()
	for _, b := range batches {
		sent += b.Sent
		lost += b.Lost
		if r := b.Rate(); r > s.MaxRate {
			s.MaxRate = r
		} else if r < s.MinRate {
			s.MinRate = r
		}
		if b.Lost > 0 {
			lossy++
		}
	}
	if sent > 0 {
		s.MeanRate = 100 * float64(lost) / float64(sent)
	}
	s.FracLossy = float64(lossy) / float64(len(batches))
	return s
}

// ToSeries grids batch rates onto a regular series for plotting and
// diurnal analysis (figures 2b and 3b). step should be at least the
// batch duration (~100 s at 1 pps). The second return value counts
// batches whose Start fell off the grid: callers windowing a
// sub-interval expect drops, but a grid built with GridFor over the
// batches' own interval must report zero.
func ToSeries(batches []Batch, start simclock.Time, step simclock.Duration, n int) (*timeseries.Series, int) {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = timeseries.Missing
	}
	dropped := 0
	for _, b := range batches {
		i := int(b.Start.Sub(start) / step)
		if b.Start < start || i >= n {
			dropped++
			continue
		}
		if r := b.Rate(); timeseries.IsMissing(vals[i]) || r > vals[i] {
			vals[i] = r
		}
	}
	return timeseries.FromValues(start, step, vals), dropped
}

// GridFor returns (start, step, n) covering an interval with ~batch
// resolution, for use with ToSeries. The grid extends one slot past
// the interval end: the trailing partial batch Collector.Batches
// deliberately keeps can start exactly at (or just past) the last
// in-interval probe, and a grid cut at the interval end would
// silently drop it.
func GridFor(iv simclock.Interval) (simclock.Time, simclock.Duration, int) {
	step := 10 * time.Minute
	return iv.Start, step, iv.NumSteps(step) + 1
}
