// Package trafficmodel provides deterministic offered-load processes
// that drive the fluid queues: diurnal waveforms with weekday/weekend
// modulation, day-to-day amplitude jitter, additive noise, and
// piecewise schedules for the timed events in the paper's case studies
// (transit shutdowns, demand surges, capacity upgrades).
//
// All stochastic texture is derived by hashing (seed, time) rather than
// consuming a shared random stream, so a load function can be evaluated
// at any instant, any number of times, and always returns the same
// value — a requirement for the lazily-integrated queue model.
package trafficmodel

import (
	"math"
	"time"

	"afrixp/internal/simclock"
)

// Load is an offered-load process: bits per second at virtual time t.
// Implementations must be pure functions of t.
type Load func(simclock.Time) float64

// Constant returns a flat load.
func Constant(bps float64) Load {
	return func(simclock.Time) float64 { return bps }
}

// Diurnal describes the canonical daily demand waveform observed on
// access and peering links: a floor at night, a smooth rise through
// the morning, a peak in the afternoon/evening, and a dip around
// midnight (the GIXA–KNET series in the paper shows "an obvious
// decrease everyday around midnight").
type Diurnal struct {
	// BaseBps is the overnight floor.
	BaseBps float64
	// PeakBps is the weekday peak (the waveform maximum).
	PeakBps float64
	// PeakHour is the UTC hour of the daily maximum, e.g. 14.5.
	PeakHour float64
	// Width controls how broad the daily peak is, in hours. Larger
	// values yield longer congestion events (Δt_UD in the paper).
	Width float64
	// WeekendFactor scales (PeakBps-BaseBps) on Saturdays and Sundays;
	// the zero value means no weekend modulation. GIXA–GHANATEL and
	// QCELL–NETPAGE both showed visibly lower weekend amplitudes;
	// KNET's pattern was day-type independent.
	WeekendFactor float64
	// DayJitterFrac, if positive, scales each day's amplitude by a
	// deterministic per-day factor in [1-f, 1+f], reproducing the
	// "different amplitudes over roughly 5 months" texture of Fig. 1.
	DayJitterFrac float64
	// NoiseFrac, if positive, adds relative noise at 1-minute
	// granularity.
	NoiseFrac float64
	// Seed decorrelates jitter across links.
	Seed uint64
}

// Bps implements the Load signature.
func (d Diurnal) Bps(t simclock.Time) float64 {
	return d.at(t, d.shape(t.SecondOfDay()))
}

// shape is the unit-peak daily waveform at second sec of the UTC day:
// a Gaussian bump around PeakHour over the wrapped distance to it.
// Bps and Load's table both evaluate it, so the arithmetic — and with
// it every bit of the result — lives in one place.
func (d Diurnal) shape(sec int) float64 {
	h := float64(sec) / 3600
	// Wrapped distance to the peak hour, |dist| ≤ 12.
	dist := wrap24(h-d.PeakHour+36) - 12
	w := d.Width
	if w <= 0 {
		w = 3
	}
	return math.Exp(-dist * dist / (2 * w * w))
}

// at finishes a load value from the shape at t's second of day:
// weekend modulation, day jitter and minute noise over the base.
func (d Diurnal) at(t simclock.Time, shape float64) float64 {
	amp := d.PeakBps - d.BaseBps
	if t.IsWeekend() {
		f := d.WeekendFactor
		if f == 0 {
			f = 1 // zero value means "no weekend modulation"
		}
		amp *= f
	}
	if d.DayJitterFrac > 0 {
		u := hashUnit(d.Seed, uint64(t.Day()))
		amp *= 1 + d.DayJitterFrac*(2*u-1)
	}
	v := d.BaseBps + amp*shape
	if d.NoiseFrac > 0 {
		minute := uint64(time.Duration(t) / time.Minute)
		u := hashUnit(d.Seed^0x9E3779B97F4A7C15, minute)
		v *= 1 + d.NoiseFrac*(2*u-1)
	}
	if v < 0 {
		v = 0
	}
	return v
}

// wrap24 returns x mod 24 as a value in [0, 24]. For x in [0, 72),
// the range every PeakHour in [0, 24) produces, it subtracts 0, 24 or
// 48: by Sterbenz's lemma those differences are exact, and fmod is
// exact too, so the result has math.Mod's bits without its cost.
// Elsewhere it falls back to math.Mod and folds a negative remainder
// up by 24 (which may round up to exactly 24 for a remainder within an
// ulp of zero; the waveform is symmetric, so that is harmless).
func wrap24(x float64) float64 {
	switch {
	case x >= 0 && x < 24:
		return x
	case x >= 24 && x < 48:
		return x - 24
	case x >= 48 && x < 72:
		return x - 48
	}
	r := math.Mod(x, 24)
	if r < 0 {
		r += 24
	}
	return r
}

// shapeGrid is the spacing, in seconds, of Load's shape table: the
// fluid queues' default integration step, so a queue stepping from a
// grid-aligned start reads every load's shape from the table.
const shapeGrid = 30

// Load adapts the Diurnal to the Load type. It tabulates the shape at
// every shapeGrid-aligned second of the day once (2880 values), so the
// returned function reads the table on the grid and computes the shape
// only off it. The values are bit-identical to Bps at every instant.
func (d Diurnal) Load() Load {
	tab := make([]float64, 24*3600/shapeGrid)
	for i := range tab {
		tab[i] = d.shape(i * shapeGrid)
	}
	return func(t simclock.Time) float64 {
		sec := t.SecondOfDay()
		if sec%shapeGrid == 0 {
			return d.at(t, tab[sec/shapeGrid])
		}
		return d.at(t, d.shape(sec))
	}
}

// Sum superimposes several load processes.
func Sum(loads ...Load) Load {
	return func(t simclock.Time) float64 {
		var v float64
		for _, l := range loads {
			v += l(t)
		}
		return v
	}
}

// Scale multiplies a load by k.
func Scale(l Load, k float64) Load {
	return func(t simclock.Time) float64 { return l(t) * k }
}

// Schedule is a piecewise load: the latest phase whose start is ≤ t
// applies. Phases must be appended in chronological order.
type Schedule struct {
	starts []simclock.Time
	loads  []Load
}

// NewSchedule starts with an initial phase active from the beginning
// of time.
func NewSchedule(initial Load) *Schedule {
	return &Schedule{starts: []simclock.Time{math.MinInt64}, loads: []Load{initial}}
}

// At switches to load l from time t onward. Panics if t precedes the
// previous phase start — schedules are authored chronologically.
func (s *Schedule) At(t simclock.Time, l Load) *Schedule {
	if t < s.starts[len(s.starts)-1] {
		panic("trafficmodel: schedule phases must be chronological")
	}
	s.starts = append(s.starts, t)
	s.loads = append(s.loads, l)
	return s
}

// Bps evaluates the schedule. Binary search keeps long schedules cheap.
func (s *Schedule) Bps(t simclock.Time) float64 {
	lo, hi := 0, len(s.starts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.starts[mid] <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return s.loads[lo](t)
}

// Load adapts the schedule to the Load type.
func (s *Schedule) Load() Load { return s.Bps }

// Spike returns a load that is bps during [start, end) and zero
// elsewhere — a transient demand surge.
func Spike(start, end simclock.Time, bps float64) Load {
	return func(t simclock.Time) float64 {
		if t >= start && t < end {
			return bps
		}
		return 0
	}
}

// hashUnit maps (seed, n) to a uniform float64 in [0, 1) via
// SplitMix64, giving deterministic repeatable "noise".
func hashUnit(seed, n uint64) float64 {
	z := seed + n*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}
