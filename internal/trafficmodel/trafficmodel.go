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
type Load interface {
	// Bps returns the offered load at t.
	Bps(t simclock.Time) float64
	// Fill writes Bps(start + i·step) into dst[i] for every i, bit for
	// bit, for a positive step. It lets a caller that steps through
	// time — the fluid queues — share per-day and per-minute work
	// across the points of a grid.
	Fill(start simclock.Time, step simclock.Duration, dst []float64)
}

// Func adapts a per-point function to Load; its Fill evaluates the
// function at every point.
type Func func(simclock.Time) float64

// Bps calls f.
func (f Func) Bps(t simclock.Time) float64 { return f(t) }

// Fill calls f at every grid point.
func (f Func) Fill(start simclock.Time, step simclock.Duration, dst []float64) {
	for i := range dst {
		dst[i] = f(start.Add(simclock.Duration(i) * step))
	}
}

// constant is a flat load.
type constant float64

// Constant returns a flat load.
func Constant(bps float64) Load { return constant(bps) }

func (c constant) Bps(simclock.Time) float64 { return float64(c) }

func (c constant) Fill(_ simclock.Time, _ simclock.Duration, dst []float64) {
	for i := range dst {
		dst[i] = float64(c)
	}
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

// Bps returns the offered load at t. A Diurnal is not itself a Load:
// Load() builds one, with the shape table its Fill reads.
func (d Diurnal) Bps(t simclock.Time) float64 {
	return d.point(d.dayAmp(t), d.shape(t.SecondOfDay()), d.noise(t))
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

// dayAmp is the waveform amplitude on t's UTC day: the peak over the
// base, with weekend modulation and the day's jitter. It depends on the
// day alone, so Fill computes it once per day.
func (d *Diurnal) dayAmp(t simclock.Time) float64 {
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
		amp *= 1 + float64(d.DayJitterFrac*(2*u-1))
	}
	return amp
}

// noiseMinute is the index of t's noise minute: whole minutes since
// Epoch, truncated toward zero (so the minute either side of Epoch is
// one index).
func noiseMinute(t simclock.Time) int64 {
	return int64(time.Duration(t) / time.Minute)
}

// noise is the relative noise factor of t's minute (1 without noise).
// It depends on the minute alone, so Fill computes it once per minute.
func (d *Diurnal) noise(t simclock.Time) float64 {
	if d.NoiseFrac <= 0 {
		return 1
	}
	return d.minuteNoise(noiseMinute(t))
}

func (d *Diurnal) minuteNoise(minute int64) float64 {
	u := hashUnit(d.Seed^0x9E3779B97F4A7C15, uint64(minute))
	return 1 + float64(d.NoiseFrac*(2*u-1))
}

// point finishes one load value from its day's amplitude, its shape
// and its minute's noise factor. Bps and Fill both end here, and every
// product is rounded by an explicit conversion, so no architecture can
// fuse a multiply-add in one path and not the other.
func (d *Diurnal) point(amp, shape, noise float64) float64 {
	v := d.BaseBps + float64(amp*shape)
	if d.NoiseFrac > 0 {
		v = float64(v * noise)
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

// Load builds the Diurnal's Load. It tabulates the shape at every
// shapeGrid-aligned second of the day once (2880 values), so it reads
// the table on the grid and computes the shape only off it. Its values
// are bit-identical to Bps at every instant.
func (d Diurnal) Load() Load {
	l := &diurnalLoad{d: d, tab: make([]float64, 24*3600/shapeGrid)}
	for i := range l.tab {
		l.tab[i] = d.shape(i * shapeGrid)
	}
	return l
}

// diurnalLoad is a Diurnal with its shape table.
type diurnalLoad struct {
	d   Diurnal
	tab []float64
}

// shapeAt is the shape at second sec of the day, from the table when
// sec is on its grid.
func (l *diurnalLoad) shapeAt(sec int) float64 {
	if sec%shapeGrid == 0 {
		return l.tab[sec/shapeGrid]
	}
	return l.d.shape(sec)
}

func (l *diurnalLoad) Bps(t simclock.Time) float64 {
	return l.d.point(l.d.dayAmp(t), l.shapeAt(t.SecondOfDay()), l.d.noise(t))
}

// Fill evaluates the grid with one amplitude per UTC day and one noise
// factor per minute; each point costs a shape read and point's tail.
// A point inside the current day [dayStart, dayStart+24h) takes its
// second of day from the offset to dayStart, which is SecondOfDay's
// floored remainder; any other point (including one past an
// overflowing day end) recomputes the day.
func (l *diurnalLoad) Fill(start simclock.Time, step simclock.Duration, dst []float64) {
	d := &l.d
	var (
		dayStart, dayEnd simclock.Time
		minute           int64
		amp              float64
		noise            = 1.0
	)
	for i := range dst {
		t := start.Add(simclock.Duration(i) * step)
		if i == 0 || t < dayStart || t >= dayEnd {
			dayStart = t.Truncate(24 * time.Hour)
			dayEnd = dayStart.Add(24 * time.Hour)
			amp = d.dayAmp(t)
		}
		if d.NoiseFrac > 0 {
			if m := noiseMinute(t); i == 0 || m != minute {
				minute, noise = m, d.minuteNoise(m)
			}
		}
		sec := int(t.Sub(dayStart) / time.Second)
		dst[i] = d.point(amp, l.shapeAt(sec), noise)
	}
}

// Memo carries one reader's day amplitude and minute noise factor from
// one BpsMemo to the next, so a reader stepping through nearby instants
// — a frozen queue read's integration and its delay lookup — computes
// each once per day and per minute, as Fill does. The zero Memo is
// empty. A Memo belongs to one reader; the loads are only read, so
// concurrent readers each keep their own.
type Memo struct {
	load             *diurnalLoad
	dayStart, dayEnd simclock.Time
	amp              float64
	minute           int64
	noise            float64
	hasNoise         bool
}

// BpsMemo returns l.Bps(t), bit for bit, reusing m's factors when t is
// in the day and minute they were computed for on the same Diurnal
// load. Loads other than Diurnal and Schedule evaluate Bps.
func BpsMemo(l Load, t simclock.Time, m *Memo) float64 {
	switch l := l.(type) {
	case *diurnalLoad:
		return l.bpsMemo(t, m)
	case *Schedule:
		return BpsMemo(l.loads[l.phase(t)], t, m)
	}
	return l.Bps(t)
}

// bpsMemo is Bps with the factors taken from, or refreshed into, m.
// The day is Fill's [dayStart, dayStart+24h), whose amplitude dayAmp
// depends on alone; the minute is noise's own index.
func (l *diurnalLoad) bpsMemo(t simclock.Time, m *Memo) float64 {
	d := &l.d
	if m.load != l || t < m.dayStart || t >= m.dayEnd {
		m.load, m.hasNoise = l, false
		m.dayStart = t.Truncate(24 * time.Hour)
		m.dayEnd = m.dayStart.Add(24 * time.Hour)
		m.amp = d.dayAmp(t)
	}
	noise := 1.0
	if d.NoiseFrac > 0 {
		if min := noiseMinute(t); !m.hasNoise || min != m.minute {
			m.minute, m.noise, m.hasNoise = min, d.minuteNoise(min), true
		}
		noise = m.noise
	}
	return d.point(m.amp, l.shapeAt(t.SecondOfDay()), noise)
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

// Bps evaluates the schedule.
func (s *Schedule) Bps(t simclock.Time) float64 {
	return s.loads[s.phase(t)].Bps(t)
}

// phase is the index of the phase that applies at t. Binary search
// keeps long schedules cheap.
func (s *Schedule) phase(t simclock.Time) int {
	lo, hi := 0, len(s.starts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.starts[mid] <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Fill splits the grid into runs of one phase each, by Bps's rule (a
// point at a phase start belongs to the new phase), and hands each run
// to its phase's Fill.
func (s *Schedule) Fill(start simclock.Time, step simclock.Duration, dst []float64) {
	at := func(i int) simclock.Time { return start.Add(simclock.Duration(i) * step) }
	for from := 0; from < len(dst); {
		p := s.phase(at(from))
		to := len(dst)
		if p+1 < len(s.starts) {
			to = from + 1
			for to < len(dst) && at(to) < s.starts[p+1] {
				to++
			}
		}
		s.loads[p].Fill(at(from), step, dst[from:to])
		from = to
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
