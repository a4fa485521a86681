// Package simclock provides the virtual time base used by the whole
// simulation. All simulated components measure time as a Time value —
// nanoseconds since the start of the measurement epoch — and never read
// the wall clock, which keeps full-year campaigns deterministic and fast.
//
// The epoch and campaign boundaries correspond to the paper's
// measurement period: latency probing ran from 2016-02-22 to 2017-03-27
// and loss-rate probing from 2016-07-19 to 2017-04-01.
package simclock

import (
	"fmt"
	"time"
)

// Time is a virtual timestamp: nanoseconds elapsed since Epoch.
// The zero Time is the start of the campaign.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is
// interconvertible with time.Duration.
type Duration = time.Duration

// Epoch is the wall-clock instant corresponding to Time(0):
// 2016-02-22 00:00 UTC, the day latency measurements began.
var Epoch = time.Date(2016, time.February, 22, 0, 0, 0, 0, time.UTC)

// Campaign boundaries from the paper, expressed as offsets from Epoch.
var (
	// LatencyEnd is 2017-03-27, the last day of TSLP probing.
	LatencyEnd = At(time.Date(2017, time.March, 27, 0, 0, 0, 0, time.UTC))
	// LossStart is 2016-07-19, when 1 pps loss probing began.
	LossStart = At(time.Date(2016, time.July, 19, 0, 0, 0, 0, time.UTC))
	// LossEnd is 2017-04-01, the last day of loss probing.
	LossEnd = At(time.Date(2017, time.April, 1, 0, 0, 0, 0, time.UTC))
)

// At converts a wall-clock instant into virtual time.
func At(t time.Time) Time { return Time(t.Sub(Epoch)) }

// Date is shorthand for At(time.Date(...)) in UTC.
func Date(year int, month time.Month, day int) Time {
	return At(time.Date(year, month, day, 0, 0, 0, 0, time.UTC))
}

// Wall converts a virtual timestamp back to the wall-clock instant.
func (t Time) Wall() time.Time { return Epoch.Add(time.Duration(t)) }

// Add advances the timestamp by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Truncate rounds t down to a multiple of d since Epoch. It floors,
// so instants before Epoch round towards the past like later ones do.
func (t Time) Truncate(d Duration) Time {
	if d <= 0 {
		return t
	}
	return t - floorMod(t, Time(d))
}

// dayNs is one UTC day in nanoseconds.
const dayNs = Time(24 * time.Hour)

// floorMod returns t mod m in [0, m) for m > 0, also for negative t.
func floorMod(t, m Time) Time {
	r := t % m
	if r < 0 {
		r += m
	}
	return r
}

// DayOfWeek returns the weekday of the virtual instant. Epoch is a
// Monday at UTC midnight and every UTC day is exactly 24 h long, so the
// weekday is the floored day index mod 7 — the same value the wall
// clock gives, without building a time.Time.
func (t Time) DayOfWeek() time.Weekday {
	return time.Weekday((t.Day()%7 + 7 + int(time.Monday)) % 7)
}

// IsWeekend reports whether the instant falls on Saturday or Sunday.
func (t Time) IsWeekend() bool {
	wd := t.DayOfWeek()
	return wd == time.Saturday || wd == time.Sunday
}

// SecondOfDay returns the number of seconds elapsed since local (UTC)
// midnight of the instant's day: the nanosecond offset into the day,
// floored to whole seconds. Epoch is a UTC midnight and UTC days carry
// no leap seconds in Go's calendar, so this equals the wall clock's
// Hour*3600 + Minute*60 + Second for every t.
func (t Time) SecondOfDay() int {
	return int(floorMod(t, dayNs) / Time(time.Second))
}

// HourOfDay returns the fractional hour of day in [0, 24).
func (t Time) HourOfDay() float64 { return float64(t.SecondOfDay()) / 3600 }

// Day returns the index of the instant's UTC day since Epoch: the
// number of whole days elapsed, floored, so instants before Epoch fall
// on negative days and Day always agrees with SecondOfDay about which
// midnight an instant follows.
func (t Time) Day() int {
	d := t / dayNs
	if t%dayNs < 0 {
		d--
	}
	return int(d)
}

// String formats the instant as a compact UTC timestamp.
func (t Time) String() string { return t.Wall().Format("2006-01-02 15:04:05") }

// Clock is a monotonically advancing virtual clock. It is not safe for
// concurrent use; the simulator single-threads time advancement.
type Clock struct {
	now Time
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d. It panics if d is negative,
// since virtual time never flows backwards.
func (c *Clock) Advance(d Duration) Time {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative advance %v", d))
	}
	c.now = c.now.Add(d)
	return c.now
}

// AdvanceTo moves the clock forward to t. It panics if t is in the past.
func (c *Clock) AdvanceTo(t Time) {
	if t < c.now {
		panic(fmt.Sprintf("simclock: AdvanceTo backwards from %v to %v", c.now, t))
	}
	c.now = t
}

// Interval is a half-open span [Start, End) of virtual time.
type Interval struct {
	Start Time
	End   Time
}

// Contains reports whether t falls inside the interval.
func (iv Interval) Contains(t Time) bool { return t >= iv.Start && t < iv.End }

// Duration returns the span length, or zero for degenerate intervals.
func (iv Interval) Duration() Duration {
	if iv.End <= iv.Start {
		return 0
	}
	return iv.End.Sub(iv.Start)
}

// Steps calls fn once per step boundary in [Start, End), in order.
// It is the canonical way campaigns iterate virtual time.
func (iv Interval) Steps(step Duration, fn func(Time)) {
	if step <= 0 {
		panic("simclock: non-positive step")
	}
	for t := iv.Start; t < iv.End; t = t.Add(step) {
		fn(t)
	}
}

// StepBatches visits exactly the boundaries Steps would, but groups
// them into runs the caller can process in one go. For each batch it
// first calls open with the batch's opening step — the caller performs
// whatever serialized barrier work that step needs, updating the state
// quiescent reads — then extends the batch with following boundaries
// while quiescent approves them (up to max steps), and finally hands
// the whole run to flush. firstIdx is the index Steps would have given
// the batch's first boundary. The batch slice is reused between
// flushes, so callers must not retain it.
//
// quiescent is consulted for a boundary only after every earlier
// boundary's open ran, which is what lets the campaign's batch planner
// ask "does this step need a barrier?" against up-to-date engine
// state. A nil quiescent batches unconditionally.
func (iv Interval) StepBatches(step Duration, max int, open func(Time), quiescent func(Time) bool, flush func(firstIdx int, batch []Time)) {
	if step <= 0 {
		panic("simclock: non-positive step")
	}
	if max < 1 {
		max = 1
	}
	if quiescent == nil {
		quiescent = func(Time) bool { return true }
	}
	buf := make([]Time, 0, max)
	idx := 0
	for t := iv.Start; t < iv.End; {
		open(t)
		buf = append(buf[:0], t)
		next := t.Add(step)
		for len(buf) < max && next < iv.End && quiescent(next) {
			buf = append(buf, next)
			next = next.Add(step)
		}
		flush(idx, buf)
		idx += len(buf)
		t = next
	}
}

// NumSteps returns the number of boundaries Steps would visit.
func (iv Interval) NumSteps(step Duration) int {
	if step <= 0 || iv.End <= iv.Start {
		return 0
	}
	return int((iv.Duration() + step - 1) / step)
}
