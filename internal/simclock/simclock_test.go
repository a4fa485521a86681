package simclock

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestEpochRoundTrip(t *testing.T) {
	if got := Time(0).Wall(); !got.Equal(Epoch) {
		t.Fatalf("Time(0).Wall() = %v, want %v", got, Epoch)
	}
	wall := time.Date(2016, time.August, 6, 13, 30, 0, 0, time.UTC)
	if got := At(wall).Wall(); !got.Equal(wall) {
		t.Fatalf("round trip = %v, want %v", got, wall)
	}
}

func TestDateHelper(t *testing.T) {
	d := Date(2016, time.April, 28)
	want := time.Date(2016, time.April, 28, 0, 0, 0, 0, time.UTC)
	if !d.Wall().Equal(want) {
		t.Fatalf("Date = %v, want %v", d.Wall(), want)
	}
}

func TestCampaignBoundariesOrdering(t *testing.T) {
	if !(Time(0) < LossStart && LossStart < LatencyEnd && LatencyEnd < LossEnd) {
		t.Fatalf("campaign boundaries out of order: 0, %d, %d, %d",
			LossStart, LatencyEnd, LossEnd)
	}
}

func TestAddSub(t *testing.T) {
	a := Date(2016, time.March, 1)
	b := a.Add(36 * time.Hour)
	if got := b.Sub(a); got != 36*time.Hour {
		t.Fatalf("Sub = %v, want 36h", got)
	}
	if !a.Before(b) || !b.After(a) {
		t.Fatal("Before/After inconsistent")
	}
}

func TestTruncate(t *testing.T) {
	tm := At(time.Date(2016, time.March, 1, 10, 7, 42, 0, time.UTC))
	got := tm.Truncate(5 * time.Minute)
	want := At(time.Date(2016, time.March, 1, 10, 5, 0, 0, time.UTC))
	if got != want {
		t.Fatalf("Truncate = %v, want %v", got, want)
	}
	if tm.Truncate(0) != tm {
		t.Fatal("Truncate(0) should be identity")
	}
}

// Truncate floors on both sides of Epoch: the result is the largest
// multiple of d at or before t.
func TestTruncateFloors(t *testing.T) {
	const m = Time(time.Minute)
	for _, tc := range []struct {
		t, want Time
		d       Duration
	}{
		{0, 0, time.Minute},
		{1, 0, time.Minute},
		{m - 1, 0, time.Minute},
		{m, m, time.Minute},
		{-1, -m, time.Minute},
		{-m, -m, time.Minute},
		{-m - 1, -2 * m, time.Minute},
		{-m + 1, -m, time.Minute},
		{-7, -10, 5},
		{-5, -5, 5},
		{7, 5, 5},
		{-3, -3, -time.Second}, // non-positive d is the identity
	} {
		if got := tc.t.Truncate(tc.d); got != tc.want {
			t.Errorf("Time(%d).Truncate(%v) = %d, want %d", int64(tc.t), tc.d, int64(got), int64(tc.want))
		}
	}
}

// The integer calendar must name the same second of day and weekday as
// the wall clock for any instant int64 nanoseconds can hold (about ±292
// years around Epoch).
func TestCalendarMatchesWallClock(t *testing.T) {
	check := func(n int64) bool {
		tm := Time(n)
		w := tm.Wall()
		return tm.SecondOfDay() == w.Hour()*3600+w.Minute()*60+w.Second() &&
			tm.DayOfWeek() == w.Weekday()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20000, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
	// Edges: either side of Epoch and of a midnight, and the int64 ends.
	const day = int64(24 * time.Hour)
	for _, n := range []int64{0, 1, -1, day, day - 1, -day, -day - 1, 7 * day, -7*day + 1,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1} {
		if !check(n) {
			w := Time(n).Wall()
			t.Errorf("Time(%d): SecondOfDay %d weekday %v, wall %v", n, Time(n).SecondOfDay(), Time(n).DayOfWeek(), w)
		}
	}
}

func TestWeekendDetection(t *testing.T) {
	sat := Date(2016, time.March, 5) // Saturday
	mon := Date(2016, time.March, 7) // Monday
	if !sat.IsWeekend() {
		t.Errorf("%v should be a weekend", sat)
	}
	if mon.IsWeekend() {
		t.Errorf("%v should be a weekday", mon)
	}
	if got := sat.DayOfWeek(); got != time.Saturday {
		t.Errorf("DayOfWeek = %v, want Saturday", got)
	}
}

func TestSecondOfDayAndHour(t *testing.T) {
	tm := At(time.Date(2016, time.June, 15, 13, 30, 15, 0, time.UTC))
	if got := tm.SecondOfDay(); got != 13*3600+30*60+15 {
		t.Fatalf("SecondOfDay = %d", got)
	}
	if got := tm.HourOfDay(); got < 13.5 || got > 13.51 {
		t.Fatalf("HourOfDay = %v", got)
	}
}

func TestDayCounter(t *testing.T) {
	if got := Date(2016, time.February, 23).Day(); got != 1 {
		t.Fatalf("Day = %d, want 1", got)
	}
	if got := Time(0).Add(23 * time.Hour).Day(); got != 0 {
		t.Fatalf("Day = %d, want 0", got)
	}
}

// Day and SecondOfDay must name the same midnight on both sides of
// Epoch: Day·24h + SecondOfDay·1s is the instant truncated to the
// second, floored.
func TestDayAgreesWithSecondOfDay(t *testing.T) {
	const day = 24 * time.Hour
	for _, tc := range []struct {
		t       Time
		day     int
		second  int
		comment string
	}{
		{0, 0, 0, "epoch"},
		{Time(time.Nanosecond), 0, 0, "just after epoch"},
		{Time(-time.Nanosecond), -1, 86399, "just before epoch"},
		{Time(-time.Second), -1, 86399, "one second before epoch"},
		{Time(-time.Second - time.Nanosecond), -1, 86398, "past a second boundary"},
		{Time(-day), -1, 0, "midnight before epoch"},
		{Time(-day - time.Nanosecond), -2, 86399, "just before that midnight"},
		{Time(day - time.Nanosecond), 0, 86399, "end of day 0"},
		{Time(day), 1, 0, "day 1"},
		{Time(-3*day + 90*time.Minute), -3, 5400, "01:30 three days back"},
		{Time(254*day + 23*time.Hour + 55*time.Minute), 254, 86100, "last slot of a 255-day campaign"},
	} {
		if got := tc.t.Day(); got != tc.day {
			t.Errorf("%s: Day(%d) = %d, want %d", tc.comment, int64(tc.t), got, tc.day)
		}
		if got := tc.t.SecondOfDay(); got != tc.second {
			t.Errorf("%s: SecondOfDay(%d) = %d, want %d", tc.comment, int64(tc.t), got, tc.second)
		}
	}
}

func TestClockAdvance(t *testing.T) {
	c := &Clock{now: Date(2016, time.March, 1)}
	c.Advance(time.Hour)
	if got := c.Now().Sub(Date(2016, time.March, 1)); got != time.Hour {
		t.Fatalf("advance = %v", got)
	}
	c.AdvanceTo(Date(2016, time.March, 2))
	if c.Now() != Date(2016, time.March, 2) {
		t.Fatal("AdvanceTo failed")
	}
}

func TestClockPanicsOnBackwards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative advance")
		}
	}()
	new(Clock).Advance(-time.Second)
}

func TestClockPanicsOnAdvanceToPast(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on AdvanceTo into past")
		}
	}()
	c := &Clock{now: Date(2016, time.March, 2)}
	c.AdvanceTo(Date(2016, time.March, 1))
}

func TestIntervalContains(t *testing.T) {
	iv := Interval{Start: Date(2016, time.March, 1), End: Date(2016, time.March, 2)}
	if !iv.Contains(iv.Start) {
		t.Error("interval should contain its start")
	}
	if iv.Contains(iv.End) {
		t.Error("interval is half-open; must not contain End")
	}
	if got := iv.Duration(); got != 24*time.Hour {
		t.Errorf("Duration = %v", got)
	}
}

func TestIntervalDegenerate(t *testing.T) {
	iv := Interval{Start: 100, End: 50}
	if iv.Duration() != 0 {
		t.Error("degenerate interval should have zero duration")
	}
	if iv.NumSteps(time.Minute) != 0 {
		t.Error("degenerate interval should have zero steps")
	}
}

func TestIntervalSteps(t *testing.T) {
	iv := Interval{Start: 0, End: Time(25 * time.Minute)}
	var seen []Time
	iv.Steps(10*time.Minute, func(tm Time) { seen = append(seen, tm) })
	if len(seen) != 3 {
		t.Fatalf("Steps visited %d boundaries, want 3", len(seen))
	}
	if got := iv.NumSteps(10 * time.Minute); got != 3 {
		t.Fatalf("NumSteps = %d, want 3", got)
	}
	for i, tm := range seen {
		if want := Time(i) * Time(10*time.Minute); tm != want {
			t.Errorf("step %d at %v, want %v", i, tm, want)
		}
	}
}

func TestIntervalStepBatches(t *testing.T) {
	iv := Interval{Start: 0, End: Time(100 * time.Minute)}
	step := 10 * time.Minute
	// Barriers at 0 (always), 30 and 60 minutes; max batch of 3 forces
	// an extra break inside the 60..100 run.
	barrier := map[Time]bool{Time(30 * time.Minute): true, Time(60 * time.Minute): true}
	var opened, flat []Time
	var firsts []int
	var sizes []int
	iv.StepBatches(step, 3,
		func(tm Time) { opened = append(opened, tm) },
		func(tm Time) bool { return !barrier[tm] },
		func(first int, batch []Time) {
			firsts = append(firsts, first)
			sizes = append(sizes, len(batch))
			flat = append(flat, batch...)
		})

	// Every boundary Steps would visit, once, in order.
	var want []Time
	iv.Steps(step, func(tm Time) { want = append(want, tm) })
	if len(flat) != len(want) {
		t.Fatalf("StepBatches visited %d boundaries, want %d", len(flat), len(want))
	}
	for i := range want {
		if flat[i] != want[i] {
			t.Fatalf("boundary %d = %v, want %v", i, flat[i], want[i])
		}
	}
	// Batches: [0,10,20] (max), [30,40,50] (barrier then max),
	// [60,70,80] (barrier then max), [90].
	wantSizes := []int{3, 3, 3, 1}
	if len(sizes) != len(wantSizes) {
		t.Fatalf("batch sizes %v, want %v", sizes, wantSizes)
	}
	for i := range wantSizes {
		if sizes[i] != wantSizes[i] {
			t.Fatalf("batch sizes %v, want %v", sizes, wantSizes)
		}
	}
	// open ran exactly once per batch, on the batch's first boundary,
	// and firstIdx matches the Steps numbering.
	if len(opened) != len(firsts) {
		t.Fatalf("open ran %d times for %d batches", len(opened), len(firsts))
	}
	idx := 0
	for i, sz := range sizes {
		if opened[i] != want[firsts[i]] || firsts[i] != idx {
			t.Fatalf("batch %d opened at %v firstIdx %d, want %v firstIdx %d",
				i, opened[i], firsts[i], want[idx], idx)
		}
		idx += sz
	}
}

func TestIntervalStepBatchesPerStep(t *testing.T) {
	// max=1 degenerates to Steps with open on every boundary.
	iv := Interval{Start: 0, End: Time(25 * time.Minute)}
	n := 0
	iv.StepBatches(10*time.Minute, 1, func(Time) { n++ }, nil,
		func(first int, batch []Time) {
			if len(batch) != 1 || first != n-1 {
				t.Fatalf("batch %v first %d with max=1", batch, first)
			}
		})
	if n != 3 {
		t.Fatalf("open ran %d times, want 3", n)
	}
}

func TestIntervalStepsPanicsOnBadStep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero step")
		}
	}()
	Interval{Start: 0, End: 10}.Steps(0, func(Time) {})
}
