package trafficmodel

import (
	"math"
	"testing"
	"time"

	"afrixp/internal/simclock"
)

// mon/sat return an instant at the given hour on a known Monday /
// Saturday within the campaign.
func mon(hour float64) simclock.Time {
	return simclock.Date(2016, time.March, 7).Add(time.Duration(hour * float64(time.Hour)))
}
func sat(hour float64) simclock.Time {
	return simclock.Date(2016, time.March, 5).Add(time.Duration(hour * float64(time.Hour)))
}

func TestConstant(t *testing.T) {
	l := Constant(42e6)
	if l.Bps(0) != 42e6 || l.Bps(mon(12)) != 42e6 {
		t.Fatal("Constant is not constant")
	}
}

func TestDiurnalPeakAndFloor(t *testing.T) {
	d := Diurnal{BaseBps: 10e6, PeakBps: 110e6, PeakHour: 14, Width: 3}
	peak := d.Bps(mon(14))
	floor := d.Bps(mon(2))
	if math.Abs(peak-110e6) > 1e6 {
		t.Fatalf("peak = %v, want ~110e6", peak)
	}
	if floor > 12e6 {
		t.Fatalf("floor = %v, want near base", floor)
	}
	if d.Bps(mon(12)) <= d.Bps(mon(8)) {
		t.Fatal("load must rise toward the peak hour")
	}
}

func TestDiurnalWrapsAroundMidnight(t *testing.T) {
	// A peak at hour 23 must influence hour 1 of the next day
	// symmetrically with hour 21.
	d := Diurnal{BaseBps: 0, PeakBps: 100e6, PeakHour: 23, Width: 3}
	before := d.Bps(mon(21))
	after := d.Bps(mon(25)) // 01:00 Tuesday
	if math.Abs(before-after) > 1e-6*before {
		t.Fatalf("waveform not symmetric across midnight: %v vs %v", before, after)
	}
}

func TestDiurnalWeekendModulation(t *testing.T) {
	d := Diurnal{BaseBps: 10e6, PeakBps: 110e6, PeakHour: 14, Width: 3, WeekendFactor: 0.4}
	wk := d.Bps(mon(14))
	we := d.Bps(sat(14))
	wantWe := 10e6 + 0.4*100e6
	if math.Abs(we-wantWe) > 1e6 {
		t.Fatalf("weekend peak = %v, want ~%v", we, wantWe)
	}
	if we >= wk {
		t.Fatal("weekend peak must be lower")
	}
}

func TestDiurnalZeroWeekendFactorMeansUnmodulated(t *testing.T) {
	d := Diurnal{BaseBps: 10e6, PeakBps: 110e6, PeakHour: 14, Width: 3}
	if math.Abs(d.Bps(sat(14))-d.Bps(mon(14))) > 1e-6 {
		t.Fatal("zero WeekendFactor should leave weekends unmodulated")
	}
}

func TestDiurnalDeterminism(t *testing.T) {
	d := Diurnal{BaseBps: 5e6, PeakBps: 50e6, PeakHour: 13, Width: 2,
		DayJitterFrac: 0.3, NoiseFrac: 0.1, Seed: 99}
	for _, tm := range []simclock.Time{mon(3), mon(13.5), sat(20)} {
		if d.Bps(tm) != d.Bps(tm) {
			t.Fatal("load must be a pure function of time")
		}
	}
}

func TestDayJitterVariesAcrossDays(t *testing.T) {
	d := Diurnal{BaseBps: 0, PeakBps: 100e6, PeakHour: 14, Width: 3,
		DayJitterFrac: 0.4, Seed: 7}
	a := d.Bps(mon(14))
	b := d.Bps(mon(14).Add(24 * time.Hour)) // Tuesday same hour
	if a == b {
		t.Fatal("day jitter should differentiate days")
	}
	// Jitter is bounded.
	for day := 0; day < 50; day++ {
		v := d.Bps(mon(14).Add(time.Duration(day) * 24 * time.Hour))
		if v < 0.55*100e6 || v > 1.45*100e6 {
			t.Fatalf("day %d jittered out of bounds: %v", day, v)
		}
	}
}

func TestNoiseIsBoundedAndNonNegative(t *testing.T) {
	d := Diurnal{BaseBps: 1e6, PeakBps: 2e6, PeakHour: 12, Width: 4, NoiseFrac: 0.5, Seed: 3}
	for i := 0; i < 10000; i++ {
		v := d.Bps(simclock.Time(time.Duration(i) * time.Minute))
		if v < 0 {
			t.Fatalf("negative load at minute %d", i)
		}
	}
}

func TestSeedDecorrelates(t *testing.T) {
	a := Diurnal{BaseBps: 0, PeakBps: 100e6, PeakHour: 14, Width: 3, NoiseFrac: 0.3, Seed: 1}
	b := a
	b.Seed = 2
	same := 0
	for i := 0; i < 100; i++ {
		tm := mon(10).Add(time.Duration(i) * time.Minute)
		if a.Bps(tm) == b.Bps(tm) {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("different seeds agreed on %d/100 samples", same)
	}
}

func TestScheduleSwitchesPhases(t *testing.T) {
	s := NewSchedule(Constant(10)).
		At(mon(0), Constant(20)).
		At(mon(24), Constant(30))
	if got := s.Bps(sat(0)); got != 10 { // before Monday
		t.Fatalf("initial phase = %v", got)
	}
	if got := s.Bps(mon(5)); got != 20 {
		t.Fatalf("second phase = %v", got)
	}
	if got := s.Bps(mon(0)); got != 20 {
		t.Fatal("phase boundary must belong to the new phase")
	}
	if got := s.Bps(mon(300)); got != 30 {
		t.Fatalf("final phase = %v", got)
	}
}

func TestSchedulePanicsOnOutOfOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSchedule(Constant(1)).At(mon(24), Constant(2)).At(mon(0), Constant(3))
}

func TestScheduleManyPhases(t *testing.T) {
	s := NewSchedule(Constant(0))
	for i := 1; i <= 100; i++ {
		v := float64(i)
		s.At(simclock.Time(time.Duration(i)*time.Hour), Constant(v))
	}
	for i := 1; i <= 100; i++ {
		tm := simclock.Time(time.Duration(i)*time.Hour + 30*time.Minute)
		if got := s.Bps(tm); got != float64(i) {
			t.Fatalf("phase %d: got %v", i, got)
		}
	}
}

func TestHashUnitDistribution(t *testing.T) {
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		u := hashUnit(12345, uint64(i))
		if u < 0 || u >= 1 {
			t.Fatalf("hashUnit out of range: %v", u)
		}
		sum += u
	}
	if mean := sum / float64(n); math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("hashUnit mean = %v, want ~0.5", mean)
	}
}
