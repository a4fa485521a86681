package trafficmodel

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"afrixp/internal/simclock"
)

// referenceBps is Diurnal.Bps as it stood before the integer calendar,
// the exact wrap and the shape table: hour and weekday through the wall
// clock, the wrap through math.Mod. For PeakHour in [0, 24) every
// change since must reproduce it bit for bit.
func referenceBps(d Diurnal, t simclock.Time) float64 {
	w := t.Wall()
	h := float64(w.Hour()*3600+w.Minute()*60+w.Second()) / 3600
	dist := math.Mod(h-d.PeakHour+36, 24) - 12
	wd := d.Width
	if wd <= 0 {
		wd = 3
	}
	shape := math.Exp(-dist * dist / (2 * wd * wd))
	amp := d.PeakBps - d.BaseBps
	if day := w.Weekday(); day == time.Saturday || day == time.Sunday {
		f := d.WeekendFactor
		if f == 0 {
			f = 1
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

// diurnalCase is a random waveform plus an instant, drawn so that half
// the instants sit on the 30-s grid (the table path) and the rest off
// it, spread over ±2 years around Epoch (weekends and pre-epoch days
// included).
type diurnalCase struct {
	D Diurnal
	T simclock.Time
}

func (diurnalCase) Generate(r *rand.Rand, _ int) reflect.Value {
	d := Diurnal{
		BaseBps:  r.Float64() * 1e9,
		PeakBps:  r.Float64() * 2e9,
		PeakHour: r.Float64() * 24,
		Width:    r.Float64() * 6, // Width ≤ 0 cases included below
		Seed:     r.Uint64(),
	}
	if r.Intn(4) == 0 {
		d.Width = 0
	}
	if r.Intn(2) == 0 {
		d.WeekendFactor = r.Float64()
	}
	if r.Intn(2) == 0 {
		d.DayJitterFrac = r.Float64() * 0.5
	}
	if r.Intn(2) == 0 {
		d.NoiseFrac = r.Float64() * 0.5
	}
	const span = int64(2 * 365 * 24 * time.Hour)
	t := simclock.Time(r.Int63n(2*span) - span)
	switch r.Intn(3) {
	case 0:
		t = t.Truncate(30 * time.Second)
	case 1:
		t = t.Truncate(time.Second)
	}
	return reflect.ValueOf(diurnalCase{D: d, T: t})
}

// The tabulated Load and the computing Bps must agree to the bit on and
// off the grid, and both must equal the pre-table reference.
func TestLoadTableMatchesBps(t *testing.T) {
	check := func(c diurnalCase) bool {
		want := referenceBps(c.D, c.T)
		got := c.D.Load().Bps(c.T)
		bps := c.D.Bps(c.T)
		return math.Float64bits(got) == math.Float64bits(want) &&
			math.Float64bits(bps) == math.Float64bits(want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// One table, many instants: every grid point of a day (each a table
// read) plus its off-grid neighbours, on a weekday, a weekend day and a
// day before Epoch.
func TestLoadTableWholeDay(t *testing.T) {
	d := Diurnal{BaseBps: 3e6, PeakBps: 9e7, PeakHour: 19.75, Width: 2.2,
		WeekendFactor: 0.6, DayJitterFrac: 0.2, NoiseFrac: 0.1, Seed: 5}
	l := d.Load()
	for _, day := range []simclock.Time{mon(0), sat(0), simclock.Time(-3 * 24 * time.Hour)} {
		for s := 0; s < 24*3600; s += shapeGrid {
			for _, off := range []simclock.Duration{0, time.Nanosecond, time.Second, 29 * time.Second} {
				tm := day.Add(time.Duration(s)*time.Second + off)
				if got, want := l.Bps(tm), referenceBps(d, tm); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v: Load %v, reference %v", tm, got, want)
				}
			}
		}
	}
}

// wrap24 takes math.Mod's bits on its fast range [0, 72).
func TestWrap24MatchesMod(t *testing.T) {
	check := func(u float64) bool {
		x := math.Abs(math.Mod(u, 72))
		return math.Float64bits(wrap24(x)) == math.Float64bits(math.Mod(x, 24))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20000, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, math.Copysign(0, -1), 24, 48, math.Nextafter(24, 0), math.Nextafter(48, 0),
		math.Nextafter(72, 0), 12, 36, 60} {
		if math.Float64bits(wrap24(x)) != math.Float64bits(math.Mod(x, 24)) {
			t.Errorf("wrap24(%v) = %v, math.Mod = %v", x, wrap24(x), math.Mod(x, 24))
		}
	}
}

// The wrapped distance to the peak stays within half a day for any
// finite PeakHour, not only those in [0, 24).
func TestWrappedDistanceBounded(t *testing.T) {
	check := func(peak float64, sec uint32) bool {
		if math.IsInf(peak, 0) || math.IsNaN(peak) {
			return true
		}
		h := float64(sec%86400) / 3600
		dist := wrap24(h-peak+36) - 12
		return math.Abs(dist) <= 12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20000, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
	for _, peak := range []float64{36, 40, 47.5, 60, 100, -13, -1e6, 1e300, -1e300, math.MaxFloat64} {
		for sec := 0; sec < 86400; sec += 600 {
			h := float64(sec) / 3600
			if dist := wrap24(h-peak+36) - 12; !(math.Abs(dist) <= 12) {
				t.Fatalf("PeakHour %v hour %v: dist %v", peak, h, dist)
			}
		}
	}
}

// A PeakHour past 36 names the same hour of day as PeakHour−24: at
// 02:00 a 40 h peak (16:00) is ten hours away, not fourteen.
func TestDiurnalLatePeakHourWraps(t *testing.T) {
	late := Diurnal{BaseBps: 0, PeakBps: 100e6, PeakHour: 40, Width: 3}
	same := Diurnal{BaseBps: 0, PeakBps: 100e6, PeakHour: 16, Width: 3}
	for _, h := range []float64{0, 2, 3.5, 10, 16, 23} {
		a, b := late.Bps(mon(h)), same.Bps(mon(h))
		if math.Abs(a-b) > 1e-9*math.Max(b, 1) {
			t.Fatalf("hour %v: PeakHour 40 gives %v, PeakHour 16 gives %v", h, a, b)
		}
	}
}
