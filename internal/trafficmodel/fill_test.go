package trafficmodel

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"afrixp/internal/simclock"
)

// fillCase is a load plus a grid to fill: a start, a positive step and
// a point count. Grids are drawn around an anchor — a midnight, the
// Friday→Saturday or Sunday→Monday edge — up to two years either side
// of Epoch, so spans cross days, weekend edges and Epoch itself.
type fillCase struct {
	Desc  string
	Load  Load
	Start simclock.Time
	Step  simclock.Duration
	N     int
}

// fillSteps are the grid spacings drawn from: the queues' 30 s and
// their 5-minute batch step, plus spacings that do not divide a day
// or a minute, and random ones.
var fillSteps = []simclock.Duration{
	30 * time.Second, 5 * time.Minute, time.Minute, time.Second, 29 * time.Second,
	7 * time.Minute, 25 * time.Hour, 13 * time.Nanosecond, 61*time.Second + 7,
}

func (fillCase) Generate(r *rand.Rand, _ int) reflect.Value {
	const span = int64(2 * 365 * 24 * time.Hour)
	day := simclock.Time(r.Int63n(2*span) - span).Truncate(24 * time.Hour)
	switch r.Intn(3) {
	case 1: // Friday→Saturday midnight
		day -= simclock.Time(time.Duration((int(day.DayOfWeek())+1)%7) * 24 * time.Hour)
	case 2: // Sunday→Monday midnight
		day -= simclock.Time(time.Duration((int(day.DayOfWeek())+6)%7) * 24 * time.Hour)
	}
	step := fillSteps[r.Intn(len(fillSteps))]
	if r.Intn(4) == 0 {
		step = simclock.Duration(1 + r.Int63n(int64(26*time.Hour)))
	}
	n := r.Intn(300)
	start := day.Add(-simclock.Duration(r.Int63n(int64(n)+1)) * step)
	switch r.Intn(3) {
	case 0: // off every grid
		start = start.Add(simclock.Duration(r.Int63n(int64(time.Minute))))
	case 1: // off the 30-s grid, on the second
		start = start.Add(simclock.Duration(1+r.Intn(29)) * time.Second)
	}
	c := fillCase{Start: start, Step: step, N: n}
	c.Load, c.Desc = randomLoad(r, c, 2)
	return reflect.ValueOf(c)
}

// randomLoad draws a Diurnal table load, a constant, a Func, or (down
// to depth levels of nesting) a Schedule whose phase starts fall inside
// c's grid — on grid points, between them, or several at one instant.
func randomLoad(r *rand.Rand, c fillCase, depth int) (Load, string) {
	switch k := r.Intn(5); {
	case k == 0:
		bps := r.Float64() * 1e9
		return Constant(bps), fmt.Sprintf("Constant(%v)", bps)
	case k == 1:
		d := randomDiurnal(r)
		return Func(d.Bps), fmt.Sprintf("Func(%+v.Bps)", d)
	case k == 2 && depth > 0:
		initial, desc := randomLoad(r, c, depth-1)
		s := NewSchedule(initial)
		at := c.Start.Add(-c.Step)
		for p := r.Intn(4); p > 0; p-- {
			switch r.Intn(3) {
			case 0: // on a grid point
				at = c.Start.Add(simclock.Duration(r.Intn(c.N+1)) * c.Step)
			case 1: // between grid points
				at = c.Start.Add(simclock.Duration(r.Intn(c.N+1))*c.Step + simclock.Duration(r.Int63n(int64(c.Step))))
			}
			// case 2 repeats the previous start.
			if prev := s.starts[len(s.starts)-1]; at < prev {
				at = prev
			}
			l, ld := randomLoad(r, c, depth-1)
			s.At(at, l)
			desc += fmt.Sprintf(".At(%d, %s)", at, ld)
		}
		return s, "Schedule(" + desc + ")"
	default:
		d := randomDiurnal(r)
		return d.Load(), fmt.Sprintf("%+v.Load()", d)
	}
}

// randomDiurnal draws a waveform with each of weekend modulation, day
// jitter and minute noise present or zero, and a PeakHour that is
// sometimes a day or more out (≥ 24, past 36, negative).
func randomDiurnal(r *rand.Rand) Diurnal {
	d := Diurnal{
		BaseBps:  r.Float64() * 1e9,
		PeakBps:  r.Float64() * 2e9,
		PeakHour: r.Float64() * 24,
		Width:    r.Float64() * 6,
		Seed:     r.Uint64(),
	}
	switch r.Intn(5) {
	case 0:
		d.PeakHour += 24 * float64(1+r.Intn(3))
	case 1:
		d.PeakHour -= 24 * float64(1+r.Intn(2))
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
		d.NoiseFrac = r.Float64() * 1.5 // > 1 reaches the clamp at zero
	}
	return d
}

// checkFill reports the first grid point where Fill and Bps differ in
// bits, after filling a buffer seeded with a sentinel that Fill must
// overwrite everywhere and must not write past.
func checkFill(l Load, start simclock.Time, step simclock.Duration, n int) error {
	buf := make([]float64, n+1)
	for i := range buf {
		buf[i] = math.Float64frombits(0x7FF8DEADBEEF0001)
	}
	l.Fill(start, step, buf[:n])
	for i := 0; i < n; i++ {
		tm := start.Add(simclock.Duration(i) * step)
		if got, want := buf[i], l.Bps(tm); math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("point %d (%v): Fill %v, Bps %v", i, tm, got, want)
		}
	}
	if math.Float64bits(buf[n]) != 0x7FF8DEADBEEF0001 {
		return fmt.Errorf("Fill wrote past its %d points", n)
	}
	return nil
}

// Fill is Bps at every grid point, bit for bit, for every Load.
func TestFillMatchesBps(t *testing.T) {
	check := func(c fillCase) bool {
		if err := checkFill(c.Load, c.Start, c.Step, c.N); err != nil {
			t.Logf("%s, start %d, step %v: %v", c.Desc, c.Start, c.Step, err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Fatal(err)
	}
}

// The fills a fluid queue makes: 30-s grids from Epoch through weekday
// and weekend midnights, a schedule switching on, before and after a
// grid point, and the Epoch-spanning minute that truncation folds into
// minute zero.
func TestFillEdges(t *testing.T) {
	d := Diurnal{BaseBps: 4e8, PeakBps: 1.2e9, PeakHour: 15.5, Width: 2.4,
		WeekendFactor: 0.7, DayJitterFrac: 0.1, NoiseFrac: 0.06, Seed: 0x9D}
	fri := simclock.Date(2016, time.March, 5).Add(-2 * time.Minute) // Friday 23:58
	onset := simclock.Date(2016, time.August, 6)
	sched := NewSchedule(Constant(2e8)).
		At(onset, d.Load()).
		At(onset.Add(45*time.Second), Constant(3e8)).
		At(onset.Add(45*time.Second), d.Load()).
		At(onset.Add(90*time.Second), Func(d.Bps))
	for _, tc := range []struct {
		name  string
		load  Load
		start simclock.Time
		step  simclock.Duration
		n     int
	}{
		{"epoch to july 20", d.Load(), 0, 30 * time.Second, int(simclock.Date(2016, time.July, 20) / simclock.Time(30*time.Second))},
		{"across epoch", d.Load(), simclock.Time(-3 * time.Minute), 7 * time.Second, 60},
		{"friday to saturday", d.Load(), fri, 30 * time.Second, 9},
		{"sunday to monday", d.Load(), fri.Add(48 * time.Hour), time.Second, 300},
		{"no points", d.Load(), fri, 30 * time.Second, 0},
		{"schedule on grid", sched, onset.Add(-5 * time.Minute), 30 * time.Second, 20},
		{"schedule off grid", sched, onset.Add(-5*time.Minute + 1), 30 * time.Second, 20},
		{"schedule one point", sched, onset.Add(45 * time.Second), 30 * time.Second, 1},
		{"schedule wide step", sched, 0, 25 * time.Hour, 400},
	} {
		if err := checkFill(tc.load, tc.start, tc.step, tc.n); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
