package diurnal

import (
	"math"
	"testing"
	"time"

	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
)

// diurnalValues returns 30-min samples from time 0 with a daily
// sinusoid of the given amplitude on a 20 ms floor, plus a
// deterministic dither.
func diurnalValues(days int, ampMs float64) []float64 {
	vs := make([]float64, days*48)
	for i := range vs {
		hod := float64(i%48) / 48 * 2 * math.Pi
		dither := 0.3 * math.Sin(float64(i)*0.7)
		vs[i] = 20 + ampMs/2*(1-math.Cos(hod)) + dither
	}
	return vs
}

// halfHour is the time of diurnalValues' sample i.
func halfHour(i int) simclock.Time { return simclock.Time(time.Duration(i) * 30 * time.Minute) }

func TestStreamFoldMatchesBatchAmplitude(t *testing.T) {
	vs := diurnalValues(6, 24)
	cfg := Config{MinDays: 3}
	batch := fold(timeseries.FromValues(0, 30*time.Minute, vs), cfg)

	f := NewStreamFold(cfg)
	for i := 0; i < len(vs); i++ {
		f.Observe(halfHour(i), vs[i])
	}
	got := f.Snapshot()

	// The overall profile's bin means are identical sums in identical
	// order, so amplitude and peak hour must agree bit-for-bit.
	if math.Float64bits(got.AmplitudeMs) != math.Float64bits(batch.AmplitudeMs) {
		t.Fatalf("amplitude: stream %v batch %v", got.AmplitudeMs, batch.AmplitudeMs)
	}
	if got.PeakHour != batch.PeakHour {
		t.Fatalf("peak hour: stream %v batch %v", got.PeakHour, batch.PeakHour)
	}
	// Completed days only: the sixth day is still open.
	if got.DaysEvaluated != 5 {
		t.Fatalf("days evaluated = %d; want 5", got.DaysEvaluated)
	}
	// Consistency is an online approximation (day vs profile-so-far),
	// but a clean sinusoid must still correlate strongly.
	if got.Consistency < 0.9 {
		t.Fatalf("consistency = %v; want ≥ 0.9", got.Consistency)
	}
	if !got.Decide(cfg).Diurnal {
		t.Fatalf("clean 24 ms diurnal series not detected")
	}
}

func TestStreamFoldFlatSeriesNotDiurnal(t *testing.T) {
	vs := diurnalValues(6, 0)
	f := NewStreamFold(Config{MinDays: 3})
	for i := 0; i < len(vs); i++ {
		f.Observe(halfHour(i), vs[i])
	}
	v := f.Snapshot().Decide(Config{MinDays: 3})
	if v.Diurnal {
		t.Fatalf("flat series detected as diurnal: %+v", v)
	}
	if v.AmplitudeMs >= 8 {
		t.Fatalf("flat series amplitude %v; want < 8", v.AmplitudeMs)
	}
}

func TestStreamFoldHandlesMissingAndReset(t *testing.T) {
	cfg := Config{MinDays: 3}
	f := NewStreamFold(cfg)
	vs := diurnalValues(6, 24)
	for i := 0; i < len(vs); i++ {
		v := vs[i]
		if i%7 == 3 {
			v = timeseries.Missing
		}
		f.Observe(halfHour(i), v)
	}
	if got := f.Snapshot().Decide(cfg); !got.Diurnal {
		t.Fatalf("diurnal pattern lost to 1/7 missing slots: %+v", got)
	}

	// Reset + replay reproduces the same snapshot bit-for-bit.
	before := f.Snapshot()
	f.Reset()
	if v := f.Snapshot(); v.DaysEvaluated != 0 || v.AmplitudeMs != 0 {
		t.Fatalf("reset left state: %+v", v)
	}
	for i := 0; i < len(vs); i++ {
		v := vs[i]
		if i%7 == 3 {
			v = timeseries.Missing
		}
		f.Observe(halfHour(i), v)
	}
	after := f.Snapshot()
	if math.Float64bits(before.AmplitudeMs) != math.Float64bits(after.AmplitudeMs) ||
		math.Float64bits(before.Consistency) != math.Float64bits(after.Consistency) ||
		before.DaysEvaluated != after.DaysEvaluated {
		t.Fatalf("replay after reset diverged: %+v vs %+v", before, after)
	}
}

func TestStreamFoldZeroAlloc(t *testing.T) {
	cfg := Config{MinDays: 3}
	f := NewStreamFold(cfg)
	vs := diurnalValues(4, 24)
	for i := 0; i < len(vs); i++ {
		f.Observe(halfHour(i), vs[i])
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		f.Observe(halfHour(i%len(vs)), vs[i%len(vs)])
		_ = f.Snapshot()
		i++
	}); n != 0 {
		t.Fatalf("Observe+Snapshot allocates %.1f/op; want 0", n)
	}
}
