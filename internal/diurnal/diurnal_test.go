package diurnal

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
)

// grid samples days of 5-minute values, from time 0, from a value
// function of (dayIndex, hourOfDay).
func grid(days int, fn func(day int, hour float64) float64) []float64 {
	vs := make([]float64, days*288)
	for i := range vs {
		t := slotTime(i)
		vs[i] = fn(t.Day(), t.HourOfDay())
	}
	return vs
}

// slotTime is the time of grid slot i.
func slotTime(i int) simclock.Time { return simclock.Time(time.Duration(i) * 5 * time.Minute) }

// series seals grid(days, fn).
func series(days int, fn func(day int, hour float64) float64) *timeseries.Series {
	return timeseries.FromValues(0, 5*time.Minute, grid(days, fn))
}

// fold is FoldWith through fresh scratch.
func fold(s *timeseries.Series, cfg Config) Verdict { return FoldWith(s, cfg, &Scratch{}) }

// detect is the whole analysis: a fresh fold gated by Decide.
func detect(s *timeseries.Series, cfg Config) Verdict { return fold(s, cfg).Decide(cfg) }

// correlate is correlateWith through fresh scratch.
func correlate(a, b []float64, minBins int) (float64, bool) {
	return correlateWith(a, b, minBins, &Scratch{})
}

func TestCleanDiurnalDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := series(14, func(_ int, h float64) float64 {
		v := 2.0
		if h >= 9 && h < 17 {
			v = 25
		}
		return v + math.Abs(0.5*rng.NormFloat64())
	})
	v := detect(s, Config{})
	if !v.Diurnal {
		t.Fatalf("clean diurnal not detected: %+v", v)
	}
	if v.AmplitudeMs < 15 {
		t.Fatalf("amplitude = %v", v.AmplitudeMs)
	}
	if v.PeakHour < 9 || v.PeakHour >= 17 {
		t.Fatalf("peak hour = %v", v.PeakHour)
	}
	if v.DaysEvaluated < 13 {
		t.Fatalf("days = %d", v.DaysEvaluated)
	}
}

func TestFlatSeriesRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := series(14, func(int, float64) float64 {
		return 3 + math.Abs(0.8*rng.NormFloat64())
	})
	if v := detect(s, Config{}); v.Diurnal {
		t.Fatalf("flat series detected diurnal: %+v", v)
	}
}

func TestRandomRegimeShiftsRejected(t *testing.T) {
	// Slow-ICMP regimes: RTT jumps to 30 ms for random multi-hour
	// blocks at arbitrary times of day. Level-shift detectors flag
	// this; the diurnal check must not.
	rng := rand.New(rand.NewSource(3))
	level := 2.0
	vs := make([]float64, 20*288)
	for i := range vs {
		if i%60 == 0 && rng.Float64() < 0.3 { // reconsider every 5h
			if level == 2 {
				level = 30
			} else {
				level = 2
			}
		}
		vs[i] = level + math.Abs(0.5*rng.NormFloat64())
	}
	v := detect(timeseries.FromValues(0, 5*time.Minute, vs), Config{})
	if v.Diurnal {
		t.Fatalf("random regimes detected as diurnal: %+v", v)
	}
	if v.Consistency > 0.5 {
		t.Fatalf("random regimes should have low consistency: %v", v.Consistency)
	}
}

func TestWeekdayWeekendAmplitudeStillDiurnal(t *testing.T) {
	// QCELL–NETPAGE: 35 ms weekday spikes, 15 ms weekend spikes — the
	// pattern differs in amplitude but stays diurnal.
	rng := rand.New(rand.NewSource(4))
	vs := make([]float64, 21*288)
	for i := range vs {
		tm := slotTime(i)
		amp := 35.0
		if tm.IsWeekend() {
			amp = 15
		}
		h := tm.HourOfDay()
		v := 1.5
		if h >= 10 && h < 16 {
			v += amp
		}
		vs[i] = v + math.Abs(0.5*rng.NormFloat64())
	}
	v := detect(timeseries.FromValues(0, 5*time.Minute, vs), Config{})
	if !v.Diurnal {
		t.Fatalf("amplitude-modulated diurnal rejected: %+v", v)
	}
}

func TestLossySeriesTolerated(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vs := grid(14, func(_ int, h float64) float64 {
		v := 2.0
		if h >= 12 && h < 20 {
			v = 20
		}
		return v + math.Abs(0.4*rng.NormFloat64())
	})
	for i := range vs {
		if rng.Float64() < 0.25 {
			vs[i] = timeseries.Missing
		}
	}
	if v := detect(timeseries.FromValues(0, 5*time.Minute, vs), Config{}); !v.Diurnal {
		t.Fatalf("lossy diurnal rejected: %+v", v)
	}
}

func TestTooFewDaysRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := series(3, func(_ int, h float64) float64 {
		v := 2.0
		if h >= 9 && h < 17 {
			v = 25
		}
		return v + math.Abs(0.3*rng.NormFloat64())
	})
	if v := detect(s, Config{MinDays: 5}); v.Diurnal {
		t.Fatalf("3-day series accepted: %+v", v)
	}
}

func TestSmallAmplitudeRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := series(14, func(_ int, h float64) float64 {
		v := 2.0
		if h >= 9 && h < 17 {
			v = 5 // only 3 ms swing
		}
		return v + math.Abs(0.2*rng.NormFloat64())
	})
	if v := detect(s, Config{MinAmplitudeMs: 8}); v.Diurnal {
		t.Fatalf("3 ms amplitude accepted: %+v", v)
	}
}

func TestEmptySeries(t *testing.T) {
	if v := detect(timeseries.FromValues(0, time.Minute, nil), Config{}); v.Diurnal {
		t.Fatal("empty series accepted")
	}
	s := series(1, func(int, float64) float64 { return timeseries.Missing })
	if v := detect(s, Config{}); v.Diurnal {
		t.Fatal("all-missing series accepted")
	}
}

func TestCorrelateEdgeCases(t *testing.T) {
	if _, ok := correlate([]float64{1, 2}, []float64{1, 2}, 1); ok {
		t.Fatal("fewer than 3 shared bins must fail")
	}
	if _, ok := correlate([]float64{1, 1, 1, 1}, []float64{1, 2, 3, 4}, 2); ok {
		t.Fatal("zero-variance profile must fail")
	}
	r, ok := correlate([]float64{1, 2, 3, 4}, []float64{2, 4, 6, 8}, 2)
	if !ok || math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect correlation: %v %v", r, ok)
	}
}

func TestFoldDecideMatchesDetect(t *testing.T) {
	// One fold gated by Decide at each amplitude threshold matches a
	// fresh fold and decision at that threshold, and the folded
	// statistics are independent of the amplitude gate — the property
	// the analysis threshold sweep exploits by folding once per link.
	// The shared scratch has folded another series first.
	rng := rand.New(rand.NewSource(31))
	s := series(10, func(_ int, h float64) float64 {
		v := 2.0
		if h >= 10 && h < 15 {
			v = 14
		}
		return v + math.Abs(0.4*rng.NormFloat64())
	})
	var scr Scratch
	FoldWith(series(3, func(int, float64) float64 { return 7 }), Config{}, &scr)
	shared := FoldWith(s, Config{}, &scr)
	for _, minAmp := range []float64{4, 8, 12, 16} {
		cfg := Config{MinAmplitudeMs: minAmp}
		want := detect(s, cfg)
		got := shared.Decide(cfg)
		if got != want {
			t.Fatalf("minAmp %v: shared fold+Decide %+v != fresh %+v", minAmp, got, want)
		}
		if refold := FoldWith(s, cfg, &scr); refold != shared {
			t.Fatalf("minAmp %v: folded statistics vary with the gate: %+v vs %+v",
				minAmp, refold, shared)
		}
	}
}

func TestFoldLeavesDecisionFalse(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	s := series(14, func(_ int, h float64) float64 {
		v := 2.0
		if h >= 9 && h < 17 {
			v = 25
		}
		return v + math.Abs(0.3*rng.NormFloat64())
	})
	if fold(s, Config{}).Diurnal {
		t.Fatal("FoldWith must not decide; Decide does")
	}
	if !fold(s, Config{}).Decide(Config{}).Diurnal {
		t.Fatal("gated fold should confirm the clean diurnal")
	}
}

// TestFoldGapNormalization pins the fold's missing-bin handling on a
// NaN-heavy series (>50% missing): every other sample knocked out plus
// three whole dark days, the VP-outage shape. The values are exact
// (40 ms peak / 10 ms floor, no noise), so present-only normalization
// must reproduce the full series' amplitude exactly — any zero-filled
// or expected-count fold would shrink it — and fully-missing days must
// drop out of the day count instead of dragging consistency down.
func TestFoldGapNormalization(t *testing.T) {
	shape := func(_ int, h float64) float64 {
		if h >= 9 && h < 17 {
			return 40
		}
		return 10
	}
	full := series(12, shape)
	vs := grid(12, shape)
	missing := 0
	for i := range vs {
		day := slotTime(i).Day()
		if i%2 == 0 || (day >= 4 && day < 7) {
			vs[i] = timeseries.Missing
			missing++
		}
	}
	if 2*missing < len(vs) {
		t.Fatalf("gap pattern too thin: %d/%d missing", missing, len(vs))
	}
	gappy := timeseries.FromValues(0, 5*time.Minute, vs)

	v := fold(gappy, Config{})
	if want := fold(full, Config{}).AmplitudeMs; v.AmplitudeMs != want {
		t.Fatalf("amplitude %v with gaps, %v without: fold normalization leaks missing bins",
			v.AmplitudeMs, want)
	}
	if v.AmplitudeMs != 30 {
		t.Fatalf("amplitude = %v, want exactly 30", v.AmplitudeMs)
	}
	if v.DaysEvaluated != 9 {
		t.Fatalf("days evaluated = %d, want 9 (12 minus 3 dark days)", v.DaysEvaluated)
	}
	if v.Consistency < 0.999 {
		t.Fatalf("consistency = %v on an exact profile", v.Consistency)
	}
	if dec := v.Decide(Config{}); !dec.Diurnal {
		t.Fatalf("gappy diurnal series rejected: %+v", dec)
	}
	if v.PeakHour < 9 || v.PeakHour >= 17 {
		t.Fatalf("peak hour = %v", v.PeakHour)
	}
}

// BenchmarkDiurnalFold is one sweep fold: FoldWith through a reused
// scratch over a compressed 255-day far-end series of 5-minute RTTs
// (73,440 slots, about 3% lost, microsecond resolution as a prober
// reports them) — the paper campaign's length, and the whole-campaign
// window a link without flagged events is folded over.
func BenchmarkDiurnalFold(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	s := series(255, func(_ int, h float64) float64 {
		if rng.Intn(32) == 0 {
			return timeseries.Missing
		}
		v := 20 + math.Abs(rng.NormFloat64())
		if h >= 18 && h < 23 {
			v += 12
		}
		return math.Round(v*1000) / 1000
	})
	var scr Scratch
	FoldWith(s, Config{}, &scr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FoldWith(s, Config{}, &scr)
	}
}
