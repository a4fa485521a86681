package levelshift

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
)

// fiveMinute seals n 5-minute samples fn(0), ..., fn(n-1) from time 0.
func fiveMinute(n int, fn func(i int) float64) *timeseries.Series {
	return timeseries.FromValues(0, 5*time.Minute, fiveMinuteValues(n, fn))
}

// fiveMinuteValues is fiveMinute's values, for callers that punch gaps
// before sealing.
func fiveMinuteValues(n int, fn func(i int) float64) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = fn(i)
	}
	return vs
}

// slotTime is the time of a fiveMinute slot.
func slotTime(i int) simclock.Time { return simclock.Time(time.Duration(i) * 5 * time.Minute) }

// values reads a series back through Each.
func values(s *timeseries.Series) []float64 {
	out := make([]float64, 0, s.Len())
	s.Each(func(_ int, vs []float64) { out = append(out, vs...) })
	return out
}

// diurnalValues is `days` days of 5-minute RTT samples: baseline RTT
// with a plateau of +magnitude ms between startHour and endHour every
// day, plus Gaussian noise.
func diurnalValues(days int, baseline, magnitude float64, startHour, endHour int, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	return fiveMinuteValues(days*288, func(i int) float64 {
		v := baseline
		if h := slotTime(i).HourOfDay(); h >= float64(startHour) && h < float64(endHour) {
			v += magnitude
		}
		return v + math.Abs(noise*rng.NormFloat64())
	})
}

// diurnalSeries seals diurnalValues.
func diurnalSeries(days int, baseline, magnitude float64, startHour, endHour int, noise float64, seed int64) *timeseries.Series {
	return timeseries.FromValues(0, 5*time.Minute, diurnalValues(days, baseline, magnitude, startHour, endHour, noise, seed))
}

// analyze is the whole §5.2 pipeline at one threshold: a detection
// through a fresh detector and scratch, classified at thresholdMs.
func analyze(s *timeseries.Series, cfg Config, thresholdMs float64) Result {
	return detect(s, cfg).AtThreshold(thresholdMs)
}

func TestFlatSeriesNotFlagged(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := fiveMinute(7*288, func(int) float64 { return 2 + math.Abs(0.5*rng.NormFloat64()) })
	res := analyze(s, DefaultConfig(), 10)
	if res.Flagged() {
		t.Fatalf("flat series flagged: %+v", res.Events)
	}
}

func TestDiurnalCongestionDetected(t *testing.T) {
	// 10 days, 28 ms plateau from 09:00 to 17:00 — the GIXA–GHANATEL
	// shape. Expect ~10 events of ~8h duration and ~28 ms magnitude.
	s := diurnalSeries(10, 2, 28, 9, 17, 0.5, 2)
	res := analyze(s, DefaultConfig(), 10)
	if !res.Flagged() {
		t.Fatal("congested series not flagged")
	}
	if n := len(res.Events); n < 8 || n > 12 {
		t.Fatalf("events = %d, want ~10", n)
	}
	aw := res.AW()
	if aw < 24 || aw > 32 {
		t.Fatalf("A_w = %v, want ~28", aw)
	}
	d := res.MeanDuration()
	if d < 6*time.Hour || d > 10*time.Hour {
		t.Fatalf("Δt_UD = %v, want ~8h", d)
	}
	if res.Baseline > 4 {
		t.Fatalf("baseline = %v, want ~2", res.Baseline)
	}
}

func TestThresholdSensitivity(t *testing.T) {
	// A 12 ms plateau: flagged at 5 and 10 ms, not at 15 or 20 ms —
	// the Table 1 mechanism.
	s := diurnalSeries(10, 2, 12, 10, 16, 0.4, 3)
	for _, tc := range []struct {
		threshold float64
		flagged   bool
	}{{5, true}, {10, true}, {15, false}, {20, false}} {
		res := analyze(s, DefaultConfig(), tc.threshold)
		if res.Flagged() != tc.flagged {
			t.Errorf("threshold %v ms: flagged=%v, want %v (A_w %v)",
				tc.threshold, res.Flagged(), tc.flagged, res.AW())
		}
	}
}

func TestShortBlipsFiltered(t *testing.T) {
	// 15-minute spikes must not be flagged at MinDuration 30 min.
	rng := rand.New(rand.NewSource(4))
	s := fiveMinute(5*288, func(i int) float64 {
		v := 2 + math.Abs(0.3*rng.NormFloat64())
		if i%288 < 3 { // 15 minutes once a day
			v += 40
		}
		return v
	})
	cfg := DefaultConfig()
	res := analyze(s, cfg, 10)
	if res.Flagged() {
		t.Fatalf("15-minute blips flagged as congestion: %+v", res.Events)
	}
}

func TestOpenEndedSustainedCongestion(t *testing.T) {
	// RTT elevates halfway through and never recovers (GHANATEL phase
	// transition): one open-ended event.
	rng := rand.New(rand.NewSource(5))
	s := fiveMinute(6*288, func(i int) float64 {
		v := 2.0
		if i >= 3*288 {
			v = 30
		}
		return v + math.Abs(0.4*rng.NormFloat64())
	})
	res := analyze(s, DefaultConfig(), 10)
	if len(res.Events) != 1 {
		t.Fatalf("events = %d, want 1", len(res.Events))
	}
	if !res.Events[0].OpenEnded {
		t.Fatal("sustained elevation must be open-ended")
	}
	if res.MeanDuration() != 0 {
		t.Fatal("open-ended events are excluded from Δt_UD")
	}
}

func TestMissingSamplesTolerated(t *testing.T) {
	// 20% random loss must not break detection.
	vs := diurnalValues(10, 2, 25, 9, 17, 0.5, 6)
	rng := rand.New(rand.NewSource(7))
	for i := range vs {
		if rng.Float64() < 0.2 {
			vs[i] = timeseries.Missing
		}
	}
	res := analyze(timeseries.FromValues(0, 5*time.Minute, vs), DefaultConfig(), 10)
	if !res.Flagged() {
		t.Fatal("lossy congested series not flagged")
	}
	if aw := res.AW(); aw < 20 || aw > 30 {
		t.Fatalf("A_w = %v", aw)
	}
}

func TestEmptyAndTinySeries(t *testing.T) {
	if analyze(timeseries.FromValues(0, time.Minute, nil), DefaultConfig(), 10).Flagged() {
		t.Fatal("empty series flagged")
	}
	s := timeseries.FromValues(0, 5*time.Minute, []float64{1, timeseries.Missing, timeseries.Missing})
	if analyze(s, DefaultConfig(), 10).Flagged() {
		t.Fatal("tiny series flagged")
	}
}

func TestSanitizeMergesSplinteredEvents(t *testing.T) {
	h := func(hrs int) simclock.Time { return simclock.Time(time.Duration(hrs) * time.Hour) }
	events := []Event{
		{Start: h(0), End: h(2), Magnitude: 18},
		{Start: h(2) + simclock.Time(20*time.Minute), End: h(4), Magnitude: 16},
		{Start: h(10), End: h(12), Magnitude: 20},
	}
	out := Sanitize(events, 30*time.Minute, 30*time.Minute)
	if len(out) != 2 {
		t.Fatalf("sanitized to %d events, want 2", len(out))
	}
	if out[0].End != h(4) {
		t.Fatalf("merged event end = %v", out[0].End)
	}
	if out[0].Magnitude < 16 || out[0].Magnitude > 18 {
		t.Fatalf("merged magnitude = %v", out[0].Magnitude)
	}
	if out[1].Start != h(10) {
		t.Fatal("distant event must stay separate")
	}
}

func TestSanitizeDropsShortAfterMerge(t *testing.T) {
	h := func(m int) simclock.Time { return simclock.Time(time.Duration(m) * time.Minute) }
	events := []Event{{Start: h(0), End: h(10), Magnitude: 15}}
	if got := Sanitize(events, time.Minute, 30*time.Minute); len(got) != 0 {
		t.Fatalf("short event survived sanitize: %+v", got)
	}
	if got := Sanitize(nil, time.Minute, time.Minute); len(got) != 0 {
		t.Fatal("nil events must stay empty")
	}
}

func TestAWAndDurationEmpty(t *testing.T) {
	var r Result
	if r.AW() != 0 || r.MeanDuration() != 0 {
		t.Fatal("empty result metrics must be zero")
	}
}

func TestAggregationRespectsStep(t *testing.T) {
	s := diurnalSeries(5, 2, 25, 9, 17, 0.5, 8)
	cfg := DefaultConfig()
	cfg.AggregateTo = 30 * time.Minute
	res := analyze(s, cfg, 10)
	if res.Series.Step != 30*time.Minute {
		t.Fatalf("analyzed step = %v", res.Series.Step)
	}
	// Aggregation to a width below the native step keeps the series.
	cfg.AggregateTo = time.Minute
	res = analyze(s, cfg, 10)
	if res.Series.Step != 5*time.Minute {
		t.Fatal("sub-native aggregation must be a no-op")
	}
}
