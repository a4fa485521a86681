package levelshift

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"afrixp/internal/cusum"
	"afrixp/internal/timeseries"
)

// analyzeReference is the original single-shot §5.2 pipeline, kept
// verbatim as the oracle for the two-phase Detect/AtThreshold path. It
// re-runs the full windowed CUSUM (via cusumDetect, with the magnitude
// filter folded into each window's detection) at its one threshold —
// exactly what the single-shot analysis did before detection and
// classification were split. The threshold, once a Config field, is a
// parameter.
func analyzeReference(s *timeseries.Series, cfg Config, thresholdMs float64) Result {
	work := s
	if cfg.AggregateTo > 0 && cfg.AggregateTo > s.Step {
		factor := int(cfg.AggregateTo / s.Step)
		work = s.Aggregate(factor, timeseries.Min)
	}
	vals := make([]float64, 0, work.Len())
	slots := make([]int, 0, work.Len())
	for i, v := range values(work) {
		if !timeseries.IsMissing(v) {
			vals = append(vals, v)
			slots = append(slots, i)
		}
	}
	res := Result{Series: work}
	if len(vals) < 4 {
		return res
	}
	base := timeseries.Quantile(vals, 0.10)
	res.Baseline = base

	winSamples := 48
	if work.Step > 0 {
		if n := int(24 * time.Hour / work.Step); n >= 8 {
			winSamples = n
		}
	}
	ccfg := cfg.Cusum
	minMag := thresholdMs / 2

	elevation := make([]float64, len(vals))
	for lo := 0; lo < len(vals); lo += winSamples {
		hi := lo + winSamples
		if hi > len(vals) {
			hi = len(vals)
		}
		win := vals[lo:hi]
		wcfg := ccfg
		wcfg.Seed = ccfg.Seed + int64(lo)
		cps := cusumDetect(win, wcfg, minMag)
		res.Shifts = append(res.Shifts, offsetShifts(cps, lo)...)
		bounds := []int{0}
		for _, cp := range cps {
			bounds = append(bounds, cp.Index)
		}
		bounds = append(bounds, len(win))
		for k := 0; k+1 < len(bounds); k++ {
			a, b := bounds[k], bounds[k+1]
			if b <= a {
				continue
			}
			level := timeseries.Quantile(win[a:b], 0.5)
			if level-base >= thresholdMs {
				for i := lo + a; i < lo+b; i++ {
					elevation[i] = level - base
				}
			}
		}
	}

	for i := 0; i < len(vals); {
		if vals[i]-base < thresholdMs {
			i++
			continue
		}
		j := i
		for j < len(vals) && vals[j]-base >= thresholdMs {
			j++
		}
		if j-i >= 2 {
			for k := i; k < j; k++ {
				if e := vals[k] - base; e > elevation[k] {
					elevation[k] = e
				}
			}
		}
		i = j
	}

	var events []Event
	i := 0
	for i < len(elevation) {
		if elevation[i] <= 0 {
			i++
			continue
		}
		j := i
		var sum float64
		for j < len(elevation) && elevation[j] > 0 {
			sum += elevation[j]
			j++
		}
		events = append(events, Event{
			Start:     work.TimeAt(slots[i]),
			End:       work.TimeAt(slots[j-1] + 1),
			Magnitude: sum / float64(j-i),
			OpenEnded: j == len(elevation),
		})
		i = j
	}
	res.Events = filterShort(events, cfg.MinDuration)
	return res
}

// cusumDetect is the single-shot rank-CUSUM detection the oracle was
// written against: a fresh rank-mode detector's candidates under
// cfg.Seed, filtered at minMag.
func cusumDetect(xs []float64, cfg cusum.Config, minMag float64) []cusum.ChangePoint {
	cfg.UseRanks = true
	cps, _ := cusum.ApplyMagnitudeInto(nil, nil, xs, cusum.NewDetector(cfg).AppendCandidates(nil, xs, cfg.Seed), minMag)
	return cps
}

// offsetShifts rebases change-point indices from window space into the
// compacted series, as the single-shot pipeline did.
func offsetShifts(cps []cusum.ChangePoint, off int) []cusum.ChangePoint {
	out := make([]cusum.ChangePoint, len(cps))
	for i, cp := range cps {
		cp.Index += off
		out[i] = cp
	}
	return out
}

// detect is Detect through a fresh detector and scratch.
func detect(s *timeseries.Series, cfg Config) *Detection {
	return Detect(cusum.NewDetector(cusum.Config{}), s, cfg, &Scratch{})
}

// resultsBitIdentical compares two Results at the IEEE-bit level
// (NaN-holed series defeat reflect.DeepEqual).
func resultsBitIdentical(a, b Result) bool {
	if math.Float64bits(a.Baseline) != math.Float64bits(b.Baseline) {
		return false
	}
	if len(a.Shifts) != len(b.Shifts) || len(a.Events) != len(b.Events) {
		return false
	}
	for i := range a.Shifts {
		x, y := a.Shifts[i], b.Shifts[i]
		if x.Index != y.Index ||
			math.Float64bits(x.Confidence) != math.Float64bits(y.Confidence) ||
			math.Float64bits(x.Before) != math.Float64bits(y.Before) ||
			math.Float64bits(x.After) != math.Float64bits(y.After) {
			return false
		}
	}
	for i := range a.Events {
		x, y := a.Events[i], b.Events[i]
		if x.Start != y.Start || x.End != y.End || x.OpenEnded != y.OpenEnded ||
			math.Float64bits(x.Magnitude) != math.Float64bits(y.Magnitude) {
			return false
		}
	}
	if (a.Series == nil) != (b.Series == nil) {
		return false
	}
	if a.Series != nil {
		if a.Series.Len() != b.Series.Len() || a.Series.Step != b.Series.Step {
			return false
		}
		bv := values(b.Series)
		for i, v := range values(a.Series) {
			if math.Float64bits(v) != math.Float64bits(bv[i]) {
				return false
			}
		}
	}
	return true
}

// propertySeries builds a random series with diurnal plateaus, level
// regimes, gaps, and events that straddle detection-window boundaries.
func propertySeries(seed int64, days int, gapFrac float64, shape uint8) *timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	n := days * 288
	vs := make([]float64, n)
	level := 0.0
	for i := range vs {
		t := slotTime(i)
		v := 3 + math.Abs(0.5*rng.NormFloat64())
		switch shape % 4 {
		case 0: // daytime plateau (window-interior events)
			if h := t.HourOfDay(); h >= 9 && h < 16 {
				v += 14
			}
		case 1: // plateau straddling midnight, i.e. the window boundary
			if h := t.HourOfDay(); h >= 21 || h < 4 {
				v += 18
			}
		case 2: // random regime shifts (slow-ICMP lookalike)
			if rng.Intn(200) == 0 {
				if level == 0 {
					level = 12 + 10*rng.Float64()
				} else {
					level = 0
				}
			}
			v += level
		case 3: // flat with one mid-series permanent shift
			if i >= n/2 {
				v += 16
			}
		}
		vs[i] = v
	}
	// Gaps: missing samples, in runs, so compaction shifts windows.
	for i := 0; i < n; i++ {
		if rng.Float64() < gapFrac {
			run := 1 + rng.Intn(6)
			for k := i; k < i+run && k < n; k++ {
				vs[k] = timeseries.Missing
			}
			i += run
		}
	}
	return timeseries.FromValues(0, 5*time.Minute, vs)
}

// TestQuickTwoPhaseMatchesSingleShot is the sweep's core property: for
// random series (gap patterns included) and random thresholds,
// Detect(...).AtThreshold(t) is bit-identical to the original
// single-shot pipeline at threshold t — and one Detection serves every
// threshold.
func TestQuickTwoPhaseMatchesSingleShot(t *testing.T) {
	f := func(seed int64, days8, shape uint8, thr8 uint8, gap8 uint8) bool {
		days := int(days8%6) + 2
		gapFrac := float64(gap8%30) / 100
		cfg := DefaultConfig()
		cfg.Cusum.Seed = seed % 1000
		s := propertySeries(seed, days, gapFrac, shape)

		det := detect(s, cfg)
		thresholds := []float64{5, 10, 15, 20, float64(thr8%25) + 1}
		for _, thr := range thresholds {
			want := analyzeReference(s, cfg, thr)
			if !resultsBitIdentical(det.AtThreshold(thr), want) {
				t.Logf("mismatch: seed=%d days=%d shape=%d gap=%.2f thr=%g",
					seed, days, shape%4, gapFrac, thr)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestTwoPhaseTinyAndEmptySeries pins the degenerate paths: empty
// series, all-missing series, and series below the 4-sample floor must
// agree with the reference at every threshold.
func TestTwoPhaseTinyAndEmptySeries(t *testing.T) {
	cfg := DefaultConfig()
	cases := []*timeseries.Series{
		timeseries.FromValues(0, time.Minute, nil),
		fiveMinute(3, func(int) float64 { return timeseries.Missing }),
		fiveMinute(50, func(int) float64 { return timeseries.Missing }),
	}
	for ci, s := range cases {
		det := detect(s, cfg)
		for _, thr := range []float64{5, 10, 20} {
			if !resultsBitIdentical(det.AtThreshold(thr), analyzeReference(s, cfg, thr)) {
				t.Fatalf("case %d thr %g: degenerate series diverged", ci, thr)
			}
		}
	}
}

// TestDetectWithSharedDetector checks that one reused detector and
// scratch produce the same Detection as fresh ones per call, across
// series of different lengths (scratch carry-over must not leak).
func TestDetectWithSharedDetector(t *testing.T) {
	shared := cusum.NewDetector(cusum.Config{})
	var scr Scratch
	cfg := DefaultConfig()
	for trial := 0; trial < 6; trial++ {
		s := propertySeries(int64(trial+1), trial%4+2, 0.1, uint8(trial))
		a := Detect(shared, s, cfg, &scr)
		b := detect(s, cfg)
		for _, thr := range []float64{5, 10, 15, 20} {
			if !resultsBitIdentical(a.AtThreshold(thr), b.AtThreshold(thr)) {
				t.Fatalf("trial %d thr %g: shared-detector detection diverged", trial, thr)
			}
		}
	}
}
