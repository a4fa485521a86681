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

// seqMean is the sequential mean ApplyMagnitudeInto computes.
func seqMean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// roundedUpStep finds a one-day window — k samples at a, then 48−k at
// b — whose computed level change exceeds its value range b−a: the
// rounding the screen's margin exists for.
func roundedUpStep(t *testing.T) (win []float64, mag float64) {
	t.Helper()
	for _, a := range []float64{0.1, 0.3, 0.7, 1.1, 2.3, 3.3, 4.7} {
		for _, d := range []float64{0.1, 0.2, 0.3, 1.7, 2.9, 5.1} {
			for k := 3; k <= 45; k++ {
				win = make([]float64, 48)
				for i := range win {
					win[i] = a
					if i >= k {
						win[i] = a + d
					}
				}
				mag = math.Abs(seqMean(win[k:]) - seqMean(win[:k]))
				if mag > win[47]-win[0] {
					return win, mag
				}
			}
		}
	}
	t.Fatal("no step window whose computed level change exceeds its range")
	return nil, 0
}

// A step whose computed level change rounds above the window's range
// survives at minMag equal to that change: the screen must not skip
// the window although its range is below minMag.
func TestScreenKeepsRoundedUpShift(t *testing.T) {
	win, mag := roundedUpStep(t)
	s := timeseries.FromValues(0, 30*time.Minute, win)
	cfg := DefaultConfig()
	thr := 2 * mag
	got := detect(s, cfg).AtThreshold(thr)
	if want := analyzeReference(s, cfg, thr); !resultsBitIdentical(got, want) || len(want.Shifts) != 1 {
		t.Fatalf("range %g, change %g: got %d shifts, want %d (exactly 1)", win[47]-win[0], mag, len(got.Shifts), len(want.Shifts))
	}
}

// screenSeries builds days of 30-minute bins whose windows exercise
// the screen: flat days whose range sits on a threshold's minMag, step
// days with decimal levels, days with a large shift, and noisy days,
// with gaps that move the window boundaries.
func screenSeries(rng *rand.Rand, days int, gapFrac float64) *timeseries.Series {
	vs := make([]float64, days*48)
	for d := 0; d < days; d++ {
		base := 2 + 20*rng.Float64()
		kind := rng.Intn(4)
		r := []float64{2.5, 5, 7.5, 10}[rng.Intn(4)] * (1 + []float64{-1e-3, -1e-15, 0, 1e-15, 1e-3}[rng.Intn(5)])
		k := 3 + rng.Intn(42)
		for i := 0; i < 48; i++ {
			var v float64
			switch kind {
			case 0: // flat, range exactly r
				v = base + r*rng.Float64()
				if i == 0 {
					v = base
				} else if i == 47 {
					v = base + r
				}
			case 1: // a step between decimal levels
				v = math.Round(base*10) / 10
				if i >= k {
					v += math.Round(r*10) / 10
				}
			case 2: // a large shift
				v = base + 0.5*rng.Float64()
				if i >= k {
					v += 30
				}
			case 3: // noise
				v = base + math.Abs(rng.NormFloat64())
			}
			vs[d*48+i] = v
		}
	}
	for i := range vs {
		if rng.Float64() < gapFrac {
			vs[i] = timeseries.Missing
		}
	}
	return timeseries.FromValues(0, 30*time.Minute, vs)
}

// boundaryThresholds returns thresholds whose minMag lands on, and one
// ulp either side of, each window's range and each level change
// ApplyMagnitudeInto computes for the window's candidates.
func boundaryThresholds(s *timeseries.Series, cfg Config) []float64 {
	var vals []float64
	for _, v := range values(s) {
		if !timeseries.IsMissing(v) {
			vals = append(vals, v)
		}
	}
	var out []float64
	add := func(minMag float64) {
		out = append(out, 2*minMag, 2*math.Nextafter(minMag, 0), 2*math.Nextafter(minMag, math.Inf(1)))
	}
	ccfg := cfg.Cusum
	ccfg.UseRanks = true
	det := cusum.NewDetector(ccfg)
	for lo := 0; lo < len(vals); lo += 48 {
		win := vals[lo:min(lo+48, len(vals))]
		lowest, highest := win[0], win[0]
		for _, v := range win {
			lowest, highest = min(lowest, v), max(highest, v)
		}
		add(highest - lowest)
		cps, _ := cusum.ApplyMagnitudeInto(nil, nil, win, det.AppendCandidates(nil, win, ccfg.Seed+int64(lo)), 0)
		for _, cp := range cps {
			add(math.Abs(cp.Magnitude()))
		}
	}
	return out
}

// Property: the screened Detection matches the single-shot reference
// at every threshold: thresholds on window ranges and level changes
// (and an ulp either side), thresholds far below every range, each
// asked twice in a random order, from two detections that share one
// detector, with working memory reused across series.
func TestQuickScreenMatchesUnscreened(t *testing.T) {
	det := cusum.NewDetector(cusum.Config{})
	var farScr, nearScr Scratch
	f := func(seed int64, days8, gap8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		days := int(days8%5) + 1
		cfg := DefaultConfig()
		cfg.Cusum.Seed = seed % 100
		far := screenSeries(rng, days, float64(gap8%20)/100)
		near := screenSeries(rng, days, float64(gap8%7)/100)
		farDet := Detect(det, far, cfg, &farScr)
		nearDet := Detect(det, near, cfg, &nearScr)

		thresholds := append([]float64{1e-9, 0.01, 5, 10, 15, 20}, boundaryThresholds(far, cfg)...)
		thresholds = append(thresholds, boundaryThresholds(near, cfg)...)
		asks := append(append([]float64(nil), thresholds...), thresholds...)
		rng.Shuffle(len(asks), func(i, j int) { asks[i], asks[j] = asks[j], asks[i] })
		for k, thr := range asks {
			s, d := far, farDet
			if k%2 == 1 {
				s, d = near, nearDet
			}
			if !resultsBitIdentical(d.AtThreshold(thr), analyzeReference(s, cfg, thr)) {
				t.Logf("seed=%d days=%d: threshold %v (ask %d) diverged", seed, days, thr, k)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
