package cusum

import (
	"math/rand"
	"reflect"
	"testing"
)

func step(n1 int, v1 float64, n2 int, v2 float64, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, 0, n1+n2)
	for i := 0; i < n1; i++ {
		out = append(out, v1+noise*rng.NormFloat64())
	}
	for i := 0; i < n2; i++ {
		out = append(out, v2+noise*rng.NormFloat64())
	}
	return out
}

// detect is the whole rank-CUSUM analysis over xs: the candidates of a
// fresh rank-mode detector seeded with cfg.Seed, filtered at minMag.
func detect(xs []float64, cfg Config, minMag float64) []ChangePoint {
	cfg.UseRanks = true
	return detectWith(NewDetector(cfg), xs, cfg.Seed, minMag)
}

// detectWith is detect on a caller's detector, as configured.
func detectWith(d *Detector, xs []float64, seed int64, minMag float64) []ChangePoint {
	cps, _ := ApplyMagnitudeInto(nil, nil, xs, d.AppendCandidates(nil, xs, seed), minMag)
	return cps
}

func TestDetectSingleStep(t *testing.T) {
	xs := step(100, 2, 100, 30, 0.5, 1)
	cps := detect(xs, Config{Seed: 7}, 0)
	if len(cps) != 1 {
		t.Fatalf("detected %d change points, want 1: %+v", len(cps), cps)
	}
	cp := cps[0]
	if cp.Index < 95 || cp.Index > 105 {
		t.Fatalf("change point at %d, want ~100", cp.Index)
	}
	if cp.Magnitude() < 25 || cp.Magnitude() > 31 {
		t.Fatalf("magnitude %v, want ~28", cp.Magnitude())
	}
	if cp.Confidence < 0.95 {
		t.Fatalf("confidence %v", cp.Confidence)
	}
}

func TestDetectNoChangeOnFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = 10 + rng.NormFloat64()
	}
	cps := detect(xs, Config{Seed: 3}, 0)
	if len(cps) != 0 {
		t.Fatalf("flat noise produced %d change points: %+v", len(cps), cps)
	}
}

func TestDetectUpThenDown(t *testing.T) {
	// The level-shift pattern: baseline, congestion plateau, baseline.
	xs := append(step(80, 2, 60, 20, 0.3, 4), step(0, 0, 80, 2, 0.3, 5)...)
	cps := detect(xs, Config{Seed: 9}, 0)
	if len(cps) != 2 {
		t.Fatalf("want up+down, got %d: %+v", len(cps), cps)
	}
	if cps[0].Magnitude() < 10 || cps[1].Magnitude() > -10 {
		t.Fatalf("shift directions wrong: %+v", cps)
	}
	if !(cps[0].Index < cps[1].Index) {
		t.Fatal("change points must be ordered")
	}
}

func TestDetectMultipleLevels(t *testing.T) {
	var xs []float64
	levels := []float64{5, 25, 5, 40, 5}
	for _, l := range levels {
		xs = append(xs, step(60, l, 0, 0, 0.4, int64(l))...)
	}
	cps := detect(xs, Config{Seed: 11}, 3)
	if len(cps) != 4 {
		t.Fatalf("want 4 change points, got %d", len(cps))
	}
	for i, cp := range cps {
		want := (i + 1) * 60
		if cp.Index < want-5 || cp.Index > want+5 {
			t.Fatalf("cp %d at %d, want ~%d", i, cp.Index, want)
		}
	}
}

func TestRankRobustnessToOutliers(t *testing.T) {
	// A handful of giant outliers must not mask a modest shift.
	xs := step(150, 10, 150, 22, 0.5, 6)
	for i := 10; i < len(xs); i += 37 {
		xs[i] = 900 // ICMP stragglers
	}
	cps := detect(xs, Config{Seed: 13}, 0)
	if len(cps) == 0 {
		t.Fatal("rank-based detector should survive outliers")
	}
	found := false
	for _, cp := range cps {
		if cp.Index > 140 && cp.Index < 160 {
			found = true
		}
	}
	if !found {
		t.Fatalf("true shift at 150 not found: %+v", cps)
	}
}

func TestDetectRawFindsStep(t *testing.T) {
	xs := step(100, 1, 100, 50, 0.1, 8)
	cps := detectWith(NewDetector(Config{}), xs, 5, 0)
	if len(cps) != 1 || cps[0].Index < 95 || cps[0].Index > 105 {
		t.Fatalf("raw detect: %+v", cps)
	}
}

func TestDetectShortSeries(t *testing.T) {
	if got := detect([]float64{1, 2, 3}, Config{}, 0); len(got) != 0 {
		t.Fatal("series shorter than 2*MinSegment must yield nothing")
	}
	if got := detect(nil, Config{}, 0); len(got) != 0 {
		t.Fatal("nil series must yield nothing")
	}
}

func TestDetectDeterminism(t *testing.T) {
	xs := step(200, 3, 200, 18, 1.0, 10)
	a := detect(xs, Config{Seed: 42}, 0)
	b := detect(xs, Config{Seed: 42}, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must give identical detections")
	}
}

func TestMinSegmentRespected(t *testing.T) {
	xs := step(5, 0, 300, 10, 0.2, 12)
	cps := detect(xs, Config{MinSegment: 20, Seed: 1}, 0)
	for _, cp := range cps {
		if cp.Index < 20 || cp.Index > len(xs)-20 {
			t.Fatalf("change point %d violates MinSegment", cp.Index)
		}
	}
}

func TestBeforeAfterUseOriginalUnits(t *testing.T) {
	xs := step(100, 2, 100, 30, 0.2, 14)
	cps := detect(xs, Config{Seed: 2}, 0)
	if len(cps) != 1 {
		t.Fatalf("got %d cps", len(cps))
	}
	// Rank transform is internal: Before/After must be ~2 and ~30,
	// not rank values (~50 and ~150).
	if cps[0].Before > 5 || cps[0].After < 25 {
		t.Fatalf("levels in wrong units: %+v", cps[0])
	}
}

func TestMinMagnitudeFilter(t *testing.T) {
	// A 2-unit wiggle between two 30-unit shifts must be filtered at
	// a magnitude threshold of 10 while the real shifts survive.
	var xs []float64
	xs = append(xs, step(80, 5, 80, 35, 0.3, 20)...)
	xs = append(xs, step(80, 37, 80, 5, 0.3, 21)...)
	filtered := detect(xs, Config{Seed: 30}, 10)
	if len(filtered) != 2 {
		t.Fatalf("want 2 surviving shifts, got %d: %+v", len(filtered), filtered)
	}
	for _, cp := range filtered {
		if abs(cp.Magnitude()) < 10 {
			t.Fatalf("sub-threshold shift survived: %+v", cp)
		}
	}
	unfiltered := detect(xs, Config{Seed: 30}, 0)
	if len(unfiltered) < 3 {
		t.Fatalf("unfiltered run should also see the wiggle, got %d", len(unfiltered))
	}
}

func TestRanksMatchDetectorScratch(t *testing.T) {
	// Ranks and the detector's scratch-buffer variant share one
	// implementation; pin their equality (ties included) so the dedupe
	// cannot silently regress.
	rng := rand.New(rand.NewSource(77))
	d := NewDetector(Config{})
	for trial := 0; trial < 50; trial++ {
		xs := make([]float64, rng.Intn(200)+1)
		for i := range xs {
			xs[i] = float64(rng.Intn(20)) // many ties
		}
		if got, want := d.ranksInto(xs), Ranks(xs); !reflect.DeepEqual(append([]float64(nil), got...), want) {
			t.Fatalf("trial %d: ranksInto = %v, Ranks = %v", trial, got, want)
		}
	}
}

func TestReconfigureKeepsScratch(t *testing.T) {
	xs := step(100, 2, 100, 30, 0.5, 1)
	d := NewDetector(Config{UseRanks: true})
	before := detectWith(d, xs, 7, 0)
	d.Reconfigure(Config{UseRanks: true, Bootstraps: 50})
	after := detectWith(d, xs, 7, 5)
	want := detect(xs, Config{Seed: 7, Bootstraps: 50}, 5)
	if !reflect.DeepEqual(after, want) {
		t.Fatalf("reconfigured detector: %+v, want %+v", after, want)
	}
	if len(before) == 0 {
		t.Fatal("pre-reconfigure detection empty")
	}
}

func TestRanksAverageTies(t *testing.T) {
	got := Ranks([]float64{10, 20, 10, 30})
	want := []float64{1.5, 3, 1.5, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Ranks = %v, want %v", got, want)
	}
}

func TestRanksMonotone(t *testing.T) {
	xs := []float64{5, 1, 9, 3}
	r := Ranks(xs)
	if !(r[1] < r[3] && r[3] < r[0] && r[0] < r[2]) {
		t.Fatalf("rank order wrong: %v", r)
	}
}

func BenchmarkDetectYearHourly(b *testing.B) {
	// A year of hourly samples with a dozen shifts: the bulk-scan cost
	// per link in the Table 1 experiment.
	rng := rand.New(rand.NewSource(99))
	xs := make([]float64, 24*365)
	level := 5.0
	for i := range xs {
		if i%700 == 0 {
			if level == 5 {
				level = 25
			} else {
				level = 5
			}
		}
		xs[i] = level + rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		detect(xs, Config{Bootstraps: 50, Seed: 1}, 0)
	}
}

// BenchmarkBootstrapWindow is one detection window with a fresh seed
// per window, rank mode. The seeds cycle through a fixed 128 so ns/op
// does not drift with b.N (a chance acceptance on a flat window costs
// several times a rejection). "flat" and "shift" are a day of 5-minute
// RTTs (288 samples) under the default 100-shuffle bootstrap; "flat48"
// and "shift48" are the level-shift pipeline's own windows: a day of
// 30-minute minimum bins under its 60-shuffle bootstrap. The flat
// cases have no shift, so their root test is rejected — the common
// case across a campaign; the shift cases step up 25 ms for their last
// 30%, so accepted tests run their full bootstrap and recurse.
func BenchmarkBootstrapWindow(b *testing.B) {
	pipeline := Config{Bootstraps: 60, Confidence: 0.95, MinSegment: 2, UseRanks: true}
	for _, bc := range []struct {
		name string
		xs   []float64
		cfg  Config
	}{
		{"flat", step(144, 20, 144, 20, 1, 3), Config{UseRanks: true}},
		{"shift", step(200, 20, 88, 45, 1, 4), Config{UseRanks: true}},
		{"flat48", step(24, 20, 24, 20, 1, 3), pipeline},
		{"shift48", step(34, 20, 14, 45, 1, 4), pipeline},
	} {
		b.Run(bc.name, func(b *testing.B) {
			d := NewDetector(bc.cfg)
			var dst []Candidate
			// One untimed pass over the 128 seeds fills the detector's
			// seed memo, so B/op is the steady per-iteration cost for
			// any b.N.
			for seed := int64(0); seed < 128; seed++ {
				dst = d.AppendCandidates(dst[:0], bc.xs, seed)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = d.AppendCandidates(dst[:0], bc.xs, int64(i%128))
			}
		})
	}
}
