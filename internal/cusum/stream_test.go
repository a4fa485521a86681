package cusum

import (
	"math"
	"math/rand"
	"testing"
)

// A flat noisy series should keep evidence low; a level shift of a few
// noise units should push it well above the flat ceiling, and the
// evidence should relax again once the baseline absorbs the new level.
func TestStreamDetectsLevelShift(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := Stream{}

	var flatMax float64
	for i := 0; i < 500; i++ {
		s.Observe(10 + rng.NormFloat64())
		if i > 50 && s.Evidence() > flatMax {
			flatMax = s.Evidence()
		}
	}
	var shiftMax float64
	for i := 0; i < 200; i++ {
		s.Observe(16 + rng.NormFloat64())
		if s.Evidence() > shiftMax {
			shiftMax = s.Evidence()
		}
	}
	if shiftMax < 4*flatMax || shiftMax < 10 {
		t.Fatalf("shift evidence %.2f not clearly above flat ceiling %.2f", shiftMax, flatMax)
	}
	for i := 0; i < 3000; i++ {
		s.Observe(16 + rng.NormFloat64())
	}
	if rel := s.Evidence(); rel > shiftMax/2 {
		t.Fatalf("evidence did not relax after absorption: %.2f (peak %.2f)", rel, shiftMax)
	}
}

func TestStreamNegativeShiftSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	up := Stream{}
	down := Stream{}
	for i := 0; i < 400; i++ {
		e := rng.NormFloat64()
		up.Observe(50 + e)
		down.Observe(50 + e)
	}
	var u, d float64
	for i := 0; i < 100; i++ {
		e := rng.NormFloat64()
		up.Observe(55 + e)
		down.Observe(45 + e)
		u = math.Max(u, up.Evidence())
		d = math.Max(d, down.Evidence())
	}
	if u < 5 || d < 5 || math.Abs(u-d) > 0.3*math.Max(u, d) {
		t.Fatalf("one-sided asymmetry: up peak=%.2f down peak=%.2f", u, d)
	}
}

// Two taps fed identical values must hold bit-identical state — the
// budget scheduler's determinism rests on this.
func TestStreamBitDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Stream{}
	b := Stream{}
	for i := 0; i < 1000; i++ {
		x := 20 + 5*rng.NormFloat64()
		if i%3 == 0 {
			x += 8
		}
		a.Observe(x)
		b.Observe(x)
	}
	if math.Float64bits(a.Evidence()) != math.Float64bits(b.Evidence()) ||
		math.Float64bits(a.Baseline()) != math.Float64bits(b.Baseline()) ||
		math.Float64bits(a.Dev()) != math.Float64bits(b.Dev()) {
		t.Fatalf("streams diverged: %+v vs %+v", a, b)
	}
}

func TestStreamZeroValueUsable(t *testing.T) {
	var s Stream
	for i := 0; i < 100; i++ {
		s.Observe(float64(i % 3))
	}
	if s.Samples() != 100 {
		t.Fatalf("samples = %d", s.Samples())
	}
	if math.IsNaN(s.Evidence()) || math.IsInf(s.Evidence(), 0) {
		t.Fatalf("evidence not finite: %v", s.Evidence())
	}
}

func TestStreamConstantSeriesNoEvidence(t *testing.T) {
	s := Stream{}
	for i := 0; i < 1000; i++ {
		s.Observe(25)
	}
	if ev := s.Evidence(); ev != 0 {
		t.Fatalf("constant series accumulated evidence %.3f", ev)
	}
}

func BenchmarkStreamObserve(b *testing.B) {
	s := Stream{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Observe(float64(i&127) * 0.25)
	}
}
