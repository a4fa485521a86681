package cusum

import (
	"math"
	"testing"
)

// lcg is a tiny deterministic generator so the tests are reproducible
// without seeding global state.
type lcg uint64

func (l *lcg) next() float64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return float64(*l>>11) / float64(1<<53)
}

// gauss approximates a standard normal via the sum of 12 uniforms.
func (l *lcg) gauss() float64 {
	var s float64
	for i := 0; i < 12; i++ {
		s += l.next()
	}
	return s - 6
}

func TestRankStreamFlatSeriesStaysQuiet(t *testing.T) {
	s := NewRankStream()
	r := lcg(1)
	maxEv := 0.0
	for i := 0; i < 2000; i++ {
		s.Observe(20 + r.gauss())
		if ev := s.Evidence(); ev > maxEv {
			maxEv = ev
		}
	}
	if maxEv >= 8 {
		t.Fatalf("flat gaussian series reached evidence %.2f; want < 8", maxEv)
	}
}

func TestRankStreamDetectsLevelShift(t *testing.T) {
	s := NewRankStream()
	r := lcg(2)
	for i := 0; i < 500; i++ {
		s.Observe(20 + r.gauss())
	}
	pre := s.Evidence()
	// 15 ms upward shift — three slots should already push the rank
	// statistic, and within a day of 30-min slots evidence must clear
	// the promotion bar by a wide margin.
	crossed := -1
	for i := 0; i < 48; i++ {
		s.Observe(35 + r.gauss())
		if s.Evidence() >= 8 && crossed < 0 {
			crossed = i
		}
	}
	if crossed < 0 {
		t.Fatalf("15 ms shift never reached evidence 8 (pre=%.2f post=%.2f)", pre, s.Evidence())
	}
	if !s.Upward() {
		t.Fatalf("upward shift classified as downward")
	}
	if crossed > 24 {
		t.Fatalf("evidence crossed only after %d shifted slots; want ≤ 24", crossed)
	}
}

func TestRankStreamRobustToSpikes(t *testing.T) {
	s := NewRankStream()
	r := lcg(3)
	maxEv := 0.0
	for i := 0; i < 2000; i++ {
		v := 20 + r.gauss()
		if i%40 == 7 {
			v += 500 // heavy-tailed RTT spike
		}
		s.Observe(v)
		if ev := s.Evidence(); ev > maxEv {
			maxEv = ev
		}
	}
	if maxEv >= 8 {
		t.Fatalf("sparse 500 ms spikes reached evidence %.2f; want < 8", maxEv)
	}
}

func TestRankStreamDeterministicAndResettable(t *testing.T) {
	a := NewRankStream()
	b := NewRankStream()
	r1, r2 := lcg(4), lcg(4)
	for i := 0; i < 700; i++ {
		a.Observe(20 + 10*r1.next())
		b.Observe(20 + 10*r2.next())
		if math.Float64bits(a.Evidence()) != math.Float64bits(b.Evidence()) {
			t.Fatalf("evidence diverged at sample %d: %v vs %v", i, a.Evidence(), b.Evidence())
		}
	}
	// Reset + replay must reproduce the same trajectory bit-for-bit —
	// the checkpoint-resume resync path depends on it.
	a.Reset()
	if a.Evidence() != 0 || a.Samples() != 0 {
		t.Fatalf("reset left state behind: ev=%v n=%d", a.Evidence(), a.Samples())
	}
	r3 := lcg(4)
	for i := 0; i < 700; i++ {
		a.Observe(20 + 10*r3.next())
	}
	if math.Float64bits(a.Evidence()) != math.Float64bits(b.Evidence()) {
		t.Fatalf("replay after reset diverged: %v vs %v", a.Evidence(), b.Evidence())
	}
}

func TestRankStreamObserveZeroAlloc(t *testing.T) {
	s := NewRankStream()
	r := lcg(5)
	for i := 0; i < 300; i++ {
		s.Observe(20 + r.gauss())
	}
	x := 21.5
	if n := testing.AllocsPerRun(200, func() { s.Observe(x); x += 0.1 }); n != 0 {
		t.Fatalf("Observe allocates %.1f/op; want 0", n)
	}
}
