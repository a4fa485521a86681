package cusum

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// Property: Ranks is a bijection onto {1..n} for distinct inputs, and
// order-preserving.
func TestQuickRanksBijection(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := int(n8%60) + 2
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		used := map[float64]bool{}
		for i := range xs {
			v := rng.Float64()
			for used[v] {
				v = rng.Float64()
			}
			used[v] = true
			xs[i] = v
		}
		r := Ranks(xs)
		sorted := append([]float64(nil), r...)
		sort.Float64s(sorted)
		for i, v := range sorted {
			if v != float64(i+1) {
				return false
			}
		}
		// Order preservation.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if (xs[i] < xs[j]) != (r[i] < r[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: ranks are invariant under any strictly monotone transform
// of the inputs — the robustness the paper buys with the rank-based
// CUSUM.
func TestQuickRanksMonotoneInvariance(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := int(n8%60) + 2
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		ys := make([]float64, n)
		for i, x := range xs {
			ys[i] = x*x*x + 5*x // strictly increasing
		}
		ra, rb := Ranks(xs), Ranks(ys)
		for i := range ra {
			if ra[i] != rb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: one candidate list filtered at increasing magnitude
// thresholds yields monotonically fewer change points, and each
// filtered list equals a from-scratch detection at that threshold.
func TestQuickApplyMagnitudeSweep(t *testing.T) {
	f := func(seed int64, n8 uint8, mag uint8) bool {
		n := int(n8%150) + 50
		m := float64(mag%30) + 5
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		for i := range xs {
			v := 5.0
			if i >= n/2 {
				v += m
			}
			xs[i] = v + rng.NormFloat64()
		}
		d := NewDetector(Config{UseRanks: true})
		cands := d.AppendCandidates(nil, xs, seed)
		prevLen := len(cands) + 1
		for _, minMag := range []float64{0, 3, 9, 27} {
			got, _ := ApplyMagnitudeInto(nil, nil, xs, cands, minMag)
			if len(got) > prevLen {
				return false
			}
			prevLen = len(got)
			want := detect(xs, Config{Seed: seed}, minMag)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: detected change points are strictly increasing, inside
// the series, and magnitudes respect the threshold.
func TestQuickDetectInvariants(t *testing.T) {
	f := func(seed int64, n8 uint8, shiftAt uint8, mag uint8) bool {
		n := int(n8%200) + 40
		cut := int(shiftAt) % (n - 20)
		if cut < 10 {
			cut = 10
		}
		m := float64(mag%40) + 5
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		for i := range xs {
			v := 5.0
			if i >= cut {
				v += m
			}
			xs[i] = v + rng.NormFloat64()
		}
		cps := detect(xs, Config{Seed: seed}, 3)
		prev := -1
		for _, cp := range cps {
			if cp.Index <= prev || cp.Index <= 0 || cp.Index >= n {
				return false
			}
			prev = cp.Index
			if abs(cp.Magnitude()) < 3 {
				return false
			}
			if cp.Confidence < 0 || cp.Confidence > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
