package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// Property: the min-aggregate of a series never exceeds any present
// input in its bin, and covers all inputs.
func TestQuickAggregateMinBound(t *testing.T) {
	f := func(seed int64, n8, factor8 uint8) bool {
		n := int(n8%200) + 10
		factor := int(factor8%10) + 1
		rng := rand.New(rand.NewSource(seed))
		vals := filled(n, missing)
		for i := range vals {
			if rng.Float64() < 0.8 {
				vals[i] = rng.Float64() * 100
			}
		}
		agg := collect(FromValues(0, 5*time.Minute, vals).Aggregate(factor, Min))
		for i, v := range vals {
			if IsMissing(v) {
				continue
			}
			av := agg[i/factor]
			if IsMissing(av) || av > v+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := int(n8%100) + 2
		rng := rand.New(rand.NewSource(seed))
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = rng.NormFloat64() * 50
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(vs, q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		lo, hi := Quantile(vs, 0), Quantile(vs, 1)
		for _, v := range vs {
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: Slice never loses or invents samples — concatenating a
// two-way split reproduces the original present count.
func TestQuickSlicePartition(t *testing.T) {
	f := func(seed int64, n8, cut8 uint8) bool {
		n := int(n8%200) + 4
		rng := rand.New(rand.NewSource(seed))
		s := FromValues(0, time.Minute, filled(n, func(i int) float64 {
			if rng.Float64() < 0.7 {
				return float64(i)
			}
			return Missing
		}))
		cutIdx := int(cut8) % n
		cut := s.TimeAt(cutIdx)
		end := s.TimeAt(n)
		left := s.Slice(0, cut)
		right := s.Slice(cut, end)
		return left.PresentCount()+right.PresentCount() == s.PresentCount() &&
			left.Len()+right.Len() == s.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: FoldDaily bins partition the samples — the per-bin counts
// sum to the present count.
func TestQuickFoldDailyPartition(t *testing.T) {
	f := func(seed int64, days8 uint8) bool {
		days := int(days8%10) + 1
		rng := rand.New(rand.NewSource(seed))
		s := FromValues(0, 30*time.Minute, filled(days*48, func(int) float64 {
			if rng.Float64() < 0.6 {
				return rng.Float64()
			}
			return Missing
		}))
		count := 0
		counts := s.FoldDaily(30*time.Minute, func(vs []float64) float64 {
			count += len(vs)
			return 0
		})
		return count == s.PresentCount() && len(counts) == 48
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
