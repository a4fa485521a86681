package cusum

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// pinSeeds are the edge cases of math/rand's seed reduction (zero,
// negatives, the modulus and its neighbours, the int64 extremes) plus
// the window seeds the level-shift detector derives (cfg seed + window
// offset).
var pinSeeds = []int64{
	0, 1, -1, 2, 89482311, -89482311,
	int32max, -int32max, int32max - 1, int32max + 1, -int32max - 1, 2 * int32max,
	math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	288, 576, 1 + 288*254, 7 + 48*3, 99,
}

// rngState reads math/rand's generator state through reflection —
// the only way to compare "the same 607 words" rather than an output
// prefix.
func rngState(t *testing.T, src rand.Source) (tap, feed int64, vec []int64) {
	t.Helper()
	v := reflect.ValueOf(src).Elem()
	tv, fv, vv := v.FieldByName("tap"), v.FieldByName("feed"), v.FieldByName("vec")
	if !tv.IsValid() || !fv.IsValid() || !vv.IsValid() || vv.Len() != rngLen {
		t.Fatalf("math/rand source layout changed (%s); re-pin lfSource against it", v.Type())
	}
	vec = make([]int64, rngLen)
	for i := range vec {
		vec[i] = vv.Index(i).Int()
	}
	return tv.Int(), fv.Int(), vec
}

func sameState(t *testing.T, seed int64, src rand.Source, got *lfSource) bool {
	t.Helper()
	tap, feed, vec := rngState(t, src)
	if int64(got.tap) != tap || int64(got.feed) != feed {
		t.Errorf("seed %d: tap/feed %d/%d, math/rand %d/%d", seed, got.tap, got.feed, tap, feed)
		return false
	}
	for i := range vec {
		if got.vec[i] != vec[i] {
			t.Errorf("seed %d: vec[%d] = %d, math/rand %d", seed, i, got.vec[i], vec[i])
			return false
		}
	}
	return true
}

func TestLFSourceSeedMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), pinSeeds...)
	gen := rand.New(rand.NewSource(20161017))
	for i := 0; i < 4000; i++ {
		seeds = append(seeds, gen.Int63()-gen.Int63())
	}
	var src lfSource
	for _, seed := range seeds {
		src.seed(seed)
		if !sameState(t, seed, rand.NewSource(seed), &src) {
			return
		}
	}
}

func TestLFSourceJumpMultipliers(t *testing.T) {
	// The jump-ahead constants against a plain step-by-step chain.
	x := uint64(1)
	for k := 1; k <= 23; k++ {
		x = x * seedMul % int32max
		want := map[int]uint64{3: seedJump3, 21: seedJump21, 22: seedJump22, 23: seedJump23}
		if w, ok := want[k]; ok && w != x {
			t.Fatalf("48271^%d mod (2^31-1) = %d, have %d", k, x, w)
		}
	}
}

func TestLFSourceInt63Stream(t *testing.T) {
	var src lfSource
	for _, seed := range pinSeeds {
		ref := rand.New(rand.NewSource(seed))
		src.seed(seed)
		for i := 0; i < 5000; i++ {
			if got, want := src.int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d draw %d: %d, math/rand %d", seed, i, got, want)
			}
		}
	}
}

func TestLFSourceShufflePermutation(t *testing.T) {
	var src lfSource
	for _, seed := range pinSeeds {
		ref := rand.New(rand.NewSource(seed))
		src.seed(seed)
		for _, n := range []int{0, 1, 2, 3, 4, 7, 48, 288, 301} {
			want := make([]float64, n)
			for i := range want {
				want[i] = float64(i)
			}
			got := append([]float64(nil), want...)
			for round := 0; round < 3; round++ {
				ref.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
				fisherYates(&src, got, len(got))
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d n %d round %d: permutation differs", seed, n, round)
				}
			}
		}
		if got, want := src.int63(), ref.Int63(); got != want {
			t.Fatalf("seed %d: stream diverged after shuffles", seed)
		}
	}
}

// countingSource counts the draws math/rand makes through it.
type countingSource struct {
	rand.Source64
	draws int
}

func (c *countingSource) Int63() int64   { c.draws++; return c.Source64.Int63() }
func (c *countingSource) Uint64() uint64 { c.draws++; return c.Source64.Uint64() }

// TestLFSourceShuffleRejectionPath shuffles slices long enough that
// int31n's rejection branch (probability bound/2³² per draw) is taken
// several times per shuffle, and its redraw loop now and then. The
// permutations and the stream afterwards must still match math/rand,
// and the reference's draw count proves redraws really happened.
func TestLFSourceShuffleRejectionPath(t *testing.T) {
	const n = 1 << 18
	redraws := 0
	for _, seed := range pinSeeds[:4] {
		cs := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
		ref := rand.New(cs)
		var src lfSource
		src.seed(seed)
		want := make([]float64, n)
		for i := range want {
			want[i] = float64(i)
		}
		got := append([]float64(nil), want...)
		for round := 0; round < 2; round++ {
			before := cs.draws
			ref.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
			redraws += cs.draws - before - (n - 1)
			fisherYates(&src, got, len(got))
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d round %d: permutation differs", seed, round)
			}
		}
		if got, want := src.int63(), ref.Int63(); got != want {
			t.Fatalf("seed %d: stream diverged after shuffles", seed)
		}
	}
	t.Logf("%d redraws in int31n's rejection loop", redraws)
	if redraws == 0 {
		t.Fatal("no shuffle took int31n's redraw loop; the rejection path went untested")
	}
}

func TestLFSourceSkipShufflesMatchesShuffling(t *testing.T) {
	for _, seed := range pinSeeds {
		for _, n := range []int{0, 1, 2, 5, 288} {
			var a, b lfSource
			a.seed(seed)
			b.seed(seed)
			xs := make([]float64, n)
			for k := 0; k < 7; k++ {
				fisherYates(&a, xs, len(xs))
			}
			b.skipShuffles(n, 7)
			if a != b {
				t.Fatalf("seed %d n %d: skipShuffles state differs from shuffling", seed, n)
			}
		}
	}
}

func BenchmarkLFSourceSeed(b *testing.B) {
	var src lfSource
	for i := 0; i < b.N; i++ {
		src.seed(int64(i))
	}
}

func BenchmarkMathRandSeed(b *testing.B) {
	r := rand.New(rand.NewSource(0))
	for i := 0; i < b.N; i++ {
		r.Seed(int64(i))
	}
}
