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

// ringFisherYates is fisherYates as it was before it ran in wrap-free
// stretches: every draw steps and wrap-tests both ring indices. It is
// the oracle the stretched loop is checked against. ringRejections
// counts the draws that took int31n's rejection branch.
var ringRejections int

func ringFisherYates[T int64 | float64](r *lfSource, xs []T, n int) {
	tap, feed := r.tap, r.feed
	for i := n - 1; i > 0; i-- {
		if tap--; tap < 0 {
			tap += rngLen
		}
		if feed--; feed < 0 {
			feed += rngLen
		}
		x := r.vec[feed] + r.vec[tap]
		r.vec[feed] = x
		bound := uint32(i + 1)
		prod := uint64(uint32(x&rngMask>>31)) * uint64(bound)
		if uint32(prod) < bound {
			ringRejections++
			r.tap, r.feed = tap, feed
			prod = r.int31nRetry(prod, bound)
			tap, feed = r.tap, r.feed
		}
		if xs != nil {
			j := int(prod >> 32)
			xs[i], xs[j] = xs[j], xs[i]
		}
	}
	r.tap, r.feed = tap, feed
}

// TestStretchedFisherYatesMatchesRingLoop runs 100k shuffles through
// the stretched loop and the per-draw ring loop from the same state:
// the permutations and the generator state after each must be equal,
// with swaps and in skip mode (xs == nil). n = 48 is the flat 48-bin
// window; the other sizes make stretches end on either index's wrap at
// every offset, and 1000 spans more than one full turn of the ring.
func TestStretchedFisherYatesMatchesRingLoop(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 48, 272, 273, 274, 333, 334, 335, 606, 607, 608, 1000}
	var a, b lfSource
	a.seed(pinSeeds[0])
	b = a
	xa, xb := make([]int64, 1000), make([]int64, 1000)
	for k := range xa {
		xa[k], xb[k] = int64(k), int64(k)
	}
	for s := 0; s < 100_000; s++ {
		n := sizes[s%len(sizes)]
		if s%3 == 0 {
			n = 48
		}
		if s%2 == 0 {
			fisherYates(&a, xa, n)
			ringFisherYates(&b, xb, n)
			if !slices.Equal(xa[:n], xb[:n]) {
				t.Fatalf("shuffle %d (n=%d): permutations differ", s, n)
			}
		} else {
			fisherYates[float64](&a, nil, n)
			ringFisherYates[float64](&b, nil, n)
		}
		if a != b {
			t.Fatalf("shuffle %d (n=%d, swaps %v): generator state differs", s, n, s%2 == 0)
		}
	}
}

// TestStretchedFisherYatesRejection covers int31nRetry inside a
// stretch: shuffles of 2¹⁸ elements take the rejection branch several
// times each, in both modes.
func TestStretchedFisherYatesRejection(t *testing.T) {
	const n = 1 << 18
	ringRejections = 0
	for _, seed := range pinSeeds[:2] {
		var a, b lfSource
		a.seed(seed)
		b = a
		xa, xb := make([]float64, n), make([]float64, n)
		for k := range xa {
			xa[k], xb[k] = float64(k), float64(k)
		}
		for round := 0; round < 2; round++ {
			fisherYates(&a, xa, n)
			ringFisherYates(&b, xb, n)
			if !slices.Equal(xa, xb) || a != b {
				t.Fatalf("seed %d round %d: stretched shuffle differs from the ring loop", seed, round)
			}
			fisherYates[float64](&a, nil, n)
			ringFisherYates[float64](&b, nil, n)
			if a != b {
				t.Fatalf("seed %d round %d: stretched skip differs from the ring loop", seed, round)
			}
		}
	}
	if ringRejections == 0 {
		t.Fatal("no draw took int31n's rejection branch; the retry path went untested")
	}
}
