package cusum

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// rankSegment draws a window of n ranks from a quick.Check draw, with
// ties when quantized, and returns a sub-segment [lo, hi) of it. Sub-
// segments of ranked windows are what inner bootstrap tests see: their
// sum is rarely a multiple of their length, so their float mean is
// inexact and the float chart rounds.
func rankSegment(rng *rand.Rand, n int, quantize bool) (seg []float64, w int) {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		if i >= n/2 && rng.Intn(2) == 0 {
			xs[i] += 2
		}
		if quantize {
			xs[i] = math.Round(xs[i])
		}
	}
	r := Ranks(xs)
	lo := rng.Intn(n / 2)
	hi := n - rng.Intn(n/2)
	if hi-lo < 4 {
		lo, hi = 0, n
	}
	return r[lo:hi], n
}

// Property: for every shuffle, intJudge.below decides exactly as
// rangeBelow on the same permutation of the float values, over small
// rank segments with ties and inexact means. The two charts are
// shuffled by generators started from one seed, so they permute alike.
// Across the run the rescan path must have run, and some exact ties
// with the observed range must have been decided "below" by the float
// code — decisions the integer chart alone, with no error band, would
// get wrong.
func TestQuickIntChartMatchesRangeBelow(t *testing.T) {
	var rescans, tiesBelow, shuffles int
	f := func(seed int64, n8 uint8, quantize bool) bool {
		rng := rand.New(rand.NewSource(seed))
		seg, w := rankSegment(rng, int(n8%40)+8, quantize)
		_, observed := maxCusumSplit(seg)
		if observed <= 0 {
			return true
		}
		j := newIntJudge(seg, observed, w, nil, nil)
		ys := j.ys
		obsD := chartRange(ys)
		xs := append([]float64(nil), seg...)
		var a, b lfSource
		a.seed(seed)
		b.seed(seed)
		for k := 0; k < 200; k++ {
			fisherYates(&a, ys, len(ys))
			fisherYates(&b, xs, len(xs))
			want := rangeBelow(xs, mean(seg), observed)
			if r := chartRange(ys); r >= j.surelyBelow && r < j.surelyNot {
				rescans++
			}
			if got := j.below(ys); got != want {
				t.Logf("seed=%d shuffle %d: integer judge says %v, rangeBelow %v", seed, k, got, want)
				return false
			}
			if chartRange(ys) == obsD && want {
				tiesBelow++
			}
			shuffles++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d shuffles, %d rescans, %d exact ties decided below", shuffles, rescans, tiesBelow)
	if rescans == 0 || tiesBelow == 0 {
		t.Fatalf("the inputs never forced a rescan (%d) or a tie decided below (%d)", rescans, tiesBelow)
	}
}

// Property: the candidate phase equals the oracle bit for bit on the
// inputs that send the integer chart to its float rescan most often:
// short windows of heavily tied values (exact range ties), low
// confidence gates that accept and recurse into sub-segments with
// inexact means, and window lengths that do not divide the series.
func TestQuickBootstrapRescanMatchesOracle(t *testing.T) {
	confs := []float64{0.3, 0.5, 0.7, 0.8, 0.9}
	f := func(seed int64, n16 uint16, win8, boots8, conf8, minSeg8, mode uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n16%300) + 1
		win := int(win8%20) + 5
		cfg := Config{
			Bootstraps: int(boots8%80) + 1,
			Confidence: confs[int(conf8)%len(confs)],
			MinSegment: int(minSeg8 % 4),
			UseRanks:   true,
		}
		xs := oracleSeries(rng, n, mode|2)
		got, want := NewDetector(cfg), newOracleDetector(cfg)
		var gc, wc []Candidate
		for lo := 0; lo < n; lo += win {
			hi := min(lo+win, n)
			gc = got.AppendCandidates(gc, xs[lo:hi], seed+int64(lo%97))
			wc = want.AppendCandidates(wc, xs[lo:hi], seed+int64(lo%97))
		}
		if !sameCandidates(gc, wc) {
			t.Logf("n=%d win=%d cfg=%+v: got %v, want %v", n, win, cfg, gc, wc)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The integer chart serves windows shorter than intChartMax; a window
// at the cap takes the float path. Both sides of the cap match the
// oracle. Each window holds one large step, so the root test runs its
// full bootstrap, and a short bootstrap keeps the million-sample
// shuffles few.
func TestBootstrapAtIntChartCapMatchesOracle(t *testing.T) {
	cfg := Config{Bootstraps: 4, Confidence: 0.7, UseRanks: true}
	for _, n := range []int{intChartMax - 1, intChartMax} {
		rng := rand.New(rand.NewSource(int64(n)))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Round(4 * rng.NormFloat64())
			if i >= n/3 {
				xs[i] += 40
			}
		}
		got := NewDetector(cfg).AppendCandidates(nil, xs, 11)
		want := newOracleDetector(cfg).AppendCandidates(nil, xs, 11)
		if len(got) == 0 || !sameCandidates(got, want) {
			t.Fatalf("n=%d: got %v, want %v", n, got, want)
		}
	}
}

// A memoized seed restores the state seeding computes, past the memo's
// cap too: one detector fed more distinct seeds than seedMemoCap, each
// twice, in two orders, matches a fresh detector per window.
func TestSeedMemoMatchesFreshSeeding(t *testing.T) {
	cfg := Config{Bootstraps: 60, Confidence: 0.95, MinSegment: 2, UseRanks: true}
	xs := make([]float64, 48)
	rng := rand.New(rand.NewSource(5))
	for i := range xs {
		xs[i] = 20 + rng.NormFloat64()
		if i >= 30 {
			xs[i] += 3
		}
	}
	shared := NewDetector(cfg)
	n := seedMemoCap + 100
	for pass := 0; pass < 2; pass++ {
		for k := 0; k < n; k++ {
			seed := int64(k)
			if pass == 1 {
				seed = int64(n - 1 - k)
			}
			got := shared.AppendCandidates(nil, xs, seed)
			want := NewDetector(cfg).AppendCandidates(nil, xs, seed)
			if !sameCandidates(got, want) {
				t.Fatalf("pass %d seed %d: got %v, want %v", pass, seed, got, want)
			}
		}
	}
	if len(shared.seeds) != seedMemoCap {
		t.Fatalf("memo holds %d seeds, want its cap %d", len(shared.seeds), seedMemoCap)
	}
}
