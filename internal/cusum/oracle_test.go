package cusum

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// oracleDetector is the detector's candidate phase exactly as it was
// before the vendored generator, early rejection and range-only scans:
// math/rand's Shuffle with a swap closure, a full maxCusumSplit per
// shuffle, and closure sorts. It is kept verbatim as the reference the
// optimized bootstrap must match bit for bit.
type oracleDetector struct {
	cfg Config
	rng *rand.Rand

	ranks   []float64
	rankIdx []int
	shuf    []float64
	cps     []int
	confs   []float64
	order   []int
}

func newOracleDetector(cfg Config) *oracleDetector {
	return &oracleDetector{
		cfg: cfg.withDefaults(),
		rng: rand.New(rand.NewSource(0)),
	}
}

func (d *oracleDetector) AppendCandidates(dst []Candidate, xs []float64, seed int64) []Candidate {
	work := xs
	if d.cfg.UseRanks {
		work = d.ranksInto(xs)
	}
	d.rng.Seed(seed)
	d.cps = d.cps[:0]
	d.confs = d.confs[:0]
	d.segment(work, 0, len(work))

	d.order = d.order[:0]
	for i := range d.cps {
		d.order = append(d.order, i)
	}
	sort.Slice(d.order, func(a, b int) bool { return d.cps[d.order[a]] < d.cps[d.order[b]] })

	for _, oi := range d.order {
		dst = append(dst, Candidate{Index: d.cps[oi], Confidence: d.confs[oi]})
	}
	return dst
}

func (d *oracleDetector) ranksInto(xs []float64) []float64 {
	n := len(xs)
	if cap(d.rankIdx) < n {
		d.rankIdx = make([]int, n)
		d.ranks = make([]float64, n)
	}
	oracleRankInto(xs, d.rankIdx[:n], d.ranks[:n])
	return d.ranks[:n]
}

func (d *oracleDetector) segment(xs []float64, lo, hi int) {
	n := hi - lo
	if n < 2*d.cfg.MinSegment {
		return
	}
	idx, diff := oracleMaxCusumSplit(xs[lo:hi])
	if idx < d.cfg.MinSegment || idx > n-d.cfg.MinSegment {
		// Re-clamp: pick the best split within the allowed band.
		idx, diff = oracleMaxCusumSplitBounded(xs[lo:hi], d.cfg.MinSegment)
		if idx < 0 {
			return
		}
	}
	conf := d.bootstrapConfidence(xs[lo:hi], diff)
	if conf < d.cfg.Confidence {
		return
	}
	d.cps = append(d.cps, lo+idx)
	d.confs = append(d.confs, conf)
	d.segment(xs, lo, lo+idx)
	d.segment(xs, lo+idx, hi)
}

func oracleMaxCusumSplit(xs []float64) (int, float64) {
	m := mean(xs)
	var s, smax, smin float64
	argExt := 0
	absExt := 0.0
	for i, x := range xs {
		s += x - m
		if s > smax {
			smax = s
		}
		if s < smin {
			smin = s
		}
		if a := abs(s); a > absExt {
			absExt = a
			argExt = i
		}
	}
	return argExt + 1, smax - smin
}

func oracleMaxCusumSplitBounded(xs []float64, minSeg int) (int, float64) {
	m := mean(xs)
	var s, smax, smin float64
	argExt, absExt := -1, -1.0
	for i, x := range xs {
		s += x - m
		if s > smax {
			smax = s
		}
		if s < smin {
			smin = s
		}
		split := i + 1
		if split >= minSeg && split <= len(xs)-minSeg {
			if a := abs(s); a > absExt {
				absExt = a
				argExt = split
			}
		}
	}
	if argExt < 0 {
		return -1, 0
	}
	return argExt, smax - smin
}

func (d *oracleDetector) bootstrapConfidence(xs []float64, observed float64) float64 {
	if observed <= 0 {
		return 0
	}
	shuf := append(d.shuf[:0], xs...)
	d.shuf = shuf
	smaller := 0
	n := d.cfg.Bootstraps
	for b := 0; b < n; b++ {
		d.rng.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
		if _, diff := oracleMaxCusumSplit(shuf); diff < observed {
			smaller++
		}
	}
	return float64(smaller) / float64(n)
}

func oracleRankInto(xs []float64, idx []int, out []float64) {
	n := len(xs)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
}

// oracleSeries builds a test series from a quick.Check draw: level
// steps of random size and position, Gaussian or heavy-tailed noise,
// optionally quantized to force rank ties, optionally with NaNs (the
// detector never sees them from the level-shift path, which compacts
// gaps out, but ranks and raw scans must still agree on them).
func oracleSeries(rng *rand.Rand, n int, mode uint8) []float64 {
	xs := make([]float64, n)
	level := 5.0
	for i := range xs {
		if rng.Intn(60) == 0 {
			level = 5 + 30*rng.Float64()
		}
		v := level + rng.NormFloat64()
		if mode&1 != 0 {
			v = level + rng.ExpFloat64()*3
		}
		if mode&2 != 0 {
			v = math.Round(v) // ties
		}
		if mode&4 != 0 && rng.Intn(25) == 0 {
			v = math.NaN()
		}
		xs[i] = v
	}
	return xs
}

func sameCandidates(a, b []Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || math.Float64bits(a[i].Confidence) != math.Float64bits(b[i].Confidence) {
			return false
		}
	}
	return true
}

// Property: the optimized candidate phase equals the oracle bit for
// bit — indices and confidences — over chunked windows (one reused
// detector, window seeds offset as the level-shift detector derives
// them), rank and raw mode, ties, NaNs, and varied Bootstraps and
// Confidence, including the early-rejection-heavy high-confidence
// settings and confidences of 1 or more.
func TestQuickBootstrapMatchesOracle(t *testing.T) {
	confs := []float64{0, 0.5, 0.8, 0.9, 0.95, 0.99, 1, 1.2}
	f := func(seed int64, n16 uint16, win8, boots8, conf8, minSeg8, mode uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n16%900) + 1
		win := []int{8, 48, 288, 1 << 20}[win8%4]
		cfg := Config{
			Bootstraps: int(boots8 % 150),
			Confidence: confs[int(conf8)%len(confs)],
			MinSegment: int(minSeg8 % 6),
			UseRanks:   mode&8 == 0,
		}
		xs := oracleSeries(rng, n, mode)
		got, want := NewDetector(cfg), newOracleDetector(cfg)
		var gc, wc []Candidate
		for lo := 0; lo < n; lo += win {
			hi := min(lo+win, n)
			gc = got.AppendCandidates(gc, xs[lo:hi], seed+int64(lo))
			wc = want.AppendCandidates(wc, xs[lo:hi], seed+int64(lo))
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

// The rank transform's typed sort ranks exactly like the closure sort
// it replaced, NaNs and ties included.
func TestQuickRanksMatchOracle(t *testing.T) {
	f := func(seed int64, n16 uint16, mode uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := oracleSeries(rng, int(n16%500), mode|2)
		got := Ranks(xs)
		want := make([]float64, len(xs))
		oracleRankInto(xs, make([]int, len(xs)), want)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
