// Package cusum implements Taylor-style change-point analysis: the
// cumulative-sum chart with bootstrap significance testing, applied
// recursively to segment a series into constant-level regions. The
// paper's level-shift detector "identifies changes in the direction of
// the rank-based non-parametric statistical cumulative sum (CUSUM)
// test as evidence of a level-shift" [Taylor 2000]; ranks make the
// test robust to the heavy-tailed RTT outliers ICMP measurement is
// full of.
package cusum

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Config tunes the detector.
type Config struct {
	// Bootstraps is the number of shuffles per significance test.
	// Default 100.
	Bootstraps int
	// Confidence in (0,1) required to accept a change point.
	// Default 0.95.
	Confidence float64
	// MinSegment is the minimum number of samples on each side of a
	// change point. Default 2.
	MinSegment int
	// UseRanks switches to the rank-based (non-parametric) variant
	// the paper uses; false keeps raw values.
	UseRanks bool
	// Seed makes the bootstrap deterministic. The detector itself
	// ignores it (AppendCandidates takes each window's seed); callers
	// derive their window seeds from it.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Bootstraps <= 0 {
		c.Bootstraps = 100
	}
	if c.Confidence <= 0 {
		c.Confidence = 0.95
	}
	if c.MinSegment < 2 {
		c.MinSegment = 2
	}
	return c
}

// ChangePoint is a detected shift between two constant-level segments.
type ChangePoint struct {
	// Index is the first sample of the new level.
	Index int
	// Confidence is the bootstrap confidence of the detection.
	Confidence float64
	// Before and After are the mean levels (of the original values,
	// not the ranks) on each side, over the local segments.
	Before, After float64
}

// Candidate is a change point accepted by the bootstrap significance
// test but not yet filtered by magnitude. Candidates depend only on
// the series, the detector configuration, and the seed — never on the
// magnitude threshold — which is what lets a threshold sweep detect
// once and filter many times (ApplyMagnitudeInto).
type Candidate struct {
	// Index is the first sample of the new level.
	Index int
	// Confidence is the bootstrap confidence of the detection.
	Confidence float64
}

// Magnitude returns the signed level change.
func (cp ChangePoint) Magnitude() float64 { return cp.After - cp.Before }

// Detector runs repeated change-point detections with one set of
// reusable scratch buffers (rank transform, bootstrap shuffle copy,
// candidate lists). The level-shift analyzer calls AppendCandidates
// once per detection window per link — reusing the scratch removes the
// dominant allocation cost of a campaign's analysis phase. Results do
// not depend on what the detector ran before: reseeding the generator
// produces the same stream as constructing it from the same seed, and
// every buffer is fully overwritten per call.
//
// A Detector is not safe for concurrent use; fan-out callers create one
// per goroutine.
type Detector struct {
	cfg Config
	src lfSource
	// seeds memoizes the generator state right after seeding, by seed.
	// Level-shift windows reseed with Seed+lo, so a campaign's tens of
	// thousands of windows draw from a few hundred seeds; a hit copies
	// the state instead of refilling it.
	seeds map[int64]*lfSource
	// slab is unused memo storage. It is allocated in runs that double
	// up to seedSlabMax states, so a detector that sees k seeds makes
	// O(log k) allocations instead of k, and one that sees a single
	// seed allocates a single state.
	slab []lfSource
	// exactSums is set while the window being analyzed holds ranks of
	// fewer than 2²⁶ samples: every partial sum is then a half-integer
	// below 2⁵², exact in float64 whatever the summation order.
	exactSums bool
	// intChart is set while the window holds ranks of fewer than
	// intChartMax samples: bootstrap tests then shuffle and scan the
	// exact integer chart (bootstrapInt). win is the window's length,
	// which bounds every rank in it.
	intChart bool
	win      int

	ranks   []float64
	rankIdx []int
	shuf    []float64
	ichart  []int64
	cps     []int
	confs   []float64
}

// seedMemoCap bounds a detector's seed memo: 1024 states of ≈4.9 KB.
// seedSlabMax caps one allocation of memo storage.
const (
	seedMemoCap = 1024
	seedSlabMax = 64
)

// intChartMax caps the window length of the integer chart. Below it a
// rank is at most 2²⁰, so every chart value, partial sum and range
// below fits an int64 (|T| < n²·W ≤ 2⁶⁰), and 2n·x stays below 2⁵³.
const intChartMax = 1 << 20

// NewDetector builds a reusable detector. cfg.Seed is ignored — each
// AppendCandidates call takes its own seed.
func NewDetector(cfg Config) *Detector {
	return &Detector{cfg: cfg.withDefaults()}
}

// Reconfigure swaps the detector's configuration while keeping its
// scratch buffers — fan-out callers thread one detector per worker
// across many analyses whose configs may differ.
func (d *Detector) Reconfigure(cfg Config) {
	d.cfg = cfg.withDefaults()
}

// AppendCandidates runs the expensive, threshold-independent phase —
// segmentation plus bootstrap significance — over xs with the given
// bootstrap seed and appends the accepted candidates to dst, sorted by
// index. Sweep callers batch every detection window's candidates into
// one reusable buffer and filter them with ApplyMagnitudeInto, once
// per magnitude threshold.
func (d *Detector) AppendCandidates(dst []Candidate, xs []float64, seed int64) []Candidate {
	work := xs
	if d.cfg.UseRanks {
		work = d.ranksInto(xs)
	}
	d.exactSums = d.cfg.UseRanks && len(work) < 1<<26
	d.intChart = d.cfg.UseRanks && len(work) < intChartMax
	d.win = len(work)
	d.reseed(seed)
	d.cps = d.cps[:0]
	d.confs = d.confs[:0]
	d.segment(work, 0, len(work), true)

	// Change points are distinct indices, so any sort yields the same
	// order.
	start := len(dst)
	for i, idx := range d.cps {
		dst = append(dst, Candidate{Index: idx, Confidence: d.confs[i]})
	}
	slices.SortFunc(dst[start:], func(a, b Candidate) int { return cmp.Compare(a.Index, b.Index) })
	return dst
}

// ApplyMagnitudeInto is the cheap per-threshold phase: it removes,
// weakest first, candidates whose level change across adjacent
// segments falls below minMag (re-merging the segments after each
// removal) and appends the survivors to dst as ChangePoints with
// Before/After levels under the final segmentation. cands must be
// sorted by Index (as AppendCandidates leaves them). keptBuf is
// reusable index scratch; it returns the appended slice and the
// (possibly grown) scratch for the next call. Pure in its inputs — the
// sweep analyzer filters the same candidates at several thresholds per
// link.
func ApplyMagnitudeInto(dst []ChangePoint, keptBuf []int, xs []float64, cands []Candidate, minMag float64) ([]ChangePoint, []int) {
	kept := keptBuf[:0]
	for _, c := range cands {
		kept = append(kept, c.Index)
	}
	if minMag > 0 {
		for len(kept) > 0 {
			// Compute each kept point's magnitude under current segmentation.
			weakest, weakestMag := -1, minMag
			for k, idx := range kept {
				lo := 0
				if k > 0 {
					lo = kept[k-1]
				}
				hi := len(xs)
				if k+1 < len(kept) {
					hi = kept[k+1]
				}
				mag := abs(mean(xs[idx:hi]) - mean(xs[lo:idx]))
				if mag < weakestMag {
					weakest, weakestMag = k, mag
				}
			}
			if weakest < 0 {
				break
			}
			kept = append(kept[:weakest], kept[weakest+1:]...)
		}
	}

	prev := 0
	for k, idx := range kept {
		next := len(xs)
		if k+1 < len(kept) {
			next = kept[k+1]
		}
		dst = append(dst, ChangePoint{
			Index:      idx,
			Confidence: confAt(cands, idx),
			Before:     mean(xs[prev:idx]),
			After:      mean(xs[idx:next]),
		})
		prev = idx
	}
	return dst, kept
}

// confAt looks up the bootstrap confidence recorded for index idx in
// the pre-filter candidate list (sorted by index).
func confAt(cands []Candidate, idx int) float64 {
	k := sort.Search(len(cands), func(i int) bool { return cands[i].Index >= idx })
	if k < len(cands) && cands[k].Index == idx {
		return cands[k].Confidence
	}
	return 0
}

// reseed seeds the generator, copying the state from the memo when
// this seed was seen before. The copy is the state seed computes, so
// the stream is the same.
func (d *Detector) reseed(seed int64) {
	if st, ok := d.seeds[seed]; ok {
		d.src = *st
		return
	}
	d.src.seed(seed)
	if len(d.seeds) < seedMemoCap {
		if d.seeds == nil {
			d.seeds = make(map[int64]*lfSource)
		}
		if len(d.slab) == 0 {
			d.slab = make([]lfSource, min(max(len(d.seeds), 1), seedSlabMax))
		}
		st := &d.slab[0]
		d.slab = d.slab[1:]
		*st = d.src
		d.seeds[seed] = st
	}
}

// ranksInto is Ranks writing into the detector's scratch buffers.
func (d *Detector) ranksInto(xs []float64) []float64 {
	n := len(xs)
	if cap(d.rankIdx) < n {
		d.rankIdx = make([]int, n)
		d.ranks = make([]float64, n)
	}
	rankInto(xs, d.rankIdx[:n], d.ranks[:n])
	return d.ranks[:n]
}

// segment recursively tests [lo,hi) for a change point. last reports
// that no significance test follows this segment's subtree in the
// window — the generator's state after it is never read — so a
// rejected test there need not advance the generator (see
// bootstrapConfidence). The left child is never last; the right child
// inherits.
func (d *Detector) segment(xs []float64, lo, hi int, last bool) {
	n := hi - lo
	if n < 2*d.cfg.MinSegment {
		return
	}
	idx, diff := maxCusumSplit(xs[lo:hi])
	if idx < d.cfg.MinSegment || idx > n-d.cfg.MinSegment {
		// Re-clamp: pick the best split within the allowed band.
		idx, diff = maxCusumSplitBounded(xs[lo:hi], d.cfg.MinSegment)
		if idx < 0 {
			return
		}
	}
	conf := d.bootstrapConfidence(xs[lo:hi], diff, last)
	if conf < d.cfg.Confidence {
		return
	}
	d.cps = append(d.cps, lo+idx)
	d.confs = append(d.confs, conf)
	d.segment(xs, lo, lo+idx, false)
	d.segment(xs, lo+idx, hi, last)
}

// maxCusumSplit computes the CUSUM chart of xs and returns the index
// after the extreme excursion (the estimated change point) plus the
// chart range Smax−Smin (the detection statistic).
func maxCusumSplit(xs []float64) (int, float64) {
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

// maxCusumSplitBounded restricts the split to [minSeg, n-minSeg].
func maxCusumSplitBounded(xs []float64, minSeg int) (int, float64) {
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

// bootstrapConfidence estimates how often a random reordering of xs
// produces a smaller CUSUM range than observed. The shuffle copy lives
// in detector scratch — this is the analysis phase's hot spot.
//
// The result is bit-identical to shuffling Bootstraps times with
// (*rand.Rand).Shuffle and counting maxCusumSplit ranges below
// observed, with four shortcuts that cannot change it:
//   - In rank mode the values are half-integers whose sums are exact in
//     any order (exactSums), so the chart's mean is computed once, not
//     per shuffle.
//   - Each shuffle's scan stops as soon as the range reaches observed
//     (rangeBelow).
//   - Below intChartMax samples, rank-mode shuffles scan the exact
//     integer chart and fall back to rangeBelow only where its float
//     range could land on the other side of observed (bootstrapInt).
//   - Once so many shuffles have failed that even all-smaller remaining
//     ones could not reach Confidence, the test is rejected on the spot.
//     A rejected test's confidence is never recorded, only compared, so
//     the returned value need only stay below Confidence — which the
//     partial count does. The generator is still advanced past the
//     skipped shuffles' draws, so later tests in the window see the
//     same stream, unless last says no later test exists.
func (d *Detector) bootstrapConfidence(xs []float64, observed float64, last bool) float64 {
	if observed <= 0 {
		return 0
	}
	if d.intChart {
		return d.bootstrapInt(xs, observed, last)
	}
	shuf := append(d.shuf[:0], xs...)
	d.shuf = shuf
	m := 0.0
	if d.exactSums {
		m = mean(xs)
	}
	return countBelow(d, shuf, last, func(shuf []float64) bool {
		if !d.exactSums {
			m = mean(shuf)
		}
		return rangeBelow(shuf, m, observed)
	})
}

// countBelow is the bootstrap's draw loop, shared by the float and
// the integer chart: Bootstraps Fisher–Yates shuffles of shuf, each
// judged by below, with early rejection (see bootstrapConfidence).
func countBelow[T int64 | float64](d *Detector, shuf []T, last bool, below func([]T) bool) float64 {
	n := d.cfg.Bootstraps
	smaller, failed := 0, 0
	for b := 0; b < n; b++ {
		fisherYates(&d.src, shuf, len(shuf))
		if below(shuf) {
			smaller++
			continue
		}
		failed++
		if float64(n-failed)/float64(n) < d.cfg.Confidence {
			if !last {
				d.src.skipShuffles(len(shuf), n-b-1)
			}
			break
		}
	}
	return float64(smaller) / float64(n)
}

// bootstrapInt is the rank-mode bootstrap over the exact integer
// chart: the same draws as the float path, each shuffle judged by an
// intJudge.
func (d *Detector) bootstrapInt(xs []float64, observed float64, last bool) float64 {
	j := newIntJudge(xs, observed, d.win, d.ichart, d.shuf)
	d.ichart, d.shuf = j.ys, j.fs
	return countBelow(d, j.ys, last, j.below)
}

// intJudge decides rangeBelow for shuffles of one rank segment from
// its exact integer chart. With Σ the sum of 2x over the segment's n
// values, the chart of y_i = n·2x_i − Σ is 2n times the exact CUSUM
// chart, so its range D is an integer. rangeBelow's float range F of
// the same shuffle sits within chartErrorBound of D/2n (DESIGN.md
// §8.1). So a shuffle with D/2n below observed−E is below, one with
// D/2n at or above observed+E is not, and only one in between is
// rescanned by rangeBelow, on float values recovered exactly as
// (y+Σ)/2n. Every decision is the float code's.
type intJudge struct {
	ys                     []int64   // the chart values, shuffled in place
	fs                     []float64 // a rescan's float values
	sum2                   int64
	scale, m, observed     float64
	surelyBelow, surelyNot int64
}

// newIntJudge encodes the ranks xs, whose window is w samples long, as
// the integer chart, reusing the storage of ys and fs.
func newIntJudge(xs []float64, observed float64, w int, ys []int64, fs []float64) intJudge {
	n := len(xs)
	if cap(ys) < n {
		ys = make([]int64, n)
	}
	if cap(fs) < n {
		fs = make([]float64, n)
	}
	j := intJudge{ys: ys[:n], fs: fs[:n], scale: float64(2 * n), m: mean(xs), observed: observed}
	for _, x := range xs {
		j.sum2 += int64(2 * x)
	}
	for i, x := range xs {
		j.ys[i] = int64(n)*int64(2*x) - j.sum2
	}
	e := chartErrorBound(n, w)
	j.surelyBelow = int64(math.Ceil((observed - e) * j.scale))
	j.surelyNot = int64(math.Ceil((observed + e) * j.scale))
	return j
}

// below is rangeBelow(x, m, observed) for the shuffle whose chart is
// ys.
func (j *intJudge) below(ys []int64) bool {
	switch r := chartRange(ys); {
	case r < j.surelyBelow:
		return true
	case r >= j.surelyNot:
		return false
	}
	for i, y := range ys {
		j.fs[i] = float64(y+j.sum2) / j.scale
	}
	return rangeBelow(j.fs, j.m, j.observed)
}

// chartErrorBound bounds |F − D/2n|, the distance between
// rangeBelow's float range of an n-sample rank segment and its exact
// range, when every rank is at most w. The proven bound is below
// 3(n+2)²·w·2⁻⁵³ for n < 2²⁰; the extra (n+2)²·w·2⁻⁵³ covers the
// rounding of the thresholds bootstrapInt derives from it (DESIGN.md
// §8.1).
func chartErrorBound(n, w int) float64 {
	k := float64(n + 2)
	return 4 * k * k * float64(w) * 0x1p-53
}

// chartRange returns the range max(0, Tmax) − min(0, Tmin) of the
// integer chart T_k = y_1 + … + y_k, without branches.
func chartRange(ys []int64) int64 {
	var s, hi, lo int64
	for _, y := range ys {
		s += y
		hi = max(hi, s)
		lo = min(lo, s)
	}
	return hi - lo
}

// rangeBelow reports whether the CUSUM chart of xs about mean m has a
// range Smax−Smin below observed — maxCusumSplit's `diff < observed`,
// without tracking the split. Smax only grows and Smin only shrinks
// along the scan, and rounded subtraction is monotone in both, so once
// the running range fails the comparison the final one fails too and
// the scan stops there.
func rangeBelow(xs []float64, m, observed float64) bool {
	var s, smax, smin float64
	for _, x := range xs {
		s += x - m
		if s > smax {
			smax = s
		} else if s < smin {
			smin = s
		} else {
			continue
		}
		if !(smax-smin < observed) {
			return false
		}
	}
	return smax-smin < observed
}

// Ranks replaces each value by its (average-tie) rank, the
// non-parametric transform of the paper's detector.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	out := make([]float64, n)
	rankInto(xs, make([]int, n), out)
	return out
}

// rankInto writes each value's (average-tie) rank into out, using idx
// as sort scratch. Both Ranks and the detector's scratch-buffer variant
// funnel through here; len(idx) and len(out) must equal len(xs).
func rankInto(xs []float64, idx []int, out []float64) {
	n := len(xs)
	for i := range idx {
		idx[i] = i
	}
	// cmp < 0 exactly when xs[a] < xs[b] — the less of the sort.Slice
	// this replaced, over the same pdqsort — so even NaN inputs rank
	// identically.
	slices.SortFunc(idx, func(a, b int) int {
		if xs[a] < xs[b] {
			return -1
		}
		if xs[b] < xs[a] {
			return 1
		}
		return 0
	})
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

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
