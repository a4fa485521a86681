package cusum

import "math"

// A RankStream tap's fixed tuning.
const (
	// rankWindow is how many recent samples each new observation is
	// ranked against — at the collector's 30-minute bins just under
	// three days, long enough to hold the pre-shift level while a
	// diurnal congestion pattern develops on top of it.
	rankWindow = 128
	// rankSlack is the CUSUM allowance k, in rank-sigma units,
	// subtracted from each standardized rank residual before it
	// accumulates.
	rankSlack = 0.6
	// rankDecay leaks the one-sided sums each observation — slower
	// than Stream's 0.99 because the tap runs on 30-minute bins, not
	// 5-minute samples.
	rankDecay = 0.995
)

// rankWarmup is the number of window samples required before the
// evidence sums start accumulating — ranks over a near-empty window
// are too coarse to standardize.
const rankWarmup = 16

// sqrt12 standardizes a U(0,1) rank statistic: (u−½)·√12 has unit
// variance under exchangeability.
var sqrt12 = math.Sqrt(12)

// RankStream is the streaming counterpart of the offline rank-CUSUM
// Detector, the way Stream is the streaming counterpart of the
// bootstrap pipeline: a constant-memory tap fed one sample at a time
// that maintains Page's one-sided sums over *rank* residuals instead
// of EWMA-standardized ones. Each observation is ranked against a
// sliding window of recent values, the normalized rank is centered and
// scaled to unit variance, and the leaky CUSUM accumulates it — so a
// sustained level shift shows up as evidence growing by roughly
// (√12·(u−½) − rankSlack) per sample while heavy-tailed RTT spikes,
// which wreck mean/deviation estimates, move a rank by at most one
// position.
// Everything is pure float arithmetic on the sample sequence: two
// RankStreams fed the same values in the same order hold bit-identical
// state, which is what lets the streaming observatory alert live
// without touching campaign determinism. Allocation-free after New.
type RankStream struct {
	ring []float64 // last min(n, rankWindow) samples, insertion-ordered
	next int       // ring slot the next sample overwrites
	n    uint64    // total samples observed
	sPos float64
	sNeg float64
}

// NewRankStream builds a tap, allocating its window ring once.
func NewRankStream() *RankStream {
	return &RankStream{ring: make([]float64, 0, rankWindow)}
}

// Observe feeds one sample. NaNs must be filtered by the caller (the
// collector grid's missing marker carries no rank information).
// Allocation-free.
func (s *RankStream) Observe(x float64) {
	// Rank x against the current window before x enters it, so the
	// statistic is a genuine sequential rank (new value vs recent
	// history), not a self-inclusive one.
	if n := len(s.ring); n >= rankWarmup {
		less, equal := 0, 0
		for _, v := range s.ring {
			if v < x {
				less++
			} else if v == x {
				equal++
			}
		}
		u := (float64(less) + 0.5*float64(equal) + 0.5) / float64(n+1)
		z := (u - 0.5) * sqrt12
		s.sPos = s.sPos*rankDecay + z - rankSlack
		if s.sPos < 0 {
			s.sPos = 0
		}
		s.sNeg = s.sNeg*rankDecay - z - rankSlack
		if s.sNeg < 0 {
			s.sNeg = 0
		}
	}
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, x)
	} else {
		s.ring[s.next] = x
		s.next++
		if s.next == len(s.ring) {
			s.next = 0
		}
	}
	s.n++
}

// Evidence is the current level-shift evidence: the larger one-sided
// sum, in rank-sigma units. A flat exchangeable series hovers near
// zero; a sustained upward shift past the window's old level grows
// evidence by up to (√12/2 − rankSlack) per sample until the shifted
// regime fills the window.
func (s *RankStream) Evidence() float64 {
	if s.sPos > s.sNeg {
		return s.sPos
	}
	return s.sNeg
}

// Upward reports whether the dominant evidence side is the upward one
// (RTT rise) rather than the downward one.
func (s *RankStream) Upward() bool { return s.sPos >= s.sNeg }

// Samples is the number of observations fed so far.
func (s *RankStream) Samples() uint64 { return s.n }

// Reset clears the window and sums but keeps the ring allocation.
func (s *RankStream) Reset() {
	s.ring = s.ring[:0]
	s.next = 0
	s.n = 0
	s.sPos, s.sNeg = 0, 0
}
