package cusum

import "math"

// A Stream tap's fixed tuning.
const (
	// streamBaselineAlpha is the EWMA adaptation rate of the level
	// estimate. Small values keep the baseline slow so genuine level
	// shifts show up as sustained drift before being absorbed.
	streamBaselineAlpha = 0.02
	// streamDevAlpha is the EWMA rate of the absolute-deviation (noise
	// scale) estimate.
	streamDevAlpha = 0.05
	// streamSlack is the dead band, in deviation units, subtracted
	// from each standardized residual before it accumulates — the
	// classic CUSUM allowance k that keeps pure noise from drifting
	// the sums.
	streamSlack = 0.9
	// streamDecay leaks the one-sided sums each observation so
	// evidence relaxes after the baseline absorbs a shift.
	streamDecay = 0.99
)

// Stream is a constant-memory, one-pass CUSUM tap: a cheap streaming
// counterpart to the offline bootstrap Detector, meant to be fed every
// collected sample and asked "how much recent level-shift evidence
// does this series carry?". It maintains an EWMA baseline, an EWMA
// noise scale, and two leaky one-sided cumulative sums of the
// standardized residuals (Page's test on a slowly adapting level).
// Everything is pure float arithmetic on the sample sequence: two
// Streams fed the same values in the same order hold bit-identical
// state, which is what lets the budget scheduler rank links without
// breaking campaign determinism. The zero Stream is an empty tap.
type Stream struct {
	n        uint64
	baseline float64
	dev      float64
	sPos     float64
	sNeg     float64
}

// Observe feeds one sample. Allocation-free.
func (s *Stream) Observe(x float64) {
	if s.n == 0 {
		s.baseline = x
		s.n = 1
		return
	}
	d := x - s.baseline
	ad := math.Abs(d)
	if s.n == 1 {
		s.dev = ad
	} else {
		s.dev += streamDevAlpha * (ad - s.dev)
	}
	// The noise-scale estimate needs a few samples before standardized
	// residuals mean anything; accumulating sums earlier would turn
	// warmup jitter into phantom evidence.
	if s.n >= streamWarmup {
		scale := s.dev
		if scale < 1e-9 {
			scale = 1e-9
		}
		z := d / scale
		s.sPos = s.sPos*streamDecay + z - streamSlack
		if s.sPos < 0 {
			s.sPos = 0
		}
		s.sNeg = s.sNeg*streamDecay - z - streamSlack
		if s.sNeg < 0 {
			s.sNeg = 0
		}
	}
	s.baseline += streamBaselineAlpha * d
	s.n++
}

// streamWarmup is the number of samples fed to the baseline and noise
// estimates before the evidence sums start accumulating.
const streamWarmup = 8

// Evidence is the current level-shift evidence: the larger of the two
// one-sided sums, in noise-scale units. Flat series hover near zero;
// a sustained shift of m deviations grows evidence by roughly
// (m - streamSlack) per sample until the baseline catches up.
func (s *Stream) Evidence() float64 {
	if s.sPos > s.sNeg {
		return s.sPos
	}
	return s.sNeg
}

// Baseline is the current EWMA level estimate.
func (s *Stream) Baseline() float64 { return s.baseline }

// Dev is the current EWMA absolute-deviation (noise scale) estimate.
func (s *Stream) Dev() float64 { return s.dev }

// Samples is the number of observations fed so far.
func (s *Stream) Samples() uint64 { return s.n }

// Reset clears the accumulated state.
func (s *Stream) Reset() {
	s.n, s.baseline, s.dev, s.sPos, s.sNeg = 0, 0, 0, 0, 0
}

// StreamState is a Stream's full serializable state for engine
// checkpoints. The tuning is package constants, so none rides along.
type StreamState struct {
	N                         uint64
	Baseline, Dev, SPos, SNeg float64
}

// State captures the tap for a checkpoint.
func (s *Stream) State() StreamState {
	return StreamState{N: s.n, Baseline: s.baseline, Dev: s.dev, SPos: s.sPos, SNeg: s.sNeg}
}

// RestoreState overwrites the tap from a checkpoint.
func (s *Stream) RestoreState(st StreamState) {
	s.n, s.baseline, s.dev, s.sPos, s.sNeg = st.N, st.Baseline, st.Dev, st.SPos, st.SNeg
}
