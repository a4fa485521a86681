package queue

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"afrixp/internal/simclock"
)

// refBucket is TokenBucket as it was before refill's fast paths and
// Take: every refill runs the float arithmetic. It is the oracle the
// fast paths are checked against.
type refBucket struct {
	ratePerSec, burst, tokens float64
	last                      simclock.Time
}

func (tb *refBucket) refill(t simclock.Time) simclock.Time {
	if t < tb.last {
		t = tb.last
	}
	tb.tokens += t.Sub(tb.last).Seconds() * tb.ratePerSec
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	tb.last = t
	return t
}

func (tb *refBucket) Allow(t simclock.Time) bool {
	tb.refill(t)
	if tb.tokens >= 1-tokenEps {
		tb.tokens--
		if tb.tokens < 0 {
			tb.tokens = 0
		}
		return true
	}
	return false
}

func (tb *refBucket) NextAllowed(t simclock.Time) simclock.Time {
	t = tb.refill(t)
	if tb.tokens >= 1-tokenEps {
		return t
	}
	need := 1 - tb.tokens
	wait := time.Duration(need / tb.ratePerSec * float64(time.Second))
	return t.Add(wait)
}

// bucketOp is one call in TestQuickTokenBucketMatchesReference: which
// method, and a time offset from the bucket's frontier (negative
// offsets ask for a time before it).
type bucketOp struct {
	Kind   uint8
	Offset int32
}

// Take must equal NextAllowed followed by Allow at its result, and
// Allow, NextAllowed and Take must leave the tokens and the frontier
// the arithmetic refill leaves, bit for bit: at, before and after the
// frontier, on full, drained and fractional buckets, repeated gaps
// (the memoized increment) and a restored state over the burst cap.
func TestQuickTokenBucketMatchesReference(t *testing.T) {
	check := func(rate, burst uint8, over bool, ops []bucketOp) bool {
		r, b := float64(rate%200)+0.5, float64(burst%8)+1
		got := NewTokenBucket(r, b, 0)
		ref := &refBucket{ratePerSec: r, burst: b, tokens: b}
		if over {
			got.RestoreState(b+2.5, 0)
			ref.tokens = b + 2.5
		}
		for i, op := range ops {
			// Offsets up to ±2 s, in 1 ms steps, so gaps repeat.
			at := ref.last.Add(time.Duration(op.Offset%2001) * time.Millisecond)
			if op.Kind%5 == 4 {
				at = ref.last // exactly at the frontier
			}
			switch op.Kind % 4 {
			case 0:
				if got.Allow(at) != ref.Allow(at) {
					t.Logf("op %d: Allow(%v) differs", i, at)
					return false
				}
			case 1:
				if got.NextAllowed(at) != ref.NextAllowed(at) {
					t.Logf("op %d: NextAllowed(%v) differs", i, at)
					return false
				}
			default:
				want := ref.NextAllowed(at)
				ref.Allow(want)
				if send := got.Take(at); send != want {
					t.Logf("op %d: Take(%v) = %v, want %v", i, at, send, want)
					return false
				}
			}
			if tokens, last := got.State(); tokens != ref.tokens || last != ref.last {
				t.Logf("op %d: state (%v, %v), reference (%v, %v)", i, tokens, last, ref.tokens, ref.last)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}
