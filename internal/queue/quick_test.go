package queue

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"afrixp/internal/simclock"
	"afrixp/internal/trafficmodel"
)

// Property: whatever the load process does, the fluid queue's delay
// stays within [0, BufferDrain] and its loss within [0, 1].
func TestQuickDelayAndLossBounds(t *testing.T) {
	f := func(capMbps uint16, drainMs uint8, baseFrac, peakFrac uint8, seed uint16) bool {
		capBps := float64(capMbps%1000+1) * 1e6
		drain := time.Duration(drainMs%100+1) * time.Millisecond
		load := trafficmodel.Diurnal{
			BaseBps:  float64(baseFrac) / 64 * capBps, // up to 4×C
			PeakBps:  float64(peakFrac) / 64 * capBps,
			PeakHour: 14, Width: 3,
			NoiseFrac: 0.2, Seed: uint64(seed),
		}
		q := NewFluid(Config{CapacityBps: capBps, BufferDrain: drain,
			Load: trafficmodel.Func(load.Bps), PacketBits: 12000})
		for hour := 0; hour < 48; hour++ {
			at := simclock.Time(time.Duration(hour) * time.Hour)
			d := q.DelayAt(at)
			if d < 0 || d > drain+time.Microsecond {
				return false
			}
			l := q.LossAt(at)
			if l < 0 || l > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a batched advance over a window of steps yields, at every
// step index and probe offset, bit-identical observations to advancing
// the frontier step by step — the invariant the step-batched campaign
// scheduler rests on. Includes a repeated step time so the no-op
// advance path (frontier already at or past t) is exercised.
func TestQuickBatchObservationMatchesPerStep(t *testing.T) {
	f := func(capMbps uint16, drainMs uint8, baseFrac, peakFrac uint8, seed uint16, stepMin, nSteps uint8) bool {
		capBps := float64(capMbps%1000+1) * 1e6
		drain := time.Duration(drainMs%100+1) * time.Millisecond
		load := trafficmodel.Diurnal{
			BaseBps:  float64(baseFrac) / 64 * capBps,
			PeakBps:  float64(peakFrac) / 64 * capBps,
			PeakHour: 14, Width: 3,
			NoiseFrac: 0.2, Seed: uint64(seed),
		}
		mk := func() *Fluid {
			return NewFluid(Config{CapacityBps: capBps, BufferDrain: drain,
				Load: trafficmodel.Func(load.Bps), PacketBits: 12000})
		}
		perStep, batched := mk(), mk()
		step := time.Duration(stepMin%30+1) * time.Minute
		offsets := []simclock.Duration{0, 10 * time.Millisecond, 500 * time.Millisecond, 90 * time.Second}
		start := simclock.Time(6 * time.Hour)
		// Two consecutive batches, so the scratch-table reuse path runs.
		for batch := 0; batch < 2; batch++ {
			n := int(nSteps%32) + 2
			steps := make([]simclock.Time, n)
			for i := range steps {
				steps[i] = start.Add(time.Duration(i) * step)
			}
			steps[n/2] = steps[n/2-1] // repeated step: advance must no-op
			start = steps[n-1].Add(step)
			batched.AdvanceBatch(steps)
			for i, st := range steps {
				perStep.advance(st)
				for _, off := range offsets {
					at := st.Add(off)
					d1, l1 := perStep.ObserveFrozenCursor(nil, -1, at)
					d2, l2 := batched.ObserveFrozenCursor(nil, i, at)
					if d1 != d2 || math.Float64bits(l1) != math.Float64bits(l2) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a token bucket polled at any cadence never admits more
// than rate·T + burst packets over a window of length T.
func TestQuickTokenBucketAdmissionBound(t *testing.T) {
	f := func(rate8, burst8, cadenceMs uint8) bool {
		rate := float64(rate8%200 + 1)
		burst := float64(burst8%50 + 1)
		cadence := time.Duration(cadenceMs%50+1) * time.Millisecond
		tb := NewTokenBucket(rate, burst, 0)
		const window = 10 * time.Second
		admitted := 0
		for at := simclock.Time(0); at < simclock.Time(window); at = at.Add(cadence) {
			if tb.Allow(at) {
				admitted++
			}
		}
		bound := rate*window.Seconds() + burst + 1
		return float64(admitted) <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: capacity changes preserve the delay bound (drain time is
// conserved across SetCapacity).
func TestQuickSetCapacityPreservesBound(t *testing.T) {
	f := func(c1, c2 uint16, drainMs uint8) bool {
		cap1 := float64(c1%1000+1) * 1e6
		cap2 := float64(c2%1000+1) * 1e6
		drain := time.Duration(drainMs%80+1) * time.Millisecond
		q := NewFluid(Config{CapacityBps: cap1, BufferDrain: drain,
			Load: trafficmodel.Func(func(simclock.Time) float64 { return 10 * cap1 })})
		d1 := q.DelayAt(simclock.Time(time.Hour))
		q.SetCapacity(simclock.Time(time.Hour), cap2)
		d2 := q.DelayAt(simclock.Time(2 * time.Hour))
		return d1 <= drain+time.Microsecond && d2 <= drain+time.Microsecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
