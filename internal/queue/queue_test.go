package queue

import (
	"math"
	"testing"
	"time"

	"afrixp/internal/simclock"
	"afrixp/internal/trafficmodel"
)

func constLoad(bps float64) trafficmodel.Load { return trafficmodel.Constant(bps) }

func sec(n int) simclock.Time { return simclock.Time(time.Duration(n) * time.Second) }

func TestIdleLinkHasNoDelay(t *testing.T) {
	q := NewFluid(Config{CapacityBps: 100e6, BufferDrain: 30 * time.Millisecond})
	for i := 0; i < 10; i++ {
		if d := q.DelayAt(sec(i * 60)); d != 0 {
			t.Fatalf("idle link delay = %v at t=%d", d, i)
		}
	}
}

func TestUnderloadedLinkDrains(t *testing.T) {
	// 50% utilization: queue never builds.
	q := NewFluid(Config{CapacityBps: 100e6, BufferDrain: 30 * time.Millisecond,
		Load: constLoad(50e6)})
	if d := q.DelayAt(sec(3600)); d != 0 {
		t.Fatalf("underloaded delay = %v", d)
	}
	if l := q.LossAt(sec(3600)); l != 0 {
		t.Fatalf("underloaded loss = %v", l)
	}
}

func TestOverloadFillsBufferToPlateau(t *testing.T) {
	// 150% load: buffer fills; standing delay equals BufferDrain.
	drain := 28 * time.Millisecond
	q := NewFluid(Config{CapacityBps: 100e6, BufferDrain: drain, Load: constLoad(150e6)})
	d := q.DelayAt(sec(600))
	if d != drain {
		t.Fatalf("plateau delay = %v, want %v", d, drain)
	}
	// Loss converges to overload fraction (50e6/150e6 = 1/3).
	loss := q.LossAt(sec(1200))
	if math.Abs(loss-1.0/3) > 0.01 {
		t.Fatalf("overload loss = %v, want ~0.333", loss)
	}
}

func TestBufferFillRate(t *testing.T) {
	// Surplus 10 Mbps into a 100ms*100Mbps = 10Mbit buffer: fills in 1s.
	q := NewFluid(Config{CapacityBps: 100e6, BufferDrain: 100 * time.Millisecond,
		Load: constLoad(110e6), Step: 10 * time.Millisecond})
	half := q.DelayAt(simclock.Time(500 * time.Millisecond))
	if math.Abs(half.Seconds()-0.050) > 0.002 {
		t.Fatalf("half-fill delay = %v, want ~50ms", half)
	}
	full := q.DelayAt(sec(2))
	if full != 100*time.Millisecond {
		t.Fatalf("full delay = %v", full)
	}
}

func TestQueueDrainsAfterLoadDrops(t *testing.T) {
	// Load above capacity for 60s, then zero: the queue must empty.
	load := func(tm simclock.Time) float64 {
		if tm < sec(60) {
			return 200e6
		}
		return 0
	}
	q := NewFluid(Config{CapacityBps: 100e6, BufferDrain: 50 * time.Millisecond, Load: trafficmodel.Func(load)})
	if d := q.DelayAt(sec(60)); d != 50*time.Millisecond {
		t.Fatalf("peak delay = %v", d)
	}
	if d := q.DelayAt(sec(120)); d != 0 {
		t.Fatalf("post-drain delay = %v", d)
	}
	if l := q.LossAt(sec(180)); l != 0 {
		t.Fatalf("post-drain loss = %v", l)
	}
}

func TestLossAtSameInstantIsStable(t *testing.T) {
	q := NewFluid(Config{CapacityBps: 100e6, BufferDrain: 10 * time.Millisecond,
		Load: constLoad(150e6)})
	_ = q.DelayAt(sec(600))
	l1 := q.LossAt(sec(600))
	l2 := q.LossAt(sec(600))
	if l1 != l2 || l1 == 0 {
		t.Fatalf("repeated observation changed loss: %v then %v", l1, l2)
	}
}

func TestCapacityUpgradeClearsCongestion(t *testing.T) {
	// The QCELL–NETPAGE scenario: 10 Mbps link overloaded, upgraded to
	// 1 Gbps on a given date; congestion must disappear.
	q := NewFluid(Config{CapacityBps: 10e6, BufferDrain: 11 * time.Millisecond,
		Load: constLoad(12e6)})
	if d := q.DelayAt(sec(3600)); d != 11*time.Millisecond {
		t.Fatalf("pre-upgrade delay = %v", d)
	}
	q.SetCapacity(sec(3600), 1e9)
	if d := q.DelayAt(sec(3700)); d != 0 {
		t.Fatalf("post-upgrade delay = %v", d)
	}
	if got := q.Capacity(); got != 1e9 {
		t.Fatalf("capacity = %v", got)
	}
}

func TestCapacityUpgradePreservesDrainTime(t *testing.T) {
	q := NewFluid(Config{CapacityBps: 10e6, BufferDrain: 20 * time.Millisecond})
	q.SetCapacity(0, 100e6)
	// Now overload the upgraded link; plateau should still be 20ms.
	q2 := NewFluid(Config{CapacityBps: 10e6, BufferDrain: 20 * time.Millisecond,
		Load: constLoad(200e6)})
	q2.SetCapacity(0, 100e6)
	if d := q2.DelayAt(sec(600)); d != 20*time.Millisecond {
		t.Fatalf("post-upgrade plateau = %v", d)
	}
}

func TestBackwardsObservationReturnsFrontierState(t *testing.T) {
	// Probes on different paths can observe a shared queue slightly
	// out of order; the model serves the frontier state rather than
	// rewinding.
	q := NewFluid(Config{CapacityBps: 100e6, BufferDrain: 30 * time.Millisecond,
		Load: constLoad(150e6)})
	at := q.DelayAt(sec(600))
	before := q.DelayAt(sec(599))
	if before != at {
		t.Fatalf("past observation %v != frontier %v", before, at)
	}
}

func TestNewFluidValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero capacity")
		}
	}()
	NewFluid(Config{})
}

func TestUtilization(t *testing.T) {
	q := NewFluid(Config{CapacityBps: 100e6, BufferDrain: time.Millisecond,
		Load: constLoad(150e6)})
	if u := q.Utilization(0); math.Abs(u-1.5) > 1e-9 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestOccupancyMatchesDelay(t *testing.T) {
	q := NewFluid(Config{CapacityBps: 100e6, BufferDrain: 40 * time.Millisecond,
		Load: constLoad(130e6)})
	d := q.DelayAt(sec(300))
	occ := q.occupancy
	if math.Abs(occ/100e6-d.Seconds()) > 1e-6 {
		t.Fatalf("occupancy %v bits inconsistent with delay %v", occ, d)
	}
}

func TestDiurnalLoadProducesDiurnalDelay(t *testing.T) {
	// Load exceeding capacity only during "business hours" must yield
	// zero delay at night and plateau delay mid-day — the waveform the
	// level-shift detector keys on.
	day := 24 * time.Hour
	load := func(tm simclock.Time) float64 {
		h := tm.HourOfDay()
		if h >= 9 && h < 17 {
			return 140e6
		}
		return 30e6
	}
	q := NewFluid(Config{CapacityBps: 100e6, BufferDrain: 25 * time.Millisecond, Load: trafficmodel.Func(load)})
	night := q.DelayAt(simclock.Time(day) + simclock.Time(4*time.Hour))
	noon := q.DelayAt(simclock.Time(day) + simclock.Time(13*time.Hour))
	nextNight := q.DelayAt(simclock.Time(day) + simclock.Time(23*time.Hour))
	if night != 0 || nextNight != 0 {
		t.Fatalf("off-peak delay: %v / %v", night, nextNight)
	}
	if noon != 25*time.Millisecond {
		t.Fatalf("peak delay = %v", noon)
	}
}

func TestStochasticNearSaturationDelay(t *testing.T) {
	// With PacketBits set, delay rises before saturation: ρ=0.9 on a
	// 10 Mbps link with 12 kbit packets gives 9×1.2ms = 10.8ms.
	q := NewFluid(Config{CapacityBps: 10e6, BufferDrain: 35 * time.Millisecond,
		PacketBits: 12000, Load: constLoad(9e6)})
	d := q.DelayAt(sec(600))
	if math.Abs(d.Seconds()-0.0108) > 0.001 {
		t.Fatalf("ρ=0.9 delay = %v, want ~10.8ms", d)
	}
	// Saturated: capped at the buffer drain.
	q2 := NewFluid(Config{CapacityBps: 10e6, BufferDrain: 35 * time.Millisecond,
		PacketBits: 12000, Load: constLoad(12e6)})
	if d := q2.DelayAt(sec(600)); d != 35*time.Millisecond {
		t.Fatalf("saturated delay = %v", d)
	}
	// Low utilization: term stays negligible.
	q3 := NewFluid(Config{CapacityBps: 10e6, BufferDrain: 35 * time.Millisecond,
		PacketBits: 12000, Load: constLoad(2e6)})
	if d := q3.DelayAt(sec(600)); d > time.Millisecond {
		t.Fatalf("ρ=0.2 delay = %v", d)
	}
}

func TestStochasticTermDisabledByDefault(t *testing.T) {
	q := NewFluid(Config{CapacityBps: 10e6, BufferDrain: 35 * time.Millisecond,
		Load: constLoad(9.9e6)})
	if d := q.DelayAt(sec(600)); d != 0 {
		t.Fatalf("without PacketBits ρ<1 delay must be 0, got %v", d)
	}
}

func TestTokenBucketRate(t *testing.T) {
	tb := NewTokenBucket(100, 1, 0) // 100 pps, no burst headroom
	if !tb.Allow(0) {
		t.Fatal("first packet must pass")
	}
	if tb.Allow(0) {
		t.Fatal("second packet at t=0 must be throttled")
	}
	next := tb.NextAllowed(0)
	if d := time.Duration(next); math.Abs(d.Seconds()-0.01) > 1e-6 {
		t.Fatalf("NextAllowed = %v, want 10ms", d)
	}
	if !tb.Allow(next) {
		t.Fatal("packet at NextAllowed must pass")
	}
}

func TestTokenBucketBurst(t *testing.T) {
	tb := NewTokenBucket(10, 5, 0)
	n := 0
	for tb.Allow(0) {
		n++
	}
	if n != 5 {
		t.Fatalf("burst allowed %d, want 5", n)
	}
}

func TestTokenBucketRefillCap(t *testing.T) {
	tb := NewTokenBucket(100, 3, 0)
	for tb.Allow(0) {
	}
	// After a long idle period tokens must cap at burst.
	n := 0
	for tb.Allow(sec(3600)) {
		n++
	}
	if n != 3 {
		t.Fatalf("post-idle burst = %d, want 3", n)
	}
}

func TestTokenBucketValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTokenBucket(0, 1, 0)
}

func TestTokenBucketSustainedThroughput(t *testing.T) {
	// Over 10 seconds a 100 pps bucket admits ~1000 packets when polled
	// every millisecond.
	tb := NewTokenBucket(100, 1, 0)
	admitted := 0
	for ms := 0; ms < 10000; ms++ {
		if tb.Allow(simclock.Time(time.Duration(ms) * time.Millisecond)) {
			admitted++
		}
	}
	if admitted < 995 || admitted > 1005 {
		t.Fatalf("admitted %d packets, want ~1000", admitted)
	}
}

func BenchmarkFluidAdvanceYear(b *testing.B) {
	// Cost of integrating a full measurement year at 5-minute sampling,
	// under a flat load and under a diurnal one (the table-driven
	// trafficmodel load every generated world's planted links use).
	diurnal := trafficmodel.Diurnal{BaseBps: 60e6, PeakBps: 120e6, PeakHour: 14, Width: 3,
		WeekendFactor: 0.7, DayJitterFrac: 0.1, NoiseFrac: 0.06, Seed: 3}
	for _, bc := range []struct {
		name string
		load trafficmodel.Load
	}{
		{"constant", constLoad(90e6)},
		{"diurnal", diurnal.Load()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := NewFluid(Config{CapacityBps: 100e6, BufferDrain: 30 * time.Millisecond,
					Load: bc.load, Step: time.Minute})
				end := simclock.LatencyEnd
				for tm := simclock.Time(0); tm < end; tm = tm.Add(5 * time.Minute) {
					q.DelayAt(tm)
				}
			}
		})
	}
}

// BenchmarkFluidCatchUp is observatory-live's first discovery ping
// through a planted port: one DelayAt integrating a worldgen-shaped
// planted-port Diurnal from Epoch to 2016-07-20, about 429k steps.
func BenchmarkFluidCatchUp(b *testing.B) {
	const capBps = 1e9
	load := trafficmodel.Diurnal{BaseBps: 0.5 * capBps, PeakBps: 1.225 * capBps, PeakHour: 15,
		Width: 2.5, WeekendFactor: 0.75, DayJitterFrac: 0.1, NoiseFrac: 0.06, Seed: 0x0301009D}.Load()
	july20 := simclock.Date(2016, time.July, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := NewFluid(Config{CapacityBps: capBps, BufferDrain: 23 * time.Millisecond, Load: load, PacketBits: 12000})
		q.DelayAt(july20)
	}
}
