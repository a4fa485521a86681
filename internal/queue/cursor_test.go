package queue

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"afrixp/internal/simclock"
	"afrixp/internal/trafficmodel"
)

// referenceIntegrate is the fluid stepping loop as it stood before
// integration walks and cursors: a fresh pass from (from, occ) to t.
// Every read of the queue must reproduce it bit for bit.
func referenceIntegrate(q *Fluid, from simclock.Time, occ float64, t simclock.Time) (float64, float64) {
	var offered, dropped float64
	for from < t {
		dt := q.step
		if rem := t.Sub(from); rem < dt {
			dt = rem
		}
		sec := dt.Seconds()
		in := q.load.Bps(from) * sec
		out := q.capacityBps * sec
		offered += in
		next := occ + in - out
		if next > q.bufferBits {
			dropped += next - q.bufferBits
			next = q.bufferBits
		}
		if next < 0 {
			next = 0
		}
		occ = next
		from = from.Add(dt)
	}
	lossFrac := 0.0
	if offered > 0 {
		lossFrac = math.Min(1, dropped/offered)
	}
	return occ, lossFrac
}

// referenceObserve is a from-frontier frozen read of batch step i (the
// live frontier for i < 0) through referenceIntegrate.
func referenceObserve(q *Fluid, i int, t simclock.Time) (simclock.Duration, float64) {
	from, occ, lossFrac := q.lastTime, q.occupancy, q.lossFrac
	if i >= 0 {
		from, occ, lossFrac = q.batchTime[i], q.batchOcc[i], q.batchLoss[i]
	}
	if t > from {
		occ, lossFrac = referenceIntegrate(q, from, occ, t)
	}
	return referenceDelay(q, occ, t), lossFrac
}

// referenceDelay is delayFromOccupancy with the load evaluated by Bps
// at every call, as it was before frozen reads memoized the load's day
// and minute factors.
func referenceDelay(q *Fluid, occ float64, t simclock.Time) simclock.Duration {
	d := occ / q.capacityBps
	if q.pktBits > 0 {
		rho := q.load.Bps(t) / q.capacityBps
		if rho >= 1 {
			d = q.bufferBits / q.capacityBps
		} else if rho > 0 {
			d += rho / (1 - rho) * q.pktBits / q.capacityBps
		}
		if max := q.bufferBits / q.capacityBps; d > max {
			d = max
		}
	}
	return time.Duration(d * float64(time.Second))
}

// referenceFrontier mirrors a queue's frontier advanced by the
// reference loop.
type referenceFrontier struct {
	at       simclock.Time
	occ      float64
	lossFrac float64
}

func (r *referenceFrontier) advance(q *Fluid, t simclock.Time) {
	if t <= r.at {
		return
	}
	r.occ, r.lossFrac = referenceIntegrate(q, r.at, r.occ, t)
	r.at = t
}

// cursorCase drives one queue through two batches with a capacity or
// buffer change between them, reading each batch through one cursor at
// times that climb, repeat and jump back.
type cursorCase struct {
	CapBps     float64
	Drain      simclock.Duration
	Load       trafficmodel.Diurnal
	Step       simclock.Duration
	PacketBits float64
	Start      simclock.Time
	BatchStep  simclock.Duration
	Batches    [2][]simclock.Time
	Change     int // 0: SetCapacity, 1: SetBufferDrain, 2: nothing
	NewCap     float64
	NewDrain   simclock.Duration
	Reads      [2][]cursorRead
}

type cursorRead struct {
	Step int
	At   simclock.Duration // offset past the step's time
}

func (cursorCase) Generate(r *rand.Rand, _ int) reflect.Value {
	c := cursorCase{
		CapBps: float64(r.Intn(1000)+1) * 1e6,
		Drain:  time.Duration(r.Intn(60)+1) * time.Millisecond,
		Step:   30 * time.Second,
		Start:  simclock.Time(r.Int63n(int64(400*24*time.Hour))) - simclock.Time(30*24*time.Hour),
	}
	if r.Intn(4) == 0 {
		c.Step = time.Duration(r.Intn(120)+1) * time.Second
	}
	if r.Intn(2) == 0 {
		c.PacketBits = 12000
	}
	c.Load = trafficmodel.Diurnal{
		BaseBps:  r.Float64() * c.CapBps,
		PeakBps:  (0.5 + r.Float64()) * 1.5 * c.CapBps,
		PeakHour: r.Float64() * 24, Width: 1 + 3*r.Float64(),
		WeekendFactor: r.Float64(), DayJitterFrac: 0.2 * r.Float64(),
		NoiseFrac: 0.3 * r.Float64(), Seed: r.Uint64(),
	}
	if r.Intn(2) == 0 {
		// Off-grid steps: the frontier sits between table points.
		c.Start = c.Start.Add(time.Duration(r.Intn(30000)) * time.Millisecond)
	}
	c.BatchStep = time.Duration(r.Intn(10)+1) * time.Minute
	t := c.Start
	for b := range c.Batches {
		n := r.Intn(8) + 1
		for k := 0; k < n; k++ {
			c.Batches[b] = append(c.Batches[b], t)
			if r.Intn(5) != 0 { // sometimes repeat a step time
				t = t.Add(c.BatchStep)
			}
		}
		t = t.Add(c.BatchStep)
		for k := 0; k < 40; k++ {
			var rd cursorRead
			rd.Step = r.Intn(n+1) - 1 // -1 reads the live frontier
			switch r.Intn(6) {
			case 0: // repeat the previous read
				if k > 0 {
					rd = c.Reads[b][k-1]
				}
			case 1: // jump back
				rd.At = time.Duration(r.Int63n(int64(2 * time.Minute)))
			default: // climb past the previous read
				if k > 0 {
					rd.Step = c.Reads[b][k-1].Step
					rd.At = c.Reads[b][k-1].At + time.Duration(r.Int63n(int64(40*time.Second)))
				}
			}
			c.Reads[b] = append(c.Reads[b], rd)
		}
	}
	c.Change = r.Intn(3)
	c.NewCap = float64(r.Intn(1000)+1) * 1e6
	c.NewDrain = time.Duration(r.Intn(60)+1) * time.Millisecond
	return reflect.ValueOf(c)
}

// A cursor read must equal a fresh from-frontier integration bit for
// bit, whatever reads preceded it: climbing, repeated or earlier times,
// other steps, the live frontier, and a cursor left over from a batch
// before a capacity or buffer change.
func TestQuickCursorMatchesFreshIntegration(t *testing.T) {
	check := func(c cursorCase) bool {
		q := NewFluid(Config{CapacityBps: c.CapBps, BufferDrain: c.Drain,
			Load: c.Load.Load(), Step: c.Step, Start: c.Start, PacketBits: c.PacketBits})
		ref := referenceFrontier{at: c.Start}
		var cur Cursor
		for b, steps := range c.Batches {
			q.AdvanceBatch(steps)
			for i, st := range steps {
				ref.advance(q, st)
				if q.batchTime[i] != ref.at || math.Float64bits(q.batchOcc[i]) != math.Float64bits(ref.occ) ||
					math.Float64bits(q.batchLoss[i]) != math.Float64bits(ref.lossFrac) {
					t.Logf("batch %d step %d: recorded (%v, %v, %v), reference (%v, %v, %v)", b, i,
						q.batchTime[i], q.batchOcc[i], q.batchLoss[i], ref.at, ref.occ, ref.lossFrac)
					return false
				}
			}
			for _, rd := range c.Reads[b] {
				base := q.lastTime
				if rd.Step >= 0 {
					base = steps[rd.Step]
				}
				at := base.Add(rd.At)
				d1, l1 := q.ObserveFrozenCursor(&cur, rd.Step, at)
				d2, l2 := referenceObserve(q, rd.Step, at)
				if d1 != d2 || math.Float64bits(l1) != math.Float64bits(l2) {
					t.Logf("batch %d read %+v: cursor (%v, %v), fresh (%v, %v)", b, rd, d1, l1, d2, l2)
					return false
				}
				if cur.Queue() != nil && cur.Queue() != q {
					return false
				}
			}
			if b == 0 && c.Change < 2 {
				at := steps[len(steps)-1].Add(c.BatchStep / 2)
				ref.advance(q, at)
				if c.Change == 0 {
					q.SetCapacity(at, c.NewCap)
				} else {
					q.SetBufferDrain(at, c.NewDrain)
				}
				ref.occ = math.Min(ref.occ, q.bufferBits)
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

// A stale cursor must not leak the state it was taken under: after a
// capacity or buffer change, a moved frontier or a new batch, a read
// through the old cursor at a time it already covered returns the
// fresh answer.
func TestCursorInvalidatedByChanges(t *testing.T) {
	// Idle until 350 s, then overloaded: the drop fraction over the
	// window since the frontier depends on where the frontier is.
	load := func(t simclock.Time) float64 {
		if t < sec(350) {
			return 50e6
		}
		return 150e6
	}
	for _, tc := range []struct {
		name   string
		step   int
		change func(q *Fluid)
	}{
		{"capacity", -1, func(q *Fluid) { q.SetCapacity(sec(300), 1e9) }},
		{"buffer", -1, func(q *Fluid) { q.SetBufferDrain(sec(300), 5*time.Millisecond) }},
		{"advance", -1, func(q *Fluid) { q.advance(sec(330)) }},
		{"batch", -1, func(q *Fluid) { q.AdvanceBatch([]simclock.Time{sec(300), sec(330)}) }},
		// A batch that moves no frontier still re-bases its steps: step
		// 0 was sec(0) and is now sec(300).
		{"batch in place", 0, func(q *Fluid) { q.AdvanceBatch([]simclock.Time{sec(300)}) }},
	} {
		q := NewFluid(Config{CapacityBps: 100e6, BufferDrain: 30 * time.Millisecond, Load: trafficmodel.Func(load)})
		q.AdvanceBatch([]simclock.Time{sec(0), sec(300)})
		var cur Cursor
		q.ObserveFrozenCursor(&cur, tc.step, sec(400))
		tc.change(q)
		d1, l1 := q.ObserveFrozenCursor(&cur, tc.step, sec(400))
		d2, l2 := referenceObserve(q, tc.step, sec(400))
		if d1 != d2 || math.Float64bits(l1) != math.Float64bits(l2) {
			t.Errorf("%s: stale cursor read (%v, %v), fresh (%v, %v)", tc.name, d1, l1, d2, l2)
		}
	}
}

// Reads spilling ever further past a step resume rather than restart:
// the cursor's position climbs with them.
func TestCursorResumes(t *testing.T) {
	q := NewFluid(Config{CapacityBps: 100e6, BufferDrain: 30 * time.Millisecond,
		Load: constLoad(120e6)})
	q.AdvanceBatch([]simclock.Time{sec(600)})
	var cur Cursor
	for k := 1; k <= 100; k++ {
		at := sec(600 + k)
		q.ObserveFrozenCursor(&cur, 0, at)
		// The walk stops at the start of the final step: the last 30-s
		// grid point strictly before the read.
		if want := sec(600 + (k-1)/30*30); cur.w.at != want {
			t.Fatalf("read at +%ds left the cursor at %v, want %v", k, cur.w.at, want)
		}
	}
}
