package queue

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"afrixp/internal/simclock"
	"afrixp/internal/trafficmodel"
)

// perStepAdvance is advance as it stood before chunked fills: one
// integration walk from the frontier, evaluating load.Bps at every
// step. It drives a twin queue, which must stay bit-identical to one
// advanced through load.Fill.
func perStepAdvance(q *Fluid, t simclock.Time) {
	if t <= q.lastTime {
		return
	}
	at, occ, offered, dropped, load := q.lastTime, q.occupancy, 0.0, 0.0, q.load.Bps(q.lastTime)
	stepSec := q.step.Seconds()
	for {
		if rem := t.Sub(at); rem <= q.step {
			occ, offered, dropped = q.stepBy(occ, offered, dropped, load, rem.Seconds())
			lossFrac := 0.0
			if offered > 0 {
				lossFrac = math.Min(1, dropped/offered)
			}
			q.occupancy, q.lossFrac = occ, lossFrac
			break
		}
		occ, offered, dropped = q.stepBy(occ, offered, dropped, load, stepSec)
		at = at.Add(q.step)
		load = q.load.Bps(at)
	}
	q.lastTime = t
	q.gen++
}

// perStepAdvanceBatch is AdvanceBatch over perStepAdvance.
func perStepAdvanceBatch(q *Fluid, steps []simclock.Time) {
	q.batchTime = q.batchTime[:0]
	q.batchOcc = q.batchOcc[:0]
	q.batchLoss = q.batchLoss[:0]
	for _, t := range steps {
		perStepAdvance(q, t)
		q.batchTime = append(q.batchTime, q.lastTime)
		q.batchOcc = append(q.batchOcc, q.occupancy)
		q.batchLoss = append(q.batchLoss, q.lossFrac)
	}
	q.gen++
}

// advanceOp is one move of the queue under test: an advance by Full
// whole steps plus Rem (Full = 0 with Rem = 0 reads the frontier in
// place, a negative Rem reaches back before it), a 5-minute batch of
// Batch steps, or a capacity or buffer change after the advance.
type advanceOp struct {
	Full     int
	Rem      simclock.Duration
	Batch    int
	Capacity float64
	Drain    simclock.Duration
}

// advanceCase is a queue configuration plus a run of operations.
type advanceCase struct {
	Desc       string
	Load       trafficmodel.Load
	CapBps     float64
	Drain      simclock.Duration
	Step       simclock.Duration
	Start      simclock.Time
	PacketBits float64
	Ops        []advanceOp
}

// chunkSpans are the full-step counts an advance takes: none, one, two,
// and either side of each chunk boundary.
var chunkSpans = []int{0, 1, 2, fillChunk - 1, fillChunk, fillChunk + 1, 2*fillChunk - 1, 2 * fillChunk, 2*fillChunk + 1}

func (advanceCase) Generate(r *rand.Rand, _ int) reflect.Value {
	c := advanceCase{
		CapBps:     1e8 * (0.5 + r.Float64()),
		Drain:      time.Duration(5+r.Intn(40)) * time.Millisecond,
		Step:       []simclock.Duration{30 * time.Second, 30 * time.Second, time.Minute, 7 * time.Second, 45*time.Second + 1}[r.Intn(5)],
		Start:      simclock.Time(r.Int63n(int64(60*24*time.Hour)) - int64(30*24*time.Hour)),
		PacketBits: []float64{0, 12000}[r.Intn(2)],
	}
	if r.Intn(2) == 0 {
		c.Start = c.Start.Truncate(30 * time.Second)
	}
	d := trafficmodel.Diurnal{
		BaseBps:       c.CapBps * (0.3 + 0.4*r.Float64()),
		PeakBps:       c.CapBps * (0.9 + 0.6*r.Float64()),
		PeakHour:      24 * r.Float64(),
		Width:         1 + 3*r.Float64(),
		WeekendFactor: r.Float64(),
		DayJitterFrac: 0.2 * r.Float64(),
		NoiseFrac:     0.1 * r.Float64(),
		Seed:          r.Uint64(),
	}
	switch r.Intn(3) {
	case 0:
		c.Load, c.Desc = d.Load(), fmt.Sprintf("%+v", d)
	case 1:
		at := c.Start.Add(simclock.Duration(r.Intn(400)) * c.Step)
		c.Load = trafficmodel.NewSchedule(d.Load()).At(at, trafficmodel.Constant(1.3*c.CapBps)).At(at.Add(time.Hour), d.Load())
		c.Desc = fmt.Sprintf("schedule at %v over %+v", at, d)
	default:
		c.Load, c.Desc = trafficmodel.Func(d.Bps), fmt.Sprintf("Func %+v", d)
	}
	for n := 1 + r.Intn(12); n > 0; n-- {
		op := advanceOp{Full: chunkSpans[r.Intn(len(chunkSpans))]}
		switch r.Intn(4) {
		case 0:
			op.Rem = c.Step
		case 1:
			op.Rem = 1
		case 2:
			op.Rem = simclock.Duration(1 + r.Int63n(int64(c.Step)))
		}
		if op.Full == 0 && r.Intn(3) == 0 {
			op.Rem = -simclock.Duration(r.Int63n(int64(time.Hour)))
		}
		switch r.Intn(6) {
		case 0:
			op.Batch = 1 + r.Intn(20)
		case 1:
			op.Capacity = c.CapBps * (0.5 + r.Float64())
		case 2:
			op.Drain = time.Duration(1+r.Intn(40)) * time.Millisecond
		}
		c.Ops = append(c.Ops, op)
	}
	return reflect.ValueOf(c)
}

// run drives a chunked queue and a per-step twin through c's
// operations and reports the first state in which they differ.
func (c advanceCase) run() error {
	cfg := Config{CapacityBps: c.CapBps, BufferDrain: c.Drain, Load: c.Load, Step: c.Step,
		Start: c.Start, PacketBits: c.PacketBits}
	q, ref := NewFluid(cfg), NewFluid(cfg)
	for k, op := range c.Ops {
		t := q.lastTime.Add(simclock.Duration(op.Full)*c.Step + op.Rem)
		switch {
		case op.Batch > 0:
			steps := make([]simclock.Time, op.Batch)
			for i := range steps {
				steps[i] = t.Add(simclock.Duration(i) * 5 * time.Minute)
			}
			q.AdvanceBatch(steps)
			perStepAdvanceBatch(ref, steps)
		case op.Capacity > 0:
			q.SetCapacity(t, op.Capacity)
			perStepAdvance(ref, t)
			ref.SetCapacity(t, op.Capacity)
		case op.Drain > 0:
			q.SetBufferDrain(t, op.Drain)
			perStepAdvance(ref, t)
			ref.SetBufferDrain(t, op.Drain)
		default:
			q.advance(t)
			perStepAdvance(ref, t)
		}
		if err := sameState(q, ref); err != nil {
			return fmt.Errorf("op %d %+v: %v", k, op, err)
		}
	}
	return nil
}

// sameState compares the frontier and the batch tables in bits.
func sameState(q, ref *Fluid) error {
	bits := math.Float64bits
	if q.lastTime != ref.lastTime || bits(q.occupancy) != bits(ref.occupancy) || bits(q.lossFrac) != bits(ref.lossFrac) {
		return fmt.Errorf("frontier (%v, %v, %v), per-step (%v, %v, %v)",
			q.lastTime, q.occupancy, q.lossFrac, ref.lastTime, ref.occupancy, ref.lossFrac)
	}
	if bits(q.capacityBps) != bits(ref.capacityBps) || bits(q.bufferBits) != bits(ref.bufferBits) {
		return fmt.Errorf("capacity/buffer (%v, %v), per-step (%v, %v)", q.capacityBps, q.bufferBits, ref.capacityBps, ref.bufferBits)
	}
	if len(q.batchTime) != len(ref.batchTime) {
		return fmt.Errorf("batch of %d steps, per-step %d", len(q.batchTime), len(ref.batchTime))
	}
	for i := range q.batchTime {
		if q.batchTime[i] != ref.batchTime[i] || bits(q.batchOcc[i]) != bits(ref.batchOcc[i]) || bits(q.batchLoss[i]) != bits(ref.batchLoss[i]) {
			return fmt.Errorf("batch step %d: (%v, %v, %v), per-step (%v, %v, %v)", i,
				q.batchTime[i], q.batchOcc[i], q.batchLoss[i], ref.batchTime[i], ref.batchOcc[i], ref.batchLoss[i])
		}
	}
	return nil
}

// Chunked advance reproduces the per-step loop bit for bit across chunk
// boundaries, batches, and capacity and buffer changes.
func TestQuickChunkedAdvanceMatchesPerStep(t *testing.T) {
	check := func(c advanceCase) bool {
		if err := c.run(); err != nil {
			t.Logf("%s: %v", c.Desc, err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(20))}); err != nil {
		t.Fatal(err)
	}
}

// The observatory-live catch-up: a planted port built at Epoch and
// first read on July 20, then advanced through a few 5-minute batch
// steps, with a buffer and a capacity change between them.
func TestCatchUpMatchesPerStep(t *testing.T) {
	d := trafficmodel.Diurnal{BaseBps: 0.5e9, PeakBps: 1.2e9, PeakHour: 15, Width: 2.5,
		WeekendFactor: 0.75, DayJitterFrac: 0.1, NoiseFrac: 0.06, Seed: 0x109D}
	july20 := simclock.Date(2016, time.July, 20)
	c := advanceCase{
		Desc: "catch-up", Load: d.Load(), CapBps: 1e9, Drain: 20 * time.Millisecond,
		Step: 30 * time.Second, PacketBits: 12000,
		Ops: []advanceOp{
			{Rem: july20.Sub(0)},
			{Rem: 7 * time.Second, Drain: 12500 * time.Microsecond},
			{Full: 10, Batch: 288},
			{Full: fillChunk, Capacity: 2e9},
			{Full: fillChunk + 1, Rem: 1},
			{Rem: -time.Minute},
		},
	}
	if err := c.run(); err != nil {
		t.Fatal(err)
	}
}
