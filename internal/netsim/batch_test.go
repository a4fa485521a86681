package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"afrixp/internal/queue"
	"afrixp/internal/simclock"
	"afrixp/internal/trafficmodel"
)

// Batched world advancement (AdvanceQueuesBatch + ProbeCtx.SetStep)
// must reproduce the per-step frozen protocol bit-identically —
// delays, loss draws and all — since the campaign scheduler treats the
// two as interchangeable.
func TestSampleCtxBatchMatchesPerStep(t *testing.T) {
	build := func() (*world, *ProbePath, *ProbeCtx) {
		w := buildWorld(t)
		load := trafficmodel.Diurnal{
			BaseBps: 60e6, PeakBps: 70e6, PeakHour: 14, Width: 3,
			NoiseFrac: 0.3, Seed: 9,
		}
		w.r200FromFabric.Queue = queue.NewFluid(queue.Config{
			CapacityBps: 100e6, BufferDrain: 28 * time.Millisecond,
			Load: trafficmodel.Func(load.Bps), PacketBits: 12000,
		})
		w.r200FromFabric.BaseLoss = 0.01
		pp, err := w.nw.TracePath(w.vp, w.farAddr, 64)
		if err != nil {
			t.Fatal(err)
		}
		return w, pp, w.nw.NewProbeCtx(1)
	}
	wA, ppA, ctxA := build() // advanced step by step
	wB, ppB, ctxB := build() // advanced in one batch

	const n = 48
	steps := make([]simclock.Time, n)
	for i := range steps {
		steps[i] = simclock.Time(time.Duration(i) * 5 * time.Minute)
	}
	wB.nw.AdvanceQueuesBatch(steps)
	for i, at := range steps {
		wA.nw.AdvanceQueuesBatch([]simclock.Time{at})
		ctxB.SetStep(i)
		// Several probes per step, spilling past the step boundary the
		// way loss batches do, so the forward-integration path runs.
		for k := 0; k < 3; k++ {
			probeAt := at.Add(time.Duration(k) * 700 * time.Millisecond)
			d1, ok1 := ppA.SampleCtx(ctxA, probeAt)
			d2, ok2 := ppB.SampleCtx(ctxB, probeAt)
			if d1 != d2 || ok1 != ok2 {
				t.Fatalf("step %d probe %d: per-step (%v,%v) != batched (%v,%v)",
					i, k, d1, ok1, d2, ok2)
			}
		}
	}

	// SetStep(-1) returns the context to live-frontier observation; both
	// worlds' frontiers now sit at the last step, so samples still agree.
	ctxB.SetStep(-1)
	d1, ok1 := ppA.SampleCtx(ctxA, steps[n-1])
	d2, ok2 := ppB.SampleCtx(ctxB, steps[n-1])
	if d1 != d2 || ok1 != ok2 {
		t.Fatalf("frontier mode after batch: (%v,%v) != (%v,%v)", d1, ok1, d2, ok2)
	}
}

// cursorRead is one frozen traversal in TestQuickCursorSlotsMatchFresh:
// a pipe, a batch step (-1 for the live frontier) and an offset past
// the step's time.
type cursorRead struct {
	Pipe, Step int
	At         simclock.Duration
}

// Frozen traversals that resume from a ProbeCtx's cursor slots must
// match traversals that integrate afresh from the frontier — exit
// times, survival and nonce stream alike — when more queues than slots
// share the context, so slots are evicted and reclaimed mid-sequence.
func TestQuickCursorSlotsMatchFresh(t *testing.T) {
	const nPipes = 3 * cursorSlots
	check := func(seed uint16, raw []cursorRead) bool {
		pipes := make([]*Pipe, nPipes)
		steps := []simclock.Time{simclock.LossStart.Add(13 * time.Hour)}
		for k := 1; k < 4; k++ {
			steps = append(steps, steps[k-1].Add(5*time.Minute))
		}
		for i := range pipes {
			load := trafficmodel.Diurnal{BaseBps: 50e6, PeakBps: 130e6, PeakHour: 14,
				Width: 2, NoiseFrac: 0.2, Seed: uint64(seed)<<8 | uint64(i)}
			pipes[i] = &Pipe{Prop: 100 * time.Microsecond, BaseLoss: 0.01, seed: uint64(i),
				Queue: queue.NewFluid(queue.Config{CapacityBps: 100e6, BufferDrain: 25 * time.Millisecond,
					Load: load.Load(), PacketBits: 12000, Start: steps[0].Add(-time.Hour)})}
			pipes[i].Queue.AdvanceBatch(steps)
		}
		resumed := &ProbeCtx{salt: 1 << 40}
		fresh := &ProbeCtx{salt: 1 << 40}
		prev := make([]simclock.Duration, nPipes)
		for _, rd := range raw {
			p := int(uint(rd.Pipe) % nPipes)
			// Mostly climb per pipe, the way a step's loss probes do;
			// otherwise jump anywhere in the next two minutes.
			at := prev[p] + rd.At%(3*time.Second)
			if rd.At%4 == 0 {
				at = rd.At % (2 * time.Minute)
			}
			if at < 0 {
				at = -at
			}
			prev[p] = at
			step := int(uint(rd.Step)%uint(len(steps)+1)) - 1
			origin := steps[len(steps)-1]
			if step >= 0 {
				origin = steps[step]
			}
			resumed.SetStep(step)
			fresh.SetStep(step)
			fresh.cursors = [cursorSlots]queue.Cursor{}
			e1, ok1 := pipes[p].traverseFrozen(resumed, origin.Add(at))
			e2, ok2 := pipes[p].traverseFrozen(fresh, origin.Add(at))
			if e1 != e2 || ok1 != ok2 || resumed.count != fresh.count {
				t.Logf("read %+v: resumed (%v, %v), fresh (%v, %v)", rd, e1, ok1, e2, ok2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// A context keeps one slot per queue while it reads no more queues
// than it has slots.
func TestProbeCtxCursorSlots(t *testing.T) {
	ctx := &ProbeCtx{}
	qs := make([]*queue.Fluid, cursorSlots)
	for i := range qs {
		qs[i] = queue.NewFluid(queue.Config{CapacityBps: 1e6})
		qs[i].ObserveFrozenCursor(ctx.cursor(qs[i]), -1, simclock.Time(time.Minute))
	}
	for round := 0; round < 3; round++ {
		for _, q := range qs {
			if c := ctx.cursor(q); c.Queue() != q {
				t.Fatalf("round %d: queue lost its slot", round)
			}
		}
	}
	extra := queue.NewFluid(queue.Config{CapacityBps: 1e6})
	if c := ctx.cursor(extra); c.Queue() == extra {
		t.Fatal("unread queue found a slot of its own")
	}
}

// BenchmarkFrozenLossBatch is one batch step's loss campaign on a
// congested path: a TSLP-style probe at the step time, then 100
// one-second loss probes spilling past it, all through the frozen read
// path with the context's cursors.
func BenchmarkFrozenLossBatch(b *testing.B) {
	w := buildWorld(b)
	load := trafficmodel.Diurnal{BaseBps: 60e6, PeakBps: 115e6, PeakHour: 14, Width: 3,
		DayJitterFrac: 0.1, NoiseFrac: 0.06, Seed: 9}
	w.r200FromFabric.Queue = queue.NewFluid(queue.Config{
		CapacityBps: 100e6, BufferDrain: 28 * time.Millisecond,
		Load: load.Load(), PacketBits: 12000,
		Start: simclock.LossStart,
	})
	pp, err := w.nw.TracePath(w.vp, w.farAddr, 64)
	if err != nil {
		b.Fatal(err)
	}
	step := simclock.LossStart.Add(14 * time.Hour)
	w.nw.AdvanceQueuesBatch([]simclock.Time{step})
	ctx := w.nw.NewProbeCtx(1)
	ctx.SetStep(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pp.SampleCtx(ctx, step)
		for k := 0; k < 100; k++ {
			pp.SampleCtx(ctx, step.Add(time.Duration(k)*time.Second))
		}
	}
}
