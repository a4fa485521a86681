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

// pipeWalkSample is SampleCtx as it was before probe paths were
// compiled: one traverseFrozen per pipe, in order. It is the oracle the
// compiled legs are checked against.
func pipeWalkSample(pp *ProbePath, ctx *ProbeCtx, t simclock.Time) (simclock.Duration, bool) {
	st := &ctx.stats
	st.Probes++
	start := t
	for _, p := range pp.FwdPipes {
		if p.Queue != nil {
			st.QueueFrozenObs++
		}
		exit, ok := p.traverseFrozen(ctx, t)
		if !ok {
			st.PipeDrops++
			return 0, false
		}
		t = exit
	}
	if pp.Responder.ICMPDown != nil && pp.Responder.ICMPDown(t) {
		st.ICMPSilenced++
		return 0, false
	}
	if rl := pp.Responder.ICMPRateLimit; rl != nil {
		pp.nw.rlMu.Lock()
		ok := rl.Allow(t)
		pp.nw.rlMu.Unlock()
		if !ok {
			st.RateLimited++
			return 0, false
		}
	}
	if pp.Responder.ICMPDelay != nil {
		t = t.Add(pp.Responder.ICMPDelay(t))
	}
	for _, p := range pp.RevPipes {
		if p.Queue != nil {
			st.QueueFrozenObs++
		}
		exit, ok := p.traverseFrozen(ctx, t)
		if !ok {
			st.PipeDrops++
			return 0, false
		}
		t = exit
	}
	st.Delivered++
	rtt := t.Sub(start)
	st.observeRTT(rtt)
	return rtt, true
}

// compiledCase is one random probe path: its pipe kinds, forward then
// reverse, and which responder hooks are set.
type compiledCase struct {
	Seed     int64
	Kinds    []uint8
	NFwd     uint8
	Down     bool
	Delay    bool
	RateLim  bool
	Steps    uint8
	PerStep  uint8
	OffsetMs []uint16
}

// buildCompiledCase builds the case's path twice over shared pipes and
// queues but separate responders, since a rate limiter is consumed by
// each probe. Pipe kinds: 0–2 static, 3 queued, 4 queued with base
// loss, 5 gated, 6 base loss alone, 7 gated and queued.
func buildCompiledCase(c compiledCase, steps []simclock.Time) (*ProbePath, *ProbePath) {
	rng := rand.New(rand.NewSource(c.Seed))
	nw := &Network{version: 1}
	pipes := make([]*Pipe, len(c.Kinds))
	for i, k := range c.Kinds {
		p := &Pipe{Prop: time.Duration(1+rng.Intn(3000)) * time.Microsecond, seed: rng.Uint64()}
		kind := k % 8
		if kind == 3 || kind == 4 || kind == 7 {
			load := trafficmodel.Diurnal{BaseBps: 40e6, PeakBps: 60e6 + 100e6*rng.Float64(),
				PeakHour: 14, Width: 3, NoiseFrac: 0.1, DayJitterFrac: 0.2, Seed: rng.Uint64()}
			p.Queue = queue.NewFluid(queue.Config{CapacityBps: 100e6,
				BufferDrain: time.Duration(5+rng.Intn(30)) * time.Millisecond,
				Load:        load.Load(), PacketBits: 12000, Start: steps[0].Add(-time.Hour)})
			p.Queue.AdvanceBatch(steps)
		}
		if kind == 4 || kind == 6 {
			p.BaseLoss = 0.3 * rng.Float64()
		}
		if kind == 5 || kind == 7 {
			period := time.Duration(1+rng.Intn(20)) * time.Second
			p.Up = func(t simclock.Time) bool { return (int64(t)/int64(period))%3 != 0 }
		}
		pipes[i] = p
	}
	nf := int(c.NFwd) % (len(pipes) + 1)
	mk := func() *ProbePath {
		r := &Node{}
		if c.Down {
			r.ICMPDown = func(t simclock.Time) bool { return (int64(t)/int64(1700*time.Millisecond))%4 == 0 }
		}
		if c.Delay {
			r.ICMPDelay = func(t simclock.Time) simclock.Duration { return time.Duration(int64(t) % int64(3*time.Millisecond)) }
		}
		if c.RateLim {
			r.ICMPRateLimit = queue.NewTokenBucket(2, 2, 0)
		}
		pp := &ProbePath{nw: nw, version: nw.version, Responder: r,
			FwdPipes: pipes[:nf], RevPipes: pipes[nf:]}
		pp.compile()
		return pp
	}
	return mk(), mk()
}

// For every probe, the compiled sampler must equal the per-pipe walk
// in RTT, outcome, the nonce count afterwards and every ProbeStats
// field, over random mixes of static, queued, gated and lossy pipes
// and responders with and without ICMP hooks.
func TestQuickCompiledSampleMatchesPipeWalk(t *testing.T) {
	sawStatic, sawDynamic := false, false
	check := func(c compiledCase) bool {
		if len(c.Kinds) > 12 {
			c.Kinds = c.Kinds[:12]
		}
		nSteps := 1 + int(c.Steps)%4
		steps := make([]simclock.Time, nSteps)
		steps[0] = simclock.LossStart.Add(13 * time.Hour)
		for k := 1; k < nSteps; k++ {
			steps[k] = steps[k-1].Add(5 * time.Minute)
		}
		ppC, ppO := buildCompiledCase(c, steps)
		if ppC.static {
			sawStatic = true
		} else {
			sawDynamic = true
		}
		ctxC, ctxO := &ProbeCtx{salt: 3 << 40}, &ProbeCtx{salt: 3 << 40}
		perStep := 1 + int(c.PerStep)%40
		o := 0
		for k, st := range steps {
			ctxC.SetStep(k)
			ctxO.SetStep(k)
			for j := 0; j < perStep; j++ {
				at := st.Add(time.Duration(j) * 250 * time.Millisecond)
				if len(c.OffsetMs) > 0 {
					at = at.Add(time.Duration(c.OffsetMs[o%len(c.OffsetMs)]) * time.Millisecond)
					o++
				}
				d1, ok1 := ppC.SampleCtx(ctxC, at)
				d2, ok2 := pipeWalkSample(ppO, ctxO, at)
				if d1 != d2 || ok1 != ok2 || ctxC.count != ctxO.count || ctxC.stats != ctxO.stats {
					t.Logf("kinds %v fwd %d step %d probe %d: compiled (%v,%v,n=%d,%+v), walk (%v,%v,n=%d,%+v)",
						c.Kinds, len(ppC.FwdPipes), k, j, d1, ok1, ctxC.count, ctxC.stats,
						d2, ok2, ctxO.count, ctxO.stats)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
	if !sawStatic || !sawDynamic {
		t.Fatalf("cases covered static paths %v, dynamic paths %v; want both", sawStatic, sawDynamic)
	}
}

// compileLeg collapses each static run into its summed Prop and pipe
// count, keeping every dynamic pipe in order behind its run.
func TestCompileLegCollapsesStaticRuns(t *testing.T) {
	q := queue.NewFluid(queue.Config{CapacityBps: 1e6})
	s1, s2, s3 := &Pipe{Prop: 1}, &Pipe{Prop: 20}, &Pipe{Prop: 300}
	dq := &Pipe{Prop: 4000, Queue: q}
	dl := &Pipe{Prop: 50000, BaseLoss: 0.1}
	l := compileLeg([]*Pipe{s1, s2, dq, dl, s3})
	want := []span{{prop: 21, skip: 2, pipe: dq}, {prop: 0, skip: 0, pipe: dl}}
	if len(l.spans) != len(want) {
		t.Fatalf("spans %+v, want %+v", l.spans, want)
	}
	for i := range want {
		if l.spans[i] != want[i] {
			t.Fatalf("span %d = %+v, want %+v", i, l.spans[i], want[i])
		}
	}
	if l.tailProp != 300 || l.tailSkip != 1 {
		t.Fatalf("tail = %v/%d, want 300ns/1", l.tailProp, l.tailSkip)
	}
	if e := compileLeg(nil); len(e.spans) != 0 || e.tailProp != 0 || e.tailSkip != 0 {
		t.Fatalf("empty leg compiled to %+v", e)
	}
}

// A gate set after a path was resolved reaches the compiled path once
// the change is reported: PipesChanged invalidates the path, and the
// re-resolved path drops every probe past the cutoff.
func TestPipesChangedRecompilesGate(t *testing.T) {
	w := buildWorld(t)
	pp, err := w.nw.TracePath(w.vp, w.farAddr, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !pp.static {
		t.Fatal("the clean test world's path should compile to one static run per leg")
	}
	cutoff := simclock.Time(time.Hour)
	w.r200FromFabric.Up = DownAfter(cutoff)
	w.nw.PipesChanged()
	if pp.Valid() {
		t.Fatal("PipesChanged must invalidate resolved paths")
	}
	pp, err = w.nw.TracePath(w.vp, w.farAddr, 64)
	if err != nil {
		t.Fatal(err)
	}
	ctx := w.nw.NewProbeCtx(1)
	if _, ok := pp.SampleCtx(ctx, cutoff.Add(-time.Minute)); !ok {
		t.Fatal("probe before the cutoff was lost")
	}
	if _, ok := pp.SampleCtx(ctx, cutoff.Add(time.Minute)); ok {
		t.Fatal("probe after the cutoff crossed a downed pipe")
	}
}
