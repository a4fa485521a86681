// Package netsim simulates the internetwork the measurement plane
// probes: routers and hosts with addressed interfaces, point-to-point
// links, IXP switch fabrics (LANs with per-member port queues), IPv4
// forwarding with TTL decrement and Record-Route stamping, ICMP
// echo/time-exceeded generation (with optional slow control-plane
// response), and fluid queues driven by background traffic models.
//
// Probe packets are real wire-format datagrams (internal/packet); the
// simulator walks them hop by hop, accumulating propagation and
// queueing delay and drawing deterministic loss. A cached fast path
// (ProbePath) replays the same pipe sequence without per-hop
// re-encoding for bulk year-long TSLP campaigns; its equivalence to
// the packet walk is property-tested. Echo replays discovery probes
// the same way over memoized routing (trajectory.go).
package netsim

import (
	"time"

	"afrixp/internal/queue"
	"afrixp/internal/simclock"
)

// Pipe is one direction of a transmission path segment: fixed
// propagation delay, an optional fluid queue, an optional baseline
// loss rate, and an optional up/down schedule.
type Pipe struct {
	// Prop is the propagation + serialization delay.
	Prop simclock.Duration
	// Queue, when non-nil, contributes time-varying queueing delay and
	// congestion loss.
	Queue *queue.Fluid
	// BaseLoss is a load-independent loss probability (dirty optics,
	// faulty line cards). Zero for clean links.
	BaseLoss float64
	// Up, when non-nil, gates the pipe: packets entering while !Up(t)
	// are lost. Used for the GIXA–GHANATEL shutdown of 2016-08-06.
	Up func(simclock.Time) bool

	seed uint64
}

// Traverse moves a packet through the pipe starting at time t. It
// returns the exit time and whether the packet survived. n is a
// per-packet nonce used for deterministic loss draws.
func (p *Pipe) Traverse(t simclock.Time, n uint64) (simclock.Time, bool) {
	if p.Up != nil && !p.Up(t) {
		return t, false
	}
	d := p.Prop
	loss := p.BaseLoss
	if p.Queue != nil {
		d += p.Queue.DelayAt(t)
		loss = 1 - (1-loss)*(1-p.Queue.LossAt(t))
	}
	if loss > 0 && hashUnit(p.seed, n) < loss {
		return t, false
	}
	return t.Add(d), true
}

// traverseFrozen is Traverse against the queue's frozen integration
// frontier, for one probe of ctx's stream: the fluid state is computed
// for t without being advanced — at the batch step ctx points at, or
// the live frontier — so concurrent probes (each context with its own
// nonce stream) observe identical conditions regardless of ordering.
// The queue read resumes from ctx's cursor for the queue, which changes
// its cost but never its result. The campaign engine pairs it with
// Network.AdvanceQueuesBatch at each barrier.
func (p *Pipe) traverseFrozen(ctx *ProbeCtx, t simclock.Time) (simclock.Time, bool) {
	n := ctx.nonce()
	if p.Up != nil && !p.Up(t) {
		return t, false
	}
	d := p.Prop
	loss := p.BaseLoss
	if p.Queue != nil {
		qd, ql := p.Queue.ObserveFrozenCursor(ctx.cursor(p.Queue), ctx.step-1, t)
		d += qd
		loss = 1 - (1-loss)*(1-ql)
	}
	if loss > 0 && hashUnit(p.seed, n) < loss {
		return t, false
	}
	return t.Add(d), true
}

// LossAt returns the pipe's total loss probability at t.
func (p *Pipe) LossAt(t simclock.Time) float64 {
	loss := p.BaseLoss
	if p.Queue != nil {
		loss = 1 - (1-loss)*(1-p.Queue.LossAt(t))
	}
	return loss
}

// IsUp reports whether the pipe passes traffic at t.
func (p *Pipe) IsUp(t simclock.Time) bool { return p.Up == nil || p.Up(t) }

// DownAfter returns an Up schedule that is up before cutoff and down
// from cutoff onward.
func DownAfter(cutoff simclock.Time) func(simclock.Time) bool {
	return func(t simclock.Time) bool { return t < cutoff }
}

// hashUnit maps (seed, n) to a uniform [0,1) float — SplitMix64, the
// same construction trafficmodel uses, so loss draws are reproducible
// across runs without a shared RNG stream.
func hashUnit(seed, n uint64) float64 {
	z := seed + n*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// defaultProp is used when scenario authors leave propagation unset:
// 200 µs, a metro-scale fiber hop.
const defaultProp = 200 * time.Microsecond
