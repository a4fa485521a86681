package netsim

import (
	"fmt"
	"slices"

	"afrixp/internal/netaddr"
	"afrixp/internal/queue"
	"afrixp/internal/simclock"
)

// ProbePath is a cached probe trajectory: the exact pipe sequence a
// TTL-limited echo probe traverses from a vantage point to its
// responder and back. Bulk TSLP campaigns sample RTTs through it
// without re-encoding packets at every hop; equivalence with the
// packet-level walk is property-tested (TestProbePathMatchesInject).
type ProbePath struct {
	nw      *Network
	version int64

	// FwdPipes carries the probe to the responder; RevPipes carries
	// the response back.
	FwdPipes []*Pipe
	RevPipes []*Pipe
	// Responder answers the probe (echo reply if it owns Dst, time
	// exceeded if the TTL ran out there).
	Responder *Node
	// RespAddr is the source address of the response — the near- or
	// far-end identifier TSLP records.
	RespAddr netaddr.Addr
	// HopAddrs are the arrival interface addresses along the forward
	// path, hop by hop (what traceroute would reveal).
	HopAddrs []netaddr.Addr
	// Expired reports whether the responder answered with a
	// time-exceeded (TTL ran out) rather than an echo reply.
	Expired bool

	// fwd and rev are FwdPipes and RevPipes compiled for SampleCtx
	// (compileLeg), and static reports that neither has a pipe that
	// can drop or delay a packet beyond its Prop.
	fwd, rev leg
	static   bool
}

// leg is one direction of a ProbePath compiled for the frozen sampler.
// A static pipe — no Queue, no Up gate, no BaseLoss — can neither drop
// a packet nor delay it by more than its Prop, and traverseFrozen draws
// exactly one nonce for it. So each run of static pipes collapses into
// its summed Prop plus a skip of its length in the nonce stream, and
// only the pipes between runs are walked. Duration sums are exact
// integer adds, so the exit times are the per-pipe walk's.
type leg struct {
	// spans are the leg's dynamic pipes, each behind the static run
	// that precedes it.
	spans []span
	// tailProp and tailSkip are the static run after the last dynamic
	// pipe (the whole leg when spans is empty).
	tailProp simclock.Duration
	tailSkip uint64
}

// span is a static run (its summed Prop and pipe count) followed by
// one dynamic pipe.
type span struct {
	prop simclock.Duration
	skip uint64
	pipe *Pipe
}

// static reports whether p cannot drop a packet: traversing it only
// adds its Prop.
func (p *Pipe) static() bool { return p.Queue == nil && p.Up == nil && p.BaseLoss == 0 }

// compileLeg compiles a pipe sequence. A pipe's Queue, Up, BaseLoss and
// Prop are read here, once, so code that changes them after a path is
// resolved must bump the topology version (Network.PipesChanged or
// InvalidateRoutes), which makes the path invalid and its owner
// resolve — and compile — it again.
func compileLeg(pipes []*Pipe) leg {
	var l leg
	for _, p := range pipes {
		if p.static() {
			l.tailProp += p.Prop
			l.tailSkip++
			continue
		}
		l.spans = append(l.spans, span{prop: l.tailProp, skip: l.tailSkip, pipe: p})
		l.tailProp, l.tailSkip = 0, 0
	}
	return l
}

// walk traverses the compiled leg from t for one probe of ctx's
// stream: exactly traverseFrozen over every pipe in order, stopping at
// the first drop.
func (l *leg) walk(ctx *ProbeCtx, t simclock.Time) (simclock.Time, bool) {
	for i := range l.spans {
		s := &l.spans[i]
		ctx.count += s.skip
		t = t.Add(s.prop)
		if s.pipe.Queue != nil {
			ctx.stats.QueueFrozenObs++
		}
		exit, ok := s.pipe.traverseFrozen(ctx, t)
		if !ok {
			return t, false
		}
		t = exit
	}
	ctx.count += l.tailSkip
	return t.Add(l.tailProp), true
}

// TracePath resolves the trajectory of an echo probe with the given
// TTL from src toward dst. It resolves over the trajectory memo Echo
// replays, so probes and paths share one route resolver, and copies the
// memo's pipes and hop addresses into the path, since the next resolve
// reuses that storage. Routing is time-invariant in the simulator (only
// pipe conditions vary), so the path can be cached until the topology
// version changes.
//
// It fails where Echo declines: when src owns dst, a step on either leg
// has no route, or a leg is longer than trajectoryMaxHops. Same
// single-goroutine contract as Echo: resolve on the coordinator
// (discovery, the paths barrier hook), never from a probing worker.
func (nw *Network) TracePath(src *Node, dst netaddr.Addr, ttl int) (*ProbePath, error) {
	tr := &nw.traj
	tr.aim(nw, src, dst)
	if tr.dstOwner == src.ID {
		return nil, fmt.Errorf("netsim: %s owns probe target %v", src.Name, dst)
	}
	j, ok := tr.forward(nw, max(ttl, 1))
	if !ok {
		return nil, fmt.Errorf("netsim: no route from %s toward %v", src.Name, dst)
	}
	last := tr.fwd[j-1]
	resp := nw.nodes[last.arrival.Node]
	if !tr.reverse(nw, resp) {
		return nil, fmt.Errorf("netsim: no return route from %s toward %v", resp.Name, tr.back)
	}
	pp := &ProbePath{nw: nw, version: nw.version,
		FwdPipes: slices.Clone(tr.fwdPipes[:last.pipeEnd]), RevPipes: slices.Clone(tr.revPipes),
		Responder: resp, RespAddr: last.arrival.Addr, Expired: true,
		HopAddrs: make([]netaddr.Addr, j)}
	for i, s := range tr.fwd[:j] {
		pp.HopAddrs[i] = s.arrival.Addr
	}
	if resp.ID == tr.dstOwner {
		pp.RespAddr, pp.Expired = dst, false
	}
	pp.compile()
	return pp, nil
}

// compile builds the path's compiled legs from its pipe sequences.
func (pp *ProbePath) compile() {
	pp.fwd, pp.rev = compileLeg(pp.FwdPipes), compileLeg(pp.RevPipes)
	pp.static = len(pp.fwd.spans) == 0 && len(pp.rev.spans) == 0
}

// Valid reports whether the cached path still reflects the topology.
func (pp *ProbePath) Valid() bool { return pp.version == pp.nw.version }

// Sample sends one virtual probe along the cached path at time t,
// returning the RTT and whether a response arrived (false = loss). It
// makes Inject's state changes except the responder's IP ID, which it
// does not model.
func (pp *ProbePath) Sample(t simclock.Time) (simclock.Duration, bool) {
	at, _, ok := pp.nw.replay(pp.FwdPipes, pp.Responder, pp.RevPipes, t, false)
	if !ok {
		return 0, false
	}
	return at.Sub(t), true
}

// ProbeCtx is one measurement agent's private probe-side state: an
// independent nonce stream for deterministic loss draws. Each
// concurrently-probing agent (one per vantage point) owns its own
// context; the streams are disjoint by construction, so a probe's loss
// draw depends only on its position in its own VP's stream — never on
// how worker goroutines interleave. That property is what makes
// campaign results bit-identical for any worker count.
//
// A ProbeCtx must not be shared between goroutines.
type ProbeCtx struct {
	salt  uint64
	count uint64
	// step is the batch-step index plus one; zero observes the live
	// queue frontier (the non-batched protocol). See SetStep.
	step int
	// stats counts sampling outcomes. Plain counters: the single-owner
	// contract makes them free and race-free; the engine republishes
	// them into atomic telemetry counters at batch barriers (Stats).
	stats ProbeStats
	// cursors resume this agent's frozen reads of recently read queues
	// (queue.Cursor), claimed round robin from nextCursor. They are a
	// pure cache — results never depend on them — so they are neither
	// shared nor checkpointed.
	cursors    [cursorSlots]queue.Cursor
	nextCursor int
}

// cursorSlots is how many queues a ProbeCtx keeps resumable reads for:
// room for every queued pipe on a link's near and far paths, forward
// and reverse, which its loss probes visit in turn.
const cursorSlots = 8

// cursor returns the cursor slot for q: the one that last read q, or
// else the next slot in round-robin order, which the read restarts.
func (c *ProbeCtx) cursor(q *queue.Fluid) *queue.Cursor {
	for i := range c.cursors {
		if c.cursors[i].Queue() == q {
			return &c.cursors[i]
		}
	}
	cur := &c.cursors[c.nextCursor]
	c.nextCursor = (c.nextCursor + 1) % cursorSlots
	return cur
}

// SetStep points subsequent samples at batch step i of the most recent
// Network.AdvanceQueuesBatch, so a worker can replay the whole batch
// without the world stopping at each step. A negative i restores
// live-frontier observation. The step index only selects which recorded
// queue state a sample reads; the nonce stream is untouched, which is
// why batching cannot perturb loss draws.
func (c *ProbeCtx) SetStep(i int) {
	if i < 0 {
		c.step = 0
	} else {
		c.step = i + 1
	}
}

// NewProbeCtx derives an agent-scoped probe context. id distinguishes
// agents (the VP node id); streams are spaced 2^40 nonces apart, far
// beyond any campaign's probe count.
func (nw *Network) NewProbeCtx(id uint64) *ProbeCtx {
	return &ProbeCtx{salt: (id + 1) << 40}
}

// nonce returns the next per-packet nonce of this context's stream.
func (c *ProbeCtx) nonce() uint64 {
	c.count++
	return c.salt + c.count
}

// NonceCount returns the number of nonces drawn so far — the context's
// position in its private stream, checkpointed by the engine so a
// resumed campaign replays the identical loss draws.
func (c *ProbeCtx) NonceCount() uint64 { return c.count }

// RestoreNonceCount repositions the nonce stream from a checkpoint.
func (c *ProbeCtx) RestoreNonceCount(n uint64) { c.count = n }

// SampleCtx sends one virtual probe along the cached path at time t
// using the caller's probe context for loss draws and the frozen queue
// read path for conditions. Unlike Sample it mutates no network state
// (shared ICMP rate-limit buckets, when present, are serialized under
// a lock — worlds probing such responders from multiple VPs trade
// cross-worker bit-determinism for the shared budget; the paper world
// has none). Callers must have published the containing batch via
// Network.AdvanceQueuesBatch and pointed the context at the step being
// replayed with SetStep, or left it on the live frontier after a batch
// ending at the current step.
//
// It walks the path's compiled legs (leg), so a run of static pipes
// costs one add, and a path with no dynamic pipe skips the walk; the
// RTT, the outcome, the nonce count and every ProbeStats field are the
// per-pipe walk's (TestQuickCompiledSampleMatchesPipeWalk). The
// responder's hooks are read per probe, since faults and probe-rate
// policies set them on live nodes.
func (pp *ProbePath) SampleCtx(ctx *ProbeCtx, t simclock.Time) (simclock.Duration, bool) {
	st := &ctx.stats
	st.Probes++
	start := t
	r := pp.Responder
	if pp.static && r.ICMPDown == nil && r.ICMPRateLimit == nil {
		// Nothing on the path can drop the probe: its RTT is the two
		// legs' Prop around the responder's delay, and it draws one
		// nonce per pipe.
		ctx.count += pp.fwd.tailSkip + pp.rev.tailSkip
		t = t.Add(pp.fwd.tailProp)
		if r.ICMPDelay != nil {
			t = t.Add(r.ICMPDelay(t))
		}
		rtt := t.Add(pp.rev.tailProp).Sub(start)
		st.Delivered++
		st.observeRTT(rtt)
		return rtt, true
	}
	t, ok := pp.fwd.walk(ctx, t)
	if !ok {
		st.PipeDrops++
		return 0, false
	}
	if r.ICMPDown != nil && r.ICMPDown(t) {
		st.ICMPSilenced++
		return 0, false
	}
	if rl := r.ICMPRateLimit; rl != nil {
		pp.nw.rlMu.Lock()
		ok := rl.Allow(t)
		pp.nw.rlMu.Unlock()
		if !ok {
			st.RateLimited++
			return 0, false
		}
	}
	if r.ICMPDelay != nil {
		t = t.Add(r.ICMPDelay(t))
	}
	if t, ok = pp.rev.walk(ctx, t); !ok {
		st.PipeDrops++
		return 0, false
	}
	st.Delivered++
	rtt := t.Sub(start)
	st.observeRTT(rtt)
	return rtt, true
}

// Up reports whether every pipe on the path passes traffic at t.
func (pp *ProbePath) Up(t simclock.Time) bool {
	for _, p := range pp.FwdPipes {
		if !p.IsUp(t) {
			return false
		}
	}
	for _, p := range pp.RevPipes {
		if !p.IsUp(t) {
			return false
		}
	}
	return true
}
