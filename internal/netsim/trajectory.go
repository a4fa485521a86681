package netsim

import (
	"slices"

	"afrixp/internal/netaddr"
	"afrixp/internal/packet"
	"afrixp/internal/simclock"
)

// EchoResult is the outcome of one TTL-limited echo probe: what Inject
// and a decode of its response would report.
type EchoResult struct {
	// Outcome is Delivered or Lost (Echo never reports Unreachable:
	// unroutable probes go through Inject).
	Outcome Outcome
	// At is the response's arrival time back at the source.
	At simclock.Time
	// From is the response's source address: the target for an echo
	// reply, the arrival interface for a time-exceeded.
	From netaddr.Addr
	// Type is the response's ICMP type.
	Type uint8
	// IPID is the response's IP identification field.
	IPID uint16
}

// trajectoryMaxHops bounds each direction of a memoized trajectory.
// Two such legs plus the responder's turn-around stay far inside
// Inject's maxWalkHops, and a return leg this short never runs out of
// the reply's 64-hop TTL, so every probe Echo replays is one Inject
// would walk to the same end. Longer paths (and routing loops) go
// through Inject.
const trajectoryMaxHops = 32

// trajectory memoizes the routing of TTL-limited echoes from one
// source, for Echo's replays and TracePath's paths alike: the forward
// steps toward the current target, so the probe with TTL k reuses
// steps 1..k-1, and each responder's step back toward the source
// address. resolveStep is a pure function of the node, the
// destination, the topology version and the BGP generation, so within
// one (source, version, generation) key the memo holds exactly the
// steps Inject would resolve. A key change resets it and keeps its
// storage. Owned by the Network under Inject's single-goroutine
// contract.
type trajectory struct {
	src     *Node
	version int64
	bgpGen  uint64
	// back is the source address responses return to.
	back netaddr.Addr

	// aimed reports whether dst, dstOwner and the forward steps are
	// set for the current key.
	aimed    bool
	dst      netaddr.Addr
	dstOwner NodeID // -1 when no node owns dst
	fwd      []fwdStep
	fwdPipes []*Pipe

	// rev is indexed by NodeID; an entry is valid when its epoch is
	// the current one, so a key change invalidates it in O(1).
	rev   []revStep
	epoch uint32
	// revPipes is one probe's return path, flattened for replay.
	revPipes []*Pipe
}

// fwdStep is one resolved forward step: the interface the probe
// arrives on, and the end of the step's pipes in fwdPipes.
type fwdStep struct {
	arrival *Iface
	pipeEnd int32
}

// revStep is a node's resolved step toward the source address.
type revStep struct {
	epoch  uint32
	next   NodeID
	npipes int8
	pipes  [2]*Pipe
}

// aim keys the trajectory on src and the current routing state, and
// points its forward steps at dst.
func (tr *trajectory) aim(nw *Network, src *Node, dst netaddr.Addr) {
	if tr.src != src || tr.version != nw.version || tr.bgpGen != nw.BGP.Generation() {
		tr.src, tr.version, tr.bgpGen = src, nw.version, nw.BGP.Generation()
		tr.back = nw.SrcAddr(src)
		tr.aimed = false
		tr.epoch++
		if tr.epoch == 0 {
			clear(tr.rev)
			tr.epoch = 1
		}
		// Membership events add nodes one join at a time; growing
		// like append keeps that from reallocating at every join.
		if n := len(nw.nodes); len(tr.rev) < n {
			tr.rev = slices.Grow(tr.rev, n-len(tr.rev))[:n]
		}
	}
	if tr.aimed && tr.dst == dst {
		return
	}
	tr.aimed, tr.dst, tr.dstOwner = true, dst, -1
	if id, ok := nw.byAddr[dst]; ok {
		tr.dstOwner = nw.ifaces[id].Node
	}
	tr.fwd, tr.fwdPipes = tr.fwd[:0], tr.fwdPipes[:0]
}

// forward resolves forward steps until there are want of them or the
// last one reaches dst's owner, and returns the responder's step
// count: the smaller of the two. ok is false when a step has no route
// or the leg would exceed trajectoryMaxHops.
func (tr *trajectory) forward(nw *Network, want int) (int, bool) {
	for len(tr.fwd) < want {
		cur := tr.src
		if n := len(tr.fwd); n > 0 {
			cur = nw.nodes[tr.fwd[n-1].arrival.Node]
			if cur.ID == tr.dstOwner {
				break
			}
		}
		if len(tr.fwd) == trajectoryMaxHops {
			return 0, false
		}
		h, ok := nw.resolveStep(cur, tr.dst)
		if !ok {
			return 0, false
		}
		tr.fwdPipes = append(tr.fwdPipes, h.pipeSeq()...)
		tr.fwd = append(tr.fwd, fwdStep{arrival: h.arrival, pipeEnd: int32(len(tr.fwdPipes))})
	}
	return min(want, len(tr.fwd)), true
}

// reverse flattens the return path from node r to the source into
// revPipes, resolving steps it has not memoized. ok is false when a
// step has no route or the leg would exceed trajectoryMaxHops.
func (tr *trajectory) reverse(nw *Network, r *Node) bool {
	tr.revPipes = tr.revPipes[:0]
	for cur, steps := r, 0; cur != tr.src; steps++ {
		if steps == trajectoryMaxHops {
			return false
		}
		s := &tr.rev[cur.ID]
		if s.epoch != tr.epoch {
			h, ok := nw.resolveStep(cur, tr.back)
			if !ok {
				return false
			}
			*s = revStep{epoch: tr.epoch, next: h.arrival.Node, npipes: h.npipes, pipes: h.pipes}
		}
		tr.revPipes = append(tr.revPipes, s.pipes[:s.npipes]...)
		cur = nw.nodes[s.next]
	}
	return true
}

// Echo sends a TTL-limited ICMP echo request from src toward dst at t
// over the memoized trajectory. It builds and decodes no wire, but
// makes exactly Inject's state changes in Inject's order (see replay)
// and counts one InjectStats walk.
//
// ok is false, with no state changed, when the trajectory cannot
// express the probe exactly: src owns dst, a step on either leg has no
// route, or a leg is longer than trajectoryMaxHops. The caller must
// then send the probe through Inject. Same single-goroutine contract
// as Inject.
func (nw *Network) Echo(src *Node, dst netaddr.Addr, ttl uint8, t simclock.Time) (EchoResult, bool) {
	tr := &nw.traj
	tr.aim(nw, src, dst)
	if tr.dstOwner == src.ID {
		return EchoResult{}, false
	}
	// The responder is the first node past src that owns dst, or the
	// node where the TTL runs out.
	j, ok := tr.forward(nw, max(int(ttl), 1))
	if !ok {
		return EchoResult{}, false
	}
	last := tr.fwd[j-1]
	resp := nw.nodes[last.arrival.Node]
	if !tr.reverse(nw, resp) {
		return EchoResult{}, false
	}

	at, ipid, delivered := nw.replay(tr.fwdPipes[:last.pipeEnd], resp, tr.revPipes, t, true)
	nw.injStats.Walks++
	if !delivered {
		nw.injStats.Lost++
		return EchoResult{Outcome: Lost}, true
	}
	nw.injStats.Delivered++
	res := EchoResult{Outcome: Delivered, At: at, IPID: ipid,
		From: last.arrival.Addr, Type: packet.ICMPTimeExceeded}
	if resp.ID == tr.dstOwner {
		res.From, res.Type = dst, packet.ICMPEchoReply
	}
	return res, true
}

// replay sends one probe over resolved pipes, making the state changes
// Inject's walk makes, in its order: a packet nonce and a Traverse for
// each forward pipe; the responder's ICMPDown, ICMPRateLimit.Allow and
// ICMPDelay, then its IP ID when ipid is set; a nonce and a Traverse
// for each return pipe. It stops at the first drop. It returns the
// response's arrival time, the IP ID drawn, and whether a response
// arrived.
func (nw *Network) replay(fwd []*Pipe, resp *Node, rev []*Pipe, t simclock.Time, ipid bool) (simclock.Time, uint16, bool) {
	t, ok := nw.traverse(fwd, t)
	if !ok {
		return t, 0, false
	}
	if resp.ICMPDown != nil && resp.ICMPDown(t) {
		return t, 0, false
	}
	if resp.ICMPRateLimit != nil && !resp.ICMPRateLimit.Allow(t) {
		return t, 0, false
	}
	if resp.ICMPDelay != nil {
		t = t.Add(resp.ICMPDelay(t))
	}
	var id uint16
	if ipid {
		id = resp.nextIPID()
	}
	t, ok = nw.traverse(rev, t)
	return t, id, ok
}

// traverse moves a packet through pipes in order from t, drawing a
// nonce from the network-wide packet counter for each.
func (nw *Network) traverse(pipes []*Pipe, t simclock.Time) (simclock.Time, bool) {
	for _, p := range pipes {
		nw.pktCounter++
		exit, ok := p.Traverse(t, nw.pktCounter)
		if !ok {
			return t, false
		}
		t = exit
	}
	return t, true
}
