package netsim

import (
	"fmt"

	"afrixp/internal/netaddr"
)

// WalkTracePath resolves TracePath's path by walking resolveStep hop
// by hop, without the trajectory memo: the reference the external
// oracle test compares TracePath with. It checks the TTL and the
// responder by node identity and bounds each leg by maxWalkHops, which
// agree with TracePath's positions and trajectoryMaxHops on every path
// that neither loops back through src nor runs past 32 hops.
func (nw *Network) WalkTracePath(src *Node, dst netaddr.Addr, ttl int) (*ProbePath, error) {
	pp := &ProbePath{nw: nw, version: nw.version}
	cur := src
	var arrival *Iface
	remaining := ttl

	for hops := 0; hops < maxWalkHops; hops++ {
		if cur != src && nw.ownsAddr(cur, dst) {
			pp.Responder = cur
			pp.RespAddr = dst
			break
		}
		if cur != src {
			if remaining <= 1 {
				pp.Responder = cur
				pp.RespAddr = arrival.Addr
				pp.Expired = true
				break
			}
			remaining--
		}
		h, ok := nw.resolveStep(cur, dst)
		if !ok {
			return nil, fmt.Errorf("netsim: no route from %s toward %v", cur.Name, dst)
		}
		pp.FwdPipes = append(pp.FwdPipes, h.pipeSeq()...)
		pp.HopAddrs = append(pp.HopAddrs, h.arrival.Addr)
		cur = nw.nodes[h.arrival.Node]
		arrival = h.arrival
	}
	if pp.Responder == nil {
		return nil, fmt.Errorf("netsim: probe toward %v never terminated", dst)
	}

	back := nw.SrcAddr(src)
	cur = pp.Responder
	for hops := 0; hops < maxWalkHops; hops++ {
		if nw.ownsAddr(cur, back) {
			pp.compile()
			return pp, nil
		}
		h, ok := nw.resolveStep(cur, back)
		if !ok {
			return nil, fmt.Errorf("netsim: no return route from %s toward %v", cur.Name, back)
		}
		pp.RevPipes = append(pp.RevPipes, h.pipeSeq()...)
		cur = nw.nodes[h.arrival.Node]
	}
	return nil, fmt.Errorf("netsim: return path toward %v never terminated", back)
}
