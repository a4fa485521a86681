package prober

import (
	"fmt"

	"afrixp/internal/netaddr"
	"afrixp/internal/netsim"
	"afrixp/internal/packet"
	"afrixp/internal/simclock"
	"afrixp/internal/warts"
)

// UseWireOracle makes p send every Ping, and so every traceroute hop,
// through wirePing: a copy of Ping as it was before probes replayed
// memoized trajectories. It builds each probe as a wire, walks it with
// Network.Inject and decodes the response. Traceroute reaches the
// network only through Ping.
func UseWireOracle(p *Prober) { p.wirePing = p.oraclePing }

func (p *Prober) oraclePing(dst netaddr.Addr, ttl uint8, t simclock.Time) (PingResult, error) {
	sendAt := p.bucket.NextAllowed(t)
	p.bucket.Allow(sendAt)
	p.seq++
	wire, err := p.pkt.Echo(p.wire[:0], packet.IPv4{
		TTL: ttl, Src: p.nw.SrcAddr(p.vp), Dst: dst, ID: p.seq,
	}, p.icmpID, p.seq, p.tsPayload(sendAt))
	if err != nil {
		return PingResult{}, fmt.Errorf("prober: building echo: %w", err)
	}
	p.wire = wire
	resp, outcome, err := p.nw.Inject(p.vp, wire, sendAt)
	if err != nil {
		return PingResult{}, fmt.Errorf("prober: inject: %w", err)
	}
	res := PingResult{SentAt: sendAt}
	if outcome != netsim.Delivered {
		res.Lost = true
	} else {
		_, pl, derr := packet.DecodeIPv4(resp.Wire)
		if derr != nil {
			return PingResult{}, derr
		}
		icmp, derr := packet.DecodeICMP(pl)
		if derr != nil {
			return PingResult{}, derr
		}
		res.Responder = resp.From
		res.RespType = icmp.Type
		res.RTT = resp.At.Sub(sendAt)
		if res.RTT > timeout {
			res = PingResult{SentAt: sendAt, Lost: true}
		}
	}
	p.log(&warts.Record{
		Type: warts.TypePing, VP: p.cfg.Name, At: sendAt, Target: dst,
		Responder: res.Responder, TTL: ttl, RespType: res.RespType,
		RTT: res.RTT, Lost: res.Lost,
	})
	return res, nil
}
