// Package prober is the measurement agent — the role scamper plays on
// an Ark monitor. A Prober is bound to one vantage-point host inside
// the simulated internetwork and offers the operations the paper's
// campaign used: ICMP ping, TTL-limited traceroute, Record-Route
// probes, the TSLP near/far link sampler, and 1 pps loss probing.
// Probing is paced by a token bucket (the paper kept to 100 packets
// per second out of care for the host networks), and every result can
// be streamed to a warts writer.
package prober

import (
	"fmt"
	"time"

	"afrixp/internal/netaddr"
	"afrixp/internal/netsim"
	"afrixp/internal/packet"
	"afrixp/internal/queue"
	"afrixp/internal/simclock"
	"afrixp/internal/warts"
)

// Config tunes a Prober.
type Config struct {
	// Name identifies the monitor in warts records ("gixa-gh").
	Name string
	// RatePPS is the probing budget. Default 100, the paper's rate.
	RatePPS float64
	// Warts, when non-nil, receives every probe result.
	Warts *warts.Writer
}

// timeout is how long a prober waits before declaring a probe lost.
// It only affects the virtual time consumed.
const timeout = 2 * time.Second

// Prober is a scamper-like measurement process on one VP.
//
// A Prober is single-goroutine state (pacing bucket, sequence
// numbers, probe context); campaigns that probe several VPs
// concurrently give each VP its own Prober and fan out per VP.
type Prober struct {
	nw     *netsim.Network
	vp     *netsim.Node
	cfg    Config
	bucket *queue.TokenBucket
	ctx    *netsim.ProbeCtx
	icmpID uint16
	seq    uint16
	// payload is the echo-payload scratch tsPayload writes into;
	// building the wire copies it into the wire image, so it is free
	// to be rewritten by the next probe.
	payload [8]byte
	// wire and pkt are the probe-building scratch: one retained wire
	// buffer plus the packet builders' ICMP staging buffer, reused
	// across probes so steady-state probing does not allocate.
	wire []byte
	pkt  packet.Scratch
	// wirePing, set only by tests, replaces Ping with a copy of the
	// wire-level Ping: the oracle Ping is checked against.
	wirePing func(dst netaddr.Addr, ttl uint8, t simclock.Time) (PingResult, error)
}

// New binds a prober to a vantage-point node.
func New(nw *netsim.Network, vp *netsim.Node, cfg Config) *Prober {
	if cfg.RatePPS <= 0 {
		cfg.RatePPS = 100
	}
	if cfg.Name == "" {
		cfg.Name = vp.Name
	}
	return &Prober{
		nw:     nw,
		vp:     vp,
		cfg:    cfg,
		bucket: queue.NewTokenBucket(cfg.RatePPS, cfg.RatePPS, 0),
		ctx:    nw.NewProbeCtx(uint64(vp.ID)),
		icmpID: uint16(vp.ID)*257 + 11,
	}
}

// VP returns the prober's vantage-point node.
func (p *Prober) VP() *netsim.Node { return p.vp }

// SetBatchStep points this prober's frozen samples at batch step i of
// the most recent Network.AdvanceQueuesBatch; a negative i restores
// live-frontier observation. The batched campaign scheduler calls it as
// a worker walks the steps of its batch. Pacing and the nonce stream
// are untouched — only the queue state a sample reads changes.
func (p *Prober) SetBatchStep(i int) { p.ctx.SetStep(i) }

// ProbeStats exposes this prober's hot-path sampling accounting (see
// netsim.ProbeStats). Same single-goroutine contract as the probe
// context: the campaign engine reads it only at batch barriers.
func (p *Prober) ProbeStats() *netsim.ProbeStats { return p.ctx.Stats() }

// Name returns the monitor name.
func (p *Prober) Name() string { return p.cfg.Name }

// CheckpointState is a Prober's mutable measurement state at a batch
// barrier: the probe sequence counter, the pacing bucket, the position
// in the private nonce stream, and the hot-path sampling counters.
// Everything else (cached trajectories, scratch buffers) is derived
// and rebuilt on resume.
type CheckpointState struct {
	Seq          uint16
	BucketTokens float64
	BucketLast   simclock.Time
	NonceCount   uint64
	Stats        netsim.ProbeStats
}

// Checkpoint captures the prober's state. Single-goroutine contract:
// call only at batch barriers, like ProbeStats.
func (p *Prober) Checkpoint() CheckpointState {
	tokens, last := p.bucket.State()
	return CheckpointState{
		Seq:          p.seq,
		BucketTokens: tokens,
		BucketLast:   last,
		NonceCount:   p.ctx.NonceCount(),
		Stats:        *p.ctx.Stats(),
	}
}

// RestoreCheckpoint overwrites the prober's state from a snapshot
// taken at the same barrier of an equivalent run.
func (p *Prober) RestoreCheckpoint(st CheckpointState) {
	p.seq = st.Seq
	p.bucket.RestoreState(st.BucketTokens, st.BucketLast)
	p.ctx.RestoreNonceCount(st.NonceCount)
	*p.ctx.Stats() = st.Stats
}

// PingResult is the outcome of one echo probe.
type PingResult struct {
	// SentAt is the (paced) transmission time.
	SentAt simclock.Time
	// Responder is the address that answered (zero when lost).
	Responder netaddr.Addr
	// RespType is the ICMP type of the response.
	RespType uint8
	RTT      simclock.Duration
	Lost     bool
}

// Ping sends one echo probe with the given TTL at (no earlier than) t.
// The network replays it over its memoized trajectory (Network.Echo);
// probes the replay cannot express go out as wires through Inject.
// Both make the same state changes and give the same result.
func (p *Prober) Ping(dst netaddr.Addr, ttl uint8, t simclock.Time) (PingResult, error) {
	if p.wirePing != nil {
		return p.wirePing(dst, ttl, t)
	}
	sendAt := p.bucket.Take(t)
	p.seq++
	echo, ok := p.nw.Echo(p.vp, dst, ttl, sendAt)
	if !ok {
		var err error
		if echo, err = p.injectEcho(dst, ttl, sendAt); err != nil {
			return PingResult{}, err
		}
	}
	res := PingResult{SentAt: sendAt}
	if echo.Outcome != netsim.Delivered {
		res.Lost = true
	} else {
		res.Responder = echo.From
		res.RespType = echo.Type
		res.RTT = echo.At.Sub(sendAt)
		if res.RTT > timeout {
			// Response slower than the timeout counts as loss, as it
			// would for scamper.
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

// injectEcho sends Ping's probe as a wire-format datagram through
// Network.Inject and decodes the response.
func (p *Prober) injectEcho(dst netaddr.Addr, ttl uint8, sendAt simclock.Time) (netsim.EchoResult, error) {
	wire, err := p.pkt.Echo(p.wire[:0], packet.IPv4{
		TTL: ttl, Src: p.nw.SrcAddr(p.vp), Dst: dst, ID: p.seq,
	}, p.icmpID, p.seq, p.tsPayload(sendAt))
	if err != nil {
		return netsim.EchoResult{}, fmt.Errorf("prober: building echo: %w", err)
	}
	p.wire = wire
	resp, outcome, err := p.nw.Inject(p.vp, wire, sendAt)
	if err != nil {
		return netsim.EchoResult{}, fmt.Errorf("prober: inject: %w", err)
	}
	if outcome != netsim.Delivered {
		return netsim.EchoResult{Outcome: outcome}, nil
	}
	rip, pl, err := packet.DecodeIPv4(resp.Wire)
	if err != nil {
		return netsim.EchoResult{}, err
	}
	icmp, err := packet.DecodeICMP(pl)
	if err != nil {
		return netsim.EchoResult{}, err
	}
	return netsim.EchoResult{Outcome: netsim.Delivered, At: resp.At, From: resp.From,
		Type: icmp.Type, IPID: rip.ID}, nil
}

// Hop is one traceroute step.
type Hop struct {
	TTL       uint8
	Responder netaddr.Addr
	RTT       simclock.Duration
	Lost      bool
	// Reached marks the hop that answered with an echo reply.
	Reached bool
}

// tracerouteGapLimit stops a trace after this many consecutive
// unresponsive hops, matching scamper's gap-limit behavior — probing
// on into a black hole wastes the rate budget.
const tracerouteGapLimit = 4

// Traceroute walks TTLs toward dst until the destination answers,
// maxTTL is exhausted, or the gap limit of consecutive silent hops is
// reached. Each hop consumes pacing budget; lost hops are retried
// once, as scamper does by default.
func (p *Prober) Traceroute(dst netaddr.Addr, maxTTL uint8, t simclock.Time) ([]Hop, error) {
	return p.AppendTraceroute(make([]Hop, 0, maxTTL), dst, maxTTL, t)
}

// AppendTraceroute is Traceroute appending the hops to hops, so a
// caller tracing many targets can reuse one buffer.
func (p *Prober) AppendTraceroute(hops []Hop, dst netaddr.Addr, maxTTL uint8, t simclock.Time) ([]Hop, error) {
	gap := 0
	at := t
	for ttl := uint8(1); ttl <= maxTTL; ttl++ {
		res, err := p.Ping(dst, ttl, at)
		if err != nil {
			return hops, err
		}
		if res.Lost {
			// One retry.
			res, err = p.Ping(dst, ttl, res.SentAt.Add(50*time.Millisecond))
			if err != nil {
				return hops, err
			}
		}
		at = res.SentAt.Add(10 * time.Millisecond)
		hop := Hop{TTL: ttl, Responder: res.Responder, RTT: res.RTT, Lost: res.Lost,
			Reached: !res.Lost && res.RespType == packet.ICMPEchoReply}
		hops = append(hops, hop)
		p.log(&warts.Record{
			Type: warts.TypeTraceHop, VP: p.cfg.Name, At: res.SentAt, Target: dst,
			Responder: res.Responder, TTL: ttl, RespType: res.RespType,
			RTT: res.RTT, Lost: res.Lost,
		})
		if hop.Reached {
			break
		}
		if hop.Lost {
			gap++
			if gap >= tracerouteGapLimit {
				break
			}
		} else {
			gap = 0
		}
	}
	return hops, nil
}

// RRResult is the outcome of a Record-Route probe.
type RRResult struct {
	Recorded []netaddr.Addr
	Full     bool
	RTT      simclock.Duration
	Lost     bool
}

// RRPing sends an echo probe carrying the Record Route option.
func (p *Prober) RRPing(dst netaddr.Addr, t simclock.Time) (RRResult, error) {
	sendAt := p.bucket.Take(t)
	p.seq++
	ip := packet.IPv4{TTL: 64, Src: p.nw.SrcAddr(p.vp), Dst: dst, ID: p.seq,
		RecordRoute: &packet.RecordRoute{Slots: packet.MaxRecordRouteSlots}}
	wire, err := p.pkt.Echo(p.wire[:0], ip, p.icmpID, p.seq, p.tsPayload(sendAt))
	if err != nil {
		return RRResult{}, err
	}
	p.wire = wire
	resp, outcome, err := p.nw.Inject(p.vp, wire, sendAt)
	if err != nil {
		return RRResult{}, err
	}
	var res RRResult
	if outcome != netsim.Delivered {
		res.Lost = true
	} else {
		rip, _, derr := packet.DecodeIPv4(resp.Wire)
		if derr != nil {
			return RRResult{}, derr
		}
		if rip.RecordRoute != nil {
			res.Recorded = rip.RecordRoute.Recorded
			res.Full = rip.RecordRoute.Full()
		}
		res.RTT = resp.At.Sub(sendAt)
	}
	p.log(&warts.Record{
		Type: warts.TypeRRPing, VP: p.cfg.Name, At: sendAt, Target: dst,
		TTL: 64, RTT: res.RTT, Lost: res.Lost, RR: res.Recorded, RRFull: res.Full,
	})
	return res, nil
}

// log writes a record when a warts writer is configured. Write errors
// panic: losing campaign data silently would invalidate the study.
func (p *Prober) log(rec *warts.Record) {
	if p.cfg.Warts == nil {
		return
	}
	if err := p.cfg.Warts.Write(rec); err != nil {
		panic(fmt.Sprintf("prober: warts write failed: %v", err))
	}
}

// tsPayload encodes the transmit timestamp into the echo payload, as
// scamper does to match replies without keeping state. The bytes live
// in the prober's scratch and are only valid until the next probe.
func (p *Prober) tsPayload(t simclock.Time) []byte {
	v := uint64(t)
	for i := 0; i < 8; i++ {
		p.payload[i] = byte(v >> (56 - 8*i))
	}
	return p.payload[:]
}
