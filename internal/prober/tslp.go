package prober

import (
	"fmt"
	"time"

	"afrixp/internal/netaddr"
	"afrixp/internal/netsim"
	"afrixp/internal/packet"
	"afrixp/internal/simclock"
	"afrixp/internal/warts"
)

// LinkTarget identifies a discovered interdomain IP link by its two
// ends as seen from the VP (the bdrmap output the campaign probes).
type LinkTarget struct {
	Near, Far netaddr.Addr
}

// String renders "near→far".
func (lt LinkTarget) String() string {
	return fmt.Sprintf("%v→%v", lt.Near, lt.Far)
}

// TSLP is a time-sequence latency probe session for one link: paired
// TTL-limited probes expiring at the near and far ends, sent every
// round (the paper probed every 5 minutes for 13 months).
//
// Probe trajectories are resolved once and sampled through the
// simulator's fast path; they re-resolve automatically if the
// topology changes underneath.
type TSLP struct {
	p      *Prober
	Target LinkTarget

	nearTTL  int
	nearPath *netsim.ProbePath
	farPath  *netsim.ProbePath
}

// NewTSLP resolves probe trajectories toward both ends of the link.
func (p *Prober) NewTSLP(target LinkTarget) (*TSLP, error) {
	ts := &TSLP{p: p, Target: target}
	if err := ts.resolve(); err != nil {
		return nil, err
	}
	return ts, nil
}

// resolve recomputes the cached trajectories.
func (ts *TSLP) resolve() error {
	full, err := ts.p.nw.TracePath(ts.p.vp, ts.Target.Far, 64)
	if err != nil {
		return fmt.Errorf("prober: tracing %v: %w", ts.Target, err)
	}
	nearTTL := -1
	for i, a := range full.HopAddrs {
		if a == ts.Target.Near {
			nearTTL = i + 1
			break
		}
	}
	if nearTTL < 0 {
		return fmt.Errorf("prober: near end %v not on path to %v (route changed?)",
			ts.Target.Near, ts.Target.Far)
	}
	nearPath, err := ts.p.nw.TracePath(ts.p.vp, ts.Target.Far, nearTTL)
	if err != nil {
		return err
	}
	if nearPath.RespAddr != ts.Target.Near {
		return fmt.Errorf("prober: TTL %d expires at %v, want near end %v",
			nearTTL, nearPath.RespAddr, ts.Target.Near)
	}
	ts.nearTTL = nearTTL
	ts.nearPath = nearPath
	ts.farPath = full
	return nil
}

// farDelay is how long after the near probe a round sends its far
// probe, before pacing.
const farDelay = 10 * time.Millisecond

// Sample is one TSLP round result.
type Sample struct {
	At                simclock.Time
	NearRTT, FarRTT   simclock.Duration
	NearLost, FarLost bool
}

// Round probes both ends of the link at time t. Stale trajectories
// (after topology churn) are re-resolved; if the link has left the
// routed path entirely, both probes report loss — exactly what the
// paper observed when GIXA–GHANATEL disappeared.
func (ts *TSLP) Round(t simclock.Time) Sample {
	if !ts.nearPath.Valid() || !ts.farPath.Valid() {
		if err := ts.resolve(); err != nil {
			ts.logRound(t, Sample{At: t, NearLost: true, FarLost: true})
			return Sample{At: t, NearLost: true, FarLost: true}
		}
	}
	s := Sample{At: t}
	nearAt := ts.p.bucket.Take(t)
	if rtt, ok := ts.nearPath.Sample(nearAt); ok && rtt <= timeout {
		s.NearRTT = rtt
	} else {
		s.NearLost = true
	}
	farAt := ts.p.bucket.Take(nearAt.Add(farDelay))
	if rtt, ok := ts.farPath.Sample(farAt); ok && rtt <= timeout {
		s.FarRTT = rtt
	} else {
		s.FarLost = true
	}
	ts.logRound(t, s)
	return s
}

func (ts *TSLP) logRound(t simclock.Time, s Sample) {
	if ts.p.cfg.Warts == nil {
		return
	}
	// Both TSLP probes are addressed to the far end (the near probe
	// is simply TTL-limited to expire one hop earlier), so Target
	// doubles as the link identifier in the archive; Responder tells
	// the two ends apart.
	ts.p.log(&warts.Record{
		Type: warts.TypeTSLP, VP: ts.p.cfg.Name, At: t, Target: ts.Target.Far,
		Responder: ts.Target.Near, TTL: uint8(ts.nearTTL),
		RespType: packet.ICMPTimeExceeded, RTT: s.NearRTT, Lost: s.NearLost,
	})
	ts.p.log(&warts.Record{
		Type: warts.TypeTSLP, VP: ts.p.cfg.Name, At: t, Target: ts.Target.Far,
		Responder: ts.Target.Far, TTL: 64,
		RespType: packet.ICMPEchoReply, RTT: s.FarRTT, Lost: s.FarLost,
	})
}

// EnsureResolved re-resolves the cached trajectories if topology churn
// invalidated them. The parallel campaign engine calls it at the step
// barrier (single-threaded) whenever the network's topology version
// changed, so that RoundFrozen never has to mutate path state from a
// worker goroutine.
func (ts *TSLP) EnsureResolved() error {
	if ts.nearPath.Valid() && ts.farPath.Valid() {
		return nil
	}
	return ts.resolve()
}

// RoundFrozen is Round against the frozen queue frontier: it paces and
// samples exactly like Round but draws loss from this prober's private
// nonce stream and never mutates network state. Stale trajectories are
// NOT re-resolved here — the campaign engine refreshes them at the step
// barrier via EnsureResolved; a link that truly left the routed path
// keeps reporting loss, exactly as Round would. It returns the round's
// Sample fields (At is t) as values, which stay in registers where a
// five-field struct would be copied through the stack.
func (ts *TSLP) RoundFrozen(t simclock.Time) (nearRTT, farRTT simclock.Duration, nearLost, farLost bool) {
	nearLost, farLost = true, true
	if ts.nearPath.Valid() && ts.farPath.Valid() {
		p := ts.p
		nearAt := p.bucket.Take(t)
		if rtt, ok := ts.nearPath.SampleCtx(p.ctx, nearAt); ok && rtt <= timeout {
			nearRTT, nearLost = rtt, false
		}
		farAt := p.bucket.Take(nearAt.Add(farDelay))
		if rtt, ok := ts.farPath.SampleCtx(p.ctx, farAt); ok && rtt <= timeout {
			farRTT, farLost = rtt, false
		}
	}
	if ts.p.cfg.Warts != nil {
		ts.logRound(t, Sample{At: t, NearRTT: nearRTT, FarRTT: farRTT, NearLost: nearLost, FarLost: farLost})
	}
	return nearRTT, farRTT, nearLost, farLost
}

// LossRoundFrozen is LossRound against the frozen queue frontier, with
// the same no-resolve contract as RoundFrozen.
func (ts *TSLP) LossRoundFrozen(t simclock.Time) (nearLost, farLost bool) {
	if !ts.nearPath.Valid() || !ts.farPath.Valid() {
		return true, true
	}
	_, nearOK := ts.nearPath.SampleCtx(ts.p.ctx, t)
	_, farOK := ts.farPath.SampleCtx(ts.p.ctx, t.Add(500*time.Millisecond))
	if ts.p.cfg.Warts != nil {
		ts.p.log(&warts.Record{Type: warts.TypeLossProbe, VP: ts.p.cfg.Name, At: t,
			Target: ts.Target.Near, Lost: !nearOK})
		ts.p.log(&warts.Record{Type: warts.TypeLossProbe, VP: ts.p.cfg.Name, At: t,
			Target: ts.Target.Far, Lost: !farOK})
	}
	return !nearOK, !farOK
}

// LossRound sends one 1 pps loss probe to each end at time t,
// reporting only survival — the §4 loss-rate campaign.
func (ts *TSLP) LossRound(t simclock.Time) (nearLost, farLost bool) {
	if !ts.nearPath.Valid() || !ts.farPath.Valid() {
		if err := ts.resolve(); err != nil {
			return true, true
		}
	}
	_, nearOK := ts.nearPath.Sample(t)
	_, farOK := ts.farPath.Sample(t.Add(500 * time.Millisecond))
	if ts.p.cfg.Warts != nil {
		ts.p.log(&warts.Record{Type: warts.TypeLossProbe, VP: ts.p.cfg.Name, At: t,
			Target: ts.Target.Near, Lost: !nearOK})
		ts.p.log(&warts.Record{Type: warts.TypeLossProbe, VP: ts.p.cfg.Name, At: t,
			Target: ts.Target.Far, Lost: !farOK})
	}
	return !nearOK, !farOK
}
