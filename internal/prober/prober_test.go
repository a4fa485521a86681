package prober

import (
	"bytes"
	"io"
	"testing"
	"time"

	"afrixp/internal/asrel"
	"afrixp/internal/bgpsim"
	"afrixp/internal/netaddr"
	"afrixp/internal/netsim"
	"afrixp/internal/packet"
	"afrixp/internal/queue"
	"afrixp/internal/simclock"
	"afrixp/internal/trafficmodel"
	"afrixp/internal/warts"
)

func ma(s string) netaddr.Addr   { return netaddr.MustParseAddr(s) }
func mp(s string) netaddr.Prefix { return netaddr.MustParsePrefix(s) }

// testWorld: VP(host) — R1(AS10) == IXP LAN == R2(AS20) — R3(AS30)
type testWorld struct {
	nw             *netsim.Network
	vp, r1, r2, r3 *netsim.Node
	near, far      netaddr.Addr
	memberPort     *netsim.Pipe
}

func build(t testing.TB) *testWorld {
	g := asrel.NewGraph()
	g.SetPeer(10, 20)
	g.SetProvider(30, 20)
	bgp := bgpsim.New(g)
	bgp.Announce(10, mp("10.10.0.0/16"))
	bgp.Announce(20, mp("10.20.0.0/16"))
	bgp.Announce(30, mp("10.30.0.0/16"))
	nw := netsim.New(bgp, 7)
	w := &testWorld{nw: nw}
	w.vp = nw.AddNode("vp", 10)
	w.r1 = nw.AddNode("r1", 10)
	w.r2 = nw.AddNode("r2", 20)
	w.r3 = nw.AddNode("r3", 30)
	nw.ConnectLink(w.vp, w.r1, netsim.LinkSpec{Subnet: mp("10.10.0.0/30")})
	nw.SetGateway(w.vp, nw.Iface(w.vp.Ifaces[0]))
	lan := nw.AddLAN(mp("196.49.7.0/24"))
	nw.AttachToLAN(w.r1, lan, netsim.AttachSpec{Addr: ma("196.49.7.1")})
	w.memberPort = &netsim.Pipe{Prop: 100 * time.Microsecond}
	nw.AttachToLAN(w.r2, lan, netsim.AttachSpec{Addr: ma("196.49.7.10"), FromFabric: w.memberPort})
	nw.ConnectLink(w.r2, w.r3, netsim.LinkSpec{Subnet: mp("10.30.255.0/30")})
	w.near = ma("10.10.0.2")
	w.far = ma("196.49.7.10")
	return w
}

func TestPingEchoAndExpiry(t *testing.T) {
	w := build(t)
	p := New(w.nw, w.vp, Config{Name: "test"})
	res, err := p.Ping(w.far, 64, 0)
	if err != nil || res.Lost {
		t.Fatalf("ping: %+v err %v", res, err)
	}
	if res.Responder != w.far || res.RespType != packet.ICMPEchoReply {
		t.Fatalf("responder %v type %d", res.Responder, res.RespType)
	}
	if res.RTT <= 0 || res.RTT > 10*time.Millisecond {
		t.Fatalf("RTT = %v", res.RTT)
	}
	res, err = p.Ping(w.far, 1, simclock.Time(time.Second))
	if err != nil || res.Lost {
		t.Fatalf("ttl1: %+v err %v", res, err)
	}
	if res.Responder != w.near || res.RespType != packet.ICMPTimeExceeded {
		t.Fatalf("ttl1 responder %v type %d", res.Responder, res.RespType)
	}
}

func TestPingPacing(t *testing.T) {
	w := build(t)
	p := New(w.nw, w.vp, Config{RatePPS: 10}) // 100 ms between probes
	var last simclock.Time
	for i := 0; i < 30; i++ {
		res, err := p.Ping(w.far, 64, 0) // all requested at t=0
		if err != nil {
			t.Fatal(err)
		}
		if i > 10 && res.SentAt.Sub(last) < 90*time.Millisecond {
			t.Fatalf("probe %d sent %v after previous — pacing violated",
				i, res.SentAt.Sub(last))
		}
		last = res.SentAt
	}
}

func TestTraceroute(t *testing.T) {
	w := build(t)
	p := New(w.nw, w.vp, Config{})
	hops, err := p.Traceroute(w.far, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 2 {
		t.Fatalf("hops = %d: %+v", len(hops), hops)
	}
	if hops[0].Responder != w.near || hops[0].Reached {
		t.Fatalf("hop1: %+v", hops[0])
	}
	if hops[1].Responder != w.far || !hops[1].Reached {
		t.Fatalf("hop2: %+v", hops[1])
	}
}

func TestTracerouteToStubCrossesIXP(t *testing.T) {
	w := build(t)
	p := New(w.nw, w.vp, Config{})
	hops, err := p.Traceroute(ma("10.30.255.2"), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 3 || hops[1].Responder != w.far {
		t.Fatalf("hops: %+v", hops)
	}
}

func TestRRPing(t *testing.T) {
	w := build(t)
	p := New(w.nw, w.vp, Config{})
	res, err := p.RRPing(w.far, 0)
	if err != nil || res.Lost {
		t.Fatalf("%+v err %v", res, err)
	}
	// fwd: r1 egress; dst stamp; rev: r1 egress toward the VP. The
	// destination originates the reply, so it stamps exactly once.
	if len(res.Recorded) != 3 {
		t.Fatalf("recorded %v", res.Recorded)
	}
	if res.Recorded[1] != w.far || res.Recorded[2] != w.near {
		t.Fatalf("stamps: %v", res.Recorded)
	}
	if res.Full {
		t.Fatal("4 stamps must not fill 9 slots")
	}
}

func TestTSLPRound(t *testing.T) {
	w := build(t)
	w.memberPort.Queue = queue.NewFluid(queue.Config{
		CapacityBps: 100e6, BufferDrain: 28 * time.Millisecond,
		Load: trafficmodel.Constant(150e6),
	})
	p := New(w.nw, w.vp, Config{})
	ts, err := p.NewTSLP(LinkTarget{Near: w.near, Far: w.far})
	if err != nil {
		t.Fatal(err)
	}
	s := ts.Round(simclock.Time(20 * time.Minute))
	if s.NearLost {
		t.Fatal("near probe lost")
	}
	if s.NearRTT > 5*time.Millisecond {
		t.Fatalf("near RTT = %v", s.NearRTT)
	}
	if !s.FarLost {
		// With 1/3 overload loss the far probe may die; when it
		// survives it must carry the queue delay.
		if s.FarRTT < 28*time.Millisecond {
			t.Fatalf("far RTT = %v, want ≥28ms", s.FarRTT)
		}
	}
	if got := len(ts.farPath.HopAddrs); got != 2 {
		t.Fatalf("far hop count = %d", got)
	}
}

func TestTSLPSurvivesTopologyChurn(t *testing.T) {
	w := build(t)
	p := New(w.nw, w.vp, Config{})
	ts, err := p.NewTSLP(LinkTarget{Near: w.near, Far: w.far})
	if err != nil {
		t.Fatal(err)
	}
	w.nw.AddNode("extra", 99) // bump topology version
	s := ts.Round(simclock.Time(time.Hour))
	if s.NearLost || s.FarLost {
		t.Fatalf("round after churn: %+v", s)
	}
}

func TestTSLPDownedLinkReportsLoss(t *testing.T) {
	w := build(t)
	cutoff := simclock.Date(2016, time.August, 6)
	w.memberPort.Up = netsim.DownAfter(cutoff)
	p := New(w.nw, w.vp, Config{})
	ts, err := p.NewTSLP(LinkTarget{Near: w.near, Far: w.far})
	if err != nil {
		t.Fatal(err)
	}
	s := ts.Round(cutoff.Add(time.Hour))
	if !s.FarLost {
		t.Fatal("far probe must be lost after shutdown")
	}
	if s.NearLost {
		t.Fatal("near probe does not cross the member port")
	}
}

func TestTSLPBadNearEnd(t *testing.T) {
	w := build(t)
	p := New(w.nw, w.vp, Config{})
	if _, err := p.NewTSLP(LinkTarget{Near: ma("9.9.9.9"), Far: w.far}); err == nil {
		t.Fatal("off-path near end must fail")
	}
}

func TestLossRound(t *testing.T) {
	w := build(t)
	w.memberPort.BaseLoss = 1.0
	p := New(w.nw, w.vp, Config{})
	ts, err := p.NewTSLP(LinkTarget{Near: w.near, Far: w.far})
	if err != nil {
		t.Fatal(err)
	}
	nearLost, farLost := ts.LossRound(0)
	if nearLost {
		t.Fatal("near probe must survive")
	}
	if !farLost {
		t.Fatal("far probe must be lost on a fully lossy port")
	}
}

func TestWartsLogging(t *testing.T) {
	w := build(t)
	var buf bytes.Buffer
	ww, err := warts.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p := New(w.nw, w.vp, Config{Name: "mon1", Warts: ww})
	if _, err := p.Ping(w.far, 64, 0); err != nil {
		t.Fatal(err)
	}
	ts, err := p.NewTSLP(LinkTarget{Near: w.near, Far: w.far})
	if err != nil {
		t.Fatal(err)
	}
	ts.Round(simclock.Time(5 * time.Minute))
	ts.LossRound(simclock.Time(6 * time.Minute))
	if _, err := p.RRPing(w.far, simclock.Time(7*time.Minute)); err != nil {
		t.Fatal(err)
	}
	ww.Flush()

	r, err := warts.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint8]int{}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.VP != "mon1" {
			t.Fatalf("VP = %q", rec.VP)
		}
		counts[rec.Type]++
	}
	if counts[warts.TypePing] != 1 || counts[warts.TypeTSLP] != 2 ||
		counts[warts.TypeLossProbe] != 2 || counts[warts.TypeRRPing] != 1 {
		t.Fatalf("record counts: %v", counts)
	}
}

func TestPingUnreachableIsLost(t *testing.T) {
	w := build(t)
	p := New(w.nw, w.vp, Config{})
	res, err := p.Ping(ma("99.9.9.9"), 64, 0)
	if err != nil || !res.Lost {
		t.Fatalf("unreachable ping: %+v err %v", res, err)
	}
}

func BenchmarkTSLPRoundYear(b *testing.B) {
	// Cost of one link's full-year TSLP campaign (105k rounds).
	w := build(b)
	w.memberPort.Queue = queue.NewFluid(queue.Config{
		CapacityBps: 100e6, BufferDrain: 28 * time.Millisecond,
		Load: trafficmodel.Diurnal{BaseBps: 30e6, PeakBps: 140e6, PeakHour: 14, Width: 3}.Load(),
	})
	p := New(w.nw, w.vp, Config{})
	ts, err := p.NewTSLP(LinkTarget{Near: w.near, Far: w.far})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		end := simclock.LatencyEnd
		for t := simclock.Time(0); t < end; t = t.Add(5 * time.Minute) {
			ts.Round(t)
		}
	}
}
