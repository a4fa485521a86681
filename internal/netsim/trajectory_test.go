package netsim

import (
	"testing"
	"time"

	"afrixp/internal/netaddr"
	"afrixp/internal/packet"
	"afrixp/internal/queue"
	"afrixp/internal/simclock"
	"afrixp/internal/trafficmodel"
)

// echoTwin is buildWorld with a congested member port, a policed and
// slow-ICMP far router, so replays draw losses, bucket tokens and
// control-plane delay.
func echoTwin(t *testing.T) *world {
	w := buildWorld(t)
	w.r200FromFabric.Queue = queue.NewFluid(queue.Config{
		CapacityBps: 100e6, BufferDrain: 25 * time.Millisecond,
		Load: trafficmodel.Diurnal{BaseBps: 60e6, PeakBps: 190e6, PeakHour: 14, Width: 3}.Load(),
	})
	w.r200.ICMPRateLimit = queue.NewTokenBucket(20, 3, 0)
	w.r200.ICMPDelay = func(simclock.Time) simclock.Duration { return 300 * time.Microsecond }
	return w
}

// injectEcho is the wire-level reference for Echo.
func injectEcho(t *testing.T, w *world, dst netaddr.Addr, ttl uint8, at simclock.Time) EchoResult {
	resp, out, err := w.nw.Inject(w.vp, echoTo(t, w, dst, ttl), at)
	if err != nil {
		t.Fatal(err)
	}
	if out != Delivered {
		return EchoResult{Outcome: out}
	}
	ip, payload, err := packet.DecodeIPv4(resp.Wire)
	if err != nil {
		t.Fatal(err)
	}
	icmp, err := packet.DecodeICMP(payload)
	if err != nil {
		t.Fatal(err)
	}
	return EchoResult{Outcome: Delivered, At: resp.At, From: resp.From, Type: icmp.Type, IPID: ip.ID}
}

func sameWalkState(t *testing.T, a, b *world, label string) {
	t.Helper()
	if a.nw.PacketNonces() != b.nw.PacketNonces() || a.nw.InjectStats() != b.nw.InjectStats() {
		t.Fatalf("%s: nonces %d vs %d, walks %+v vs %+v", label,
			a.nw.PacketNonces(), b.nw.PacketNonces(), a.nw.InjectStats(), b.nw.InjectStats())
	}
	for i, n := range a.nw.Nodes() {
		if n.IPID() != b.nw.Nodes()[i].IPID() {
			t.Fatalf("%s: %s IP ID %d vs %d", label, n.Name, n.IPID(), b.nw.Nodes()[i].IPID())
		}
	}
}

// TestEchoMatchesInject sends the same probe sequence through Echo on
// one world and Inject on its twin: every result and all walk state
// must agree, including across a re-route that leaves a target
// unroutable, which Echo must hand back untouched.
func TestEchoMatchesInject(t *testing.T) {
	fast, ref := echoTwin(t), echoTwin(t)
	targets := []netaddr.Addr{fast.farAddr, ma("10.202.0.1"), ma("10.201.0.1"), fast.nearAddr}
	at := simclock.Time(13 * time.Hour)
	for round := 0; round < 2; round++ {
		if round == 1 {
			// AS100 loses its peering with AS200: AS200 and its
			// customer AS400 become unroutable from the VP.
			for _, w := range []*world{fast, ref} {
				w.nw.BGP.Graph().RemoveLink(100, 200)
				w.nw.InvalidateRoutes()
			}
		}
		for i := 0; i < 40; i++ {
			dst := targets[i%len(targets)]
			for ttl := uint8(0); ttl <= 4; ttl++ {
				at = at.Add(7 * time.Millisecond)
				got, ok := fast.nw.Echo(fast.vp, dst, ttl, at)
				if !ok {
					sameWalkState(t, fast, ref, "before fallback")
					got = injectEcho(t, fast, dst, ttl, at)
				}
				want := injectEcho(t, ref, dst, ttl, at)
				if got != want {
					t.Fatalf("round %d %v ttl %d: Echo %+v, Inject %+v", round, dst, ttl, got, want)
				}
				sameWalkState(t, fast, ref, "after probe")
			}
		}
	}
	if st := fast.nw.InjectStats(); st.Lost == 0 || st.Delivered == 0 || st.Unreachable == 0 {
		t.Fatalf("probe mix did not cover every outcome: %+v", st)
	}
}

// TestEchoFallsBackUntouched checks the cases Echo refuses: a target
// the source owns and an unroutable one change no state.
func TestEchoFallsBackUntouched(t *testing.T) {
	w := buildWorld(t)
	for _, dst := range []netaddr.Addr{w.nw.SrcAddr(w.vp), ma("99.9.9.9")} {
		if _, ok := w.nw.Echo(w.vp, dst, 64, 0); ok {
			t.Fatalf("Echo toward %v replayed; want a fallback to Inject", dst)
		}
	}
	if w.nw.PacketNonces() != 0 || w.nw.InjectStats() != (InjectStats{}) {
		t.Fatalf("refused echoes changed state: %d nonces, %+v", w.nw.PacketNonces(), w.nw.InjectStats())
	}
}
