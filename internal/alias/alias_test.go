package alias

import (
	"testing"

	"afrixp/internal/asrel"
	"afrixp/internal/bgpsim"
	"afrixp/internal/netaddr"
	"afrixp/internal/netsim"
	"afrixp/internal/prober"
)

func ma(s string) netaddr.Addr   { return netaddr.MustParseAddr(s) }
func mp(s string) netaddr.Prefix { return netaddr.MustParsePrefix(s) }

// build creates: VP — R1(AS10) with three more interfaces on links to
// R2(AS20) and R3(AS20). R2 has two interfaces (aliases), R3 one.
func build(t testing.TB) (*netsim.Network, *netsim.Node) {
	g := asrel.NewGraph()
	g.SetPeer(10, 20)
	bgp := bgpsim.New(g)
	bgp.Announce(10, mp("10.10.0.0/16"))
	bgp.Announce(20, mp("10.20.0.0/16"))
	nw := netsim.New(bgp, 5)
	vp := nw.AddNode("vp", 10)
	r1 := nw.AddNode("r1", 10)
	r2 := nw.AddNode("r2", 20)
	r3 := nw.AddNode("r3", 20)
	nw.ConnectLink(vp, r1, netsim.LinkSpec{Subnet: mp("10.10.0.0/30")})
	nw.SetGateway(vp, nw.Iface(vp.Ifaces[0]))
	// Two parallel links r1–r2: r2 gets two interface addresses.
	nw.ConnectLink(r1, r2, netsim.LinkSpec{Subnet: mp("10.20.0.0/30")})
	nw.ConnectLink(r1, r2, netsim.LinkSpec{Subnet: mp("10.20.0.4/30")})
	nw.ConnectLink(r1, r3, netsim.LinkSpec{Subnet: mp("10.20.0.8/30")})
	// r2–r3 internal link so both are reachable.
	nw.ConnectLink(r2, r3, netsim.LinkSpec{Subnet: mp("10.20.1.0/30")})
	return nw, vp
}

func TestAllyDetectsAliases(t *testing.T) {
	nw, vp := build(t)
	r := NewResolver(prober.New(nw, vp, prober.Config{}))
	// 10.20.0.2 and 10.20.0.6 are both r2.
	same, err := r.Ally(ma("10.20.0.2"), ma("10.20.0.6"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatal("aliases of r2 not detected")
	}
}

func TestAllyRejectsDistinctRouters(t *testing.T) {
	nw, vp := build(t)
	r := NewResolver(prober.New(nw, vp, prober.Config{}))
	// 10.20.0.2 is r2; 10.20.0.10 is r3.
	same, err := r.Ally(ma("10.20.0.2"), ma("10.20.0.10"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if same {
		t.Fatal("distinct routers claimed as aliases")
	}
}

func TestAllyUnresponsiveTarget(t *testing.T) {
	nw, vp := build(t)
	r := NewResolver(prober.New(nw, vp, prober.Config{}))
	if _, err := r.Ally(ma("10.20.0.2"), ma("99.9.9.9"), 0); err == nil {
		t.Fatal("unresponsive target must error")
	}
}

func TestResolveGroups(t *testing.T) {
	nw, vp := build(t)
	r := NewResolver(prober.New(nw, vp, prober.Config{}))
	addrs := []netaddr.Addr{
		ma("10.20.0.2"), ma("10.20.0.6"), // r2 aliases
		ma("10.20.0.10"), // r3
		ma("10.10.0.2"),  // r1
	}
	groups, err := r.Resolve(addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("groups = %v", groups)
	}
	oracle := GroupOracle(groups)
	if !oracle(ma("10.20.0.2"), ma("10.20.0.6")) {
		t.Fatal("oracle must group r2 aliases")
	}
	if oracle(ma("10.20.0.2"), ma("10.20.0.10")) {
		t.Fatal("oracle must separate r2 and r3")
	}
	if oracle(ma("1.1.1.1"), ma("1.1.1.1")) {
		t.Fatal("unknown addresses must not match")
	}
}

func TestMonotonic(t *testing.T) {
	if !monotonic([]uint16{10, 11, 13, 20}, 100) {
		t.Fatal("increasing sequence rejected")
	}
	if monotonic([]uint16{10, 10}, 100) {
		t.Fatal("repeated ID accepted")
	}
	if monotonic([]uint16{10, 5000}, 100) {
		t.Fatal("huge gap accepted")
	}
	// Wraparound: 65535 → 3 is a small positive advance mod 2^16.
	if !monotonic([]uint16{65535, 3}, 100) {
		t.Fatal("wraparound rejected")
	}
	if !monotonic(nil, 100) || !monotonic([]uint16{7}, 100) {
		t.Fatal("degenerate sequences are trivially monotonic")
	}
}
