package bdrmap

import (
	"testing"
	"time"

	"afrixp/internal/asrel"
	"afrixp/internal/bgpsim"
	"afrixp/internal/ixpdir"
	"afrixp/internal/netaddr"
	"afrixp/internal/netsim"
	"afrixp/internal/prober"
	"afrixp/internal/registry"
	"afrixp/internal/simclock"
)

func ma(s string) netaddr.Addr   { return netaddr.MustParseAddr(s) }
func mp(s string) netaddr.Prefix { return netaddr.MustParsePrefix(s) }

// world: VP host in AS100 (content network, sibling AS101). AS100
// peers at "GIXA" with members 200 and 300; 200 sells transit to 400;
// AS100 buys transit from 500 over a private link addressed from
// 500's space. Member 300's PCH port record is present; 200's too.
type world struct {
	nw  *netsim.Network
	vp  *netsim.Node
	cfg Config
}

func build(t testing.TB) *world {
	g := asrel.NewGraph()
	g.AddAS(100, "CONTENT", "IXP-Org")
	g.AddAS(101, "CONTENT-2", "IXP-Org")
	g.SetSibling(100, 101)
	g.SetPeer(100, 200)
	g.SetPeer(100, 300)
	g.SetProvider(400, 200)
	g.SetProvider(100, 500)

	bgp := bgpsim.New(g)
	bgp.Announce(100, mp("10.100.0.0/16"))
	bgp.Announce(101, mp("10.101.0.0/16"))
	bgp.Announce(200, mp("10.200.0.0/16"))
	bgp.Announce(300, mp("10.201.0.0/16"))
	bgp.Announce(400, mp("10.202.0.0/16"))
	bgp.Announce(500, mp("10.50.0.0/16"))

	nw := netsim.New(bgp, 11)
	vp := nw.AddNode("vp", 100)
	r100 := nw.AddNode("r100", 100)
	r101 := nw.AddNode("r101", 101)
	r200 := nw.AddNode("r200", 200)
	r300 := nw.AddNode("r300", 300)
	r400 := nw.AddNode("r400", 400)
	r500 := nw.AddNode("r500", 500)

	nw.ConnectLink(vp, r100, netsim.LinkSpec{Subnet: mp("10.100.0.0/30")})
	nw.SetGateway(vp, nw.Iface(vp.Ifaces[0]))

	lan := nw.AddLAN(mp("196.49.7.0/24"))
	nw.AttachToLAN(r100, lan, netsim.AttachSpec{Addr: ma("196.49.7.1")})
	nw.AttachToLAN(r200, lan, netsim.AttachSpec{Addr: ma("196.49.7.10")})
	nw.AttachToLAN(r300, lan, netsim.AttachSpec{Addr: ma("196.49.7.11")})

	// Private transit link addressed from the provider's space.
	nw.ConnectLink(r100, r500, netsim.LinkSpec{Subnet: mp("10.50.255.0/30")})
	// Sibling interconnect (intra-organization, must not appear as a
	// border).
	nw.ConnectLink(r100, r101, netsim.LinkSpec{Subnet: mp("10.100.1.0/30")})
	// Member 200's customer 400.
	nw.ConnectLink(r200, r400, netsim.LinkSpec{Subnet: mp("10.200.255.0/30")})

	// Service addresses live on hosts *behind* each border router, so
	// traces into the AS reveal the border router's ingress interface
	// (the IXP port) as a time-exceeded hop — as real member networks
	// do.
	for _, m := range []struct {
		border *netsim.Node
		as     asrel.ASN
		subnet string
		lo     string
	}{
		{r200, 200, "10.200.1.0/30", "10.200.0.1"},
		{r300, 300, "10.201.1.0/30", "10.201.0.1"},
		{r400, 400, "10.202.1.0/30", "10.202.0.1"},
		{r500, 500, "10.50.1.0/30", "10.50.0.1"},
		{r101, 101, "10.101.1.0/30", "10.101.0.1"},
	} {
		h := nw.AddNode("h"+m.border.Name, m.as)
		nw.ConnectLink(m.border, h, netsim.LinkSpec{Subnet: mp(m.subnet)})
		nw.AddLoopback(h, ma(m.lo), "lo."+m.border.Name)
	}

	dir := &ixpdir.Directory{
		IXPs: []ixpdir.IXP{{Name: "GIXA", Country: "GH", Region: "West Africa",
			Launched: 2005, PeeringLAN: mp("196.49.7.0/24")}},
		PortAssignments: []ixpdir.PortAssignment{
			{IXPName: "GIXA", Addr: ma("196.49.7.10"), ASN: 200},
			{IXPName: "GIXA", Addr: ma("196.49.7.11"), ASN: 300},
		},
	}
	rirIdx := registry.NewIndex(&registry.File{Registry: "afrinic"})
	cfg := Config{
		BGP:      bgp,
		Rels:     g,
		RIR:      rirIdx,
		IXP:      ixpdir.NewIndex(dir),
		Siblings: []asrel.ASN{101},
	}
	return &world{nw: nw, vp: vp, cfg: cfg}
}

func TestDiscoversAllNeighbors(t *testing.T) {
	w := build(t)
	p := prober.New(w.nw, w.vp, prober.Config{})
	res, err := Run(p, w.cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []asrel.ASN{200, 300, 500}
	if len(res.Neighbors) != len(want) {
		t.Fatalf("neighbors = %v, want %v", res.Neighbors, want)
	}
	for i, a := range want {
		if res.Neighbors[i] != a {
			t.Fatalf("neighbors = %v, want %v", res.Neighbors, want)
		}
	}
	if res.TracesRun < 4 {
		t.Fatalf("traces run = %d", res.TracesRun)
	}
}

func TestPeeringVsTransitClassification(t *testing.T) {
	w := build(t)
	p := prober.New(w.nw, w.vp, prober.Config{})
	res, err := Run(p, w.cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	peering := res.PeeringLinks()
	if len(peering) != 2 {
		t.Fatalf("peering links = %+v", peering)
	}
	for _, l := range peering {
		if l.ViaIXP != "GIXA" {
			t.Fatalf("peering link not at GIXA: %+v", l)
		}
		if l.FarAS != 200 && l.FarAS != 300 {
			t.Fatalf("peering far AS = %v", l.FarAS)
		}
		if l.Rel != asrel.Peer {
			t.Fatalf("IXP link relationship = %v", l.Rel)
		}
	}
	// Peers: 200 and 300, not the transit provider 500.
	if len(res.Peers) != 2 || res.Peers[0] != 200 || res.Peers[1] != 300 {
		t.Fatalf("peers = %v", res.Peers)
	}
}

func TestProviderAddressedLink(t *testing.T) {
	w := build(t)
	p := prober.New(w.nw, w.vp, prober.Config{})
	res, err := Run(p, w.cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	var transit *Link
	for i := range res.Links {
		if res.Links[i].FarAS == 500 {
			transit = &res.Links[i]
		}
	}
	if transit == nil {
		t.Fatalf("transit link missing: %+v", res.Links)
	}
	if transit.ViaIXP != "" {
		t.Fatal("private link must not be at an IXP")
	}
	if transit.Far != ma("10.50.255.2") {
		t.Fatalf("far end = %v", transit.Far)
	}
	if transit.Rel != asrel.Provider {
		t.Fatalf("relationship = %v", transit.Rel)
	}
}

func TestSiblingNotANeighbor(t *testing.T) {
	w := build(t)
	p := prober.New(w.nw, w.vp, prober.Config{})
	res, err := Run(p, w.cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.HasNeighbor(101) {
		t.Fatal("sibling AS must not appear as a neighbor")
	}
	if res.HasNeighbor(400) {
		t.Fatal("member's customer is not a VP neighbor")
	}
}

func TestNearEndsInsideVPNetwork(t *testing.T) {
	w := build(t)
	p := prober.New(w.nw, w.vp, prober.Config{})
	res, err := Run(p, w.cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Links {
		origin, ok := w.cfg.BGP.OriginOf(l.Near)
		if !ok || (origin != 100 && origin != 101) {
			t.Fatalf("near end %v not inside VP network (origin %v)", l.Near, origin)
		}
	}
}

func TestValidateNeighbors(t *testing.T) {
	res := &Result{Neighbors: []asrel.ASN{200, 300}}
	frac, missed, spurious := ValidateNeighbors(res, []asrel.ASN{200, 300, 500})
	if frac < 0.66 || frac > 0.67 {
		t.Fatalf("frac = %v", frac)
	}
	if len(missed) != 1 || missed[0] != 500 || len(spurious) != 0 {
		t.Fatalf("missed %v spurious %v", missed, spurious)
	}
	frac, _, spurious = ValidateNeighbors(&Result{Neighbors: []asrel.ASN{9}}, nil)
	if frac != 1 || len(spurious) != 1 {
		t.Fatalf("empty truth: %v %v", frac, spurious)
	}
}

func TestGroundTruthValidation(t *testing.T) {
	// End-to-end: the inferred neighbor set must cover the data-plane
	// ground truth (the paper's 96.2 % check — here the world is
	// fully responsive, so coverage is 100 %).
	w := build(t)
	p := prober.New(w.nw, w.vp, prober.Config{})
	res, err := Run(p, w.cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	truthSet := map[asrel.ASN]bool{}
	for _, l := range w.nw.InterdomainLinks() {
		if (l.NearAS == 100 || l.NearAS == 101) && l.FarAS != 100 && l.FarAS != 101 {
			truthSet[l.FarAS] = true
		}
	}
	var truth []asrel.ASN
	for a := range truthSet {
		truth = append(truth, a)
	}
	frac, missed, _ := ValidateNeighbors(res, truth)
	if frac != 1 {
		t.Fatalf("coverage = %v, missed %v", frac, missed)
	}
}

// TestMultiBorderRouterVP: a VP AS with two border routers — one
// holding the IXP port, one holding the transit uplink — must yield
// two distinct near addresses.
func TestMultiBorderRouterVP(t *testing.T) {
	g := asrel.NewGraph()
	g.AddAS(100, "CONTENT", "IXP-Org")
	g.SetPeer(100, 200)
	g.SetProvider(100, 500)
	bgp := bgpsim.New(g)
	bgp.Announce(100, mp("10.100.0.0/16"))
	bgp.Announce(200, mp("10.200.0.0/16"))
	bgp.Announce(500, mp("10.50.0.0/16"))

	nw := netsim.New(bgp, 13)
	vp := nw.AddNode("vp", 100)
	core := nw.AddNode("core", 100)
	brIXP := nw.AddNode("br-ixp", 100)
	brTransit := nw.AddNode("br-transit", 100)
	r200 := nw.AddNode("r200", 200)
	r500 := nw.AddNode("r500", 500)

	nw.ConnectLink(vp, core, netsim.LinkSpec{Subnet: mp("10.100.0.0/30")})
	nw.SetGateway(vp, nw.Iface(vp.Ifaces[0]))
	nw.ConnectLink(core, brIXP, netsim.LinkSpec{Subnet: mp("10.100.0.4/30")})
	nw.ConnectLink(core, brTransit, netsim.LinkSpec{Subnet: mp("10.100.0.8/30")})

	lan := nw.AddLAN(mp("196.49.9.0/24"))
	nw.AttachToLAN(brIXP, lan, netsim.AttachSpec{Addr: ma("196.49.9.1")})
	nw.AttachToLAN(r200, lan, netsim.AttachSpec{Addr: ma("196.49.9.10")})
	nw.ConnectLink(brTransit, r500, netsim.LinkSpec{Subnet: mp("10.50.255.0/30")})

	// Service hosts behind the far borders.
	for _, m := range []struct {
		border *netsim.Node
		as     asrel.ASN
		sub    string
		lo     string
	}{
		{r200, 200, "10.200.1.0/30", "10.200.0.1"},
		{r500, 500, "10.50.1.0/30", "10.50.0.1"},
	} {
		h := nw.AddNode("h"+m.border.Name, m.as)
		nw.ConnectLink(m.border, h, netsim.LinkSpec{Subnet: mp(m.sub)})
		nw.AddLoopback(h, ma(m.lo), "lo")
	}

	dir := &ixpdir.Directory{IXPs: []ixpdir.IXP{{Name: "X", Country: "GH",
		Region: "West Africa", Launched: 2005, PeeringLAN: mp("196.49.9.0/24")}},
		PortAssignments: []ixpdir.PortAssignment{
			{IXPName: "X", Addr: ma("196.49.9.10"), ASN: 200}}}
	cfg := Config{
		BGP: bgp, Rels: g,
		RIR: registry.NewIndex(&registry.File{Registry: "afrinic"}),
		IXP: ixpdir.NewIndex(dir),
	}
	p := prober.New(nw, vp, prober.Config{})
	res, err := Run(p, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != 2 {
		t.Fatalf("neighbors = %v", res.Neighbors)
	}
	// Two distinct near addresses: brIXP's arrival iface for the IXP
	// path, brTransit's for the transit path.
	nears := map[string]bool{}
	for _, l := range res.Links {
		nears[l.Near.String()] = true
	}
	if len(nears) != 2 {
		t.Fatalf("near addresses = %v, want 2 distinct borders", nears)
	}
}

func TestTrimTrailingLoss(t *testing.T) {
	hops := []prober.Hop{
		{TTL: 1}, {TTL: 2, Lost: true}, {TTL: 3},
		{TTL: 4, Lost: true}, {TTL: 5, Lost: true}, {TTL: 6, Lost: true},
		{TTL: 7},
	}
	got := trimTrailingLoss(hops, 3)
	if len(got) != 4 {
		t.Fatalf("trimmed to %d hops", len(got))
	}
}

func TestTraceTarget(t *testing.T) {
	if traceTarget(mp("10.0.0.0/16")) != ma("10.0.0.1") {
		t.Fatal("host target wrong")
	}
	if traceTarget(mp("10.0.0.8/31")) != ma("10.0.0.8") {
		t.Fatal("/31 target wrong")
	}
}

func BenchmarkBorderMapping(b *testing.B) {
	w := build(b)
	p := prober.New(w.nw, w.vp, prober.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, w.cfg, simclock.Time(time.Duration(i)*time.Minute)); err != nil {
			b.Fatal(err)
		}
	}
}
