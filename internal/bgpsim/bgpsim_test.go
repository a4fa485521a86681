package bgpsim

import (
	"reflect"
	"testing"

	"afrixp/internal/asrel"
	"afrixp/internal/netaddr"
)

func mp(s string) netaddr.Prefix { return netaddr.MustParsePrefix(s) }
func ma(s string) netaddr.Addr   { return netaddr.MustParseAddr(s) }

// chain builds 1 ← 2 ← 3 (2 buys from 1, 3 buys from 2).
func chain() *Network {
	g := asrel.NewGraph()
	g.SetProvider(2, 1)
	g.SetProvider(3, 2)
	return New(g)
}

func TestSelfRoute(t *testing.T) {
	n := chain()
	nh, rt, ok := n.NextHopAS(1, 1)
	if !ok || rt != RouteSelf || nh != 1 {
		t.Fatalf("self route: %v %v %v", nh, rt, ok)
	}
}

func TestCustomerRoutePreferred(t *testing.T) {
	// 1 reaches 3 via its customer chain.
	n := chain()
	nh, rt, ok := n.NextHopAS(1, 3)
	if !ok || rt != RouteCustomer || nh != 2 {
		t.Fatalf("got %v %v %v", nh, rt, ok)
	}
	path, err := n.ASPath(1, 3)
	if err != nil || !reflect.DeepEqual(path, []asrel.ASN{1, 2, 3}) {
		t.Fatalf("path = %v err %v", path, err)
	}
}

func TestProviderRoute(t *testing.T) {
	// 3 reaches 1 via its provider 2.
	n := chain()
	nh, rt, ok := n.NextHopAS(3, 1)
	if !ok || rt != RouteProvider || nh != 2 {
		t.Fatalf("got %v %v %v", nh, rt, ok)
	}
}

func TestPeerRouteAndValleyFreedom(t *testing.T) {
	// Two stubs under two providers that peer: path stub→prov→prov→stub.
	g := asrel.NewGraph()
	g.SetProvider(100, 10)
	g.SetProvider(200, 20)
	g.SetPeer(10, 20)
	n := New(g)

	path, err := n.ASPath(100, 200)
	if err != nil || !reflect.DeepEqual(path, []asrel.ASN{100, 10, 20, 200}) {
		t.Fatalf("path = %v err %v", path, err)
	}
	rt, dist, ok := n.RouteTo(10, 200)
	if !ok || rt != RoutePeer || dist != 2 {
		t.Fatalf("10→200: %v %d %v", rt, dist, ok)
	}
}

func TestNoValleyThroughPeers(t *testing.T) {
	// 10—20 peer, 20—30 peer. 10 must NOT reach 30's stub through two
	// successive peer links (valley-free violation).
	g := asrel.NewGraph()
	g.SetPeer(10, 20)
	g.SetPeer(20, 30)
	g.SetProvider(300, 30)
	n := New(g)
	if _, _, ok := n.NextHopAS(10, 300); ok {
		t.Fatal("route through two peer links must not exist")
	}
}

func TestCustomerPreferredOverPeerAndProvider(t *testing.T) {
	// 10 can reach 99 via customer chain (longer) or via peer
	// (shorter); policy prefers the customer route.
	g := asrel.NewGraph()
	g.SetProvider(50, 10) // 50 is customer of 10
	g.SetProvider(99, 50) // 99 customer of 50 → 10-50-99 customer route
	g.SetPeer(10, 99)     // direct peering, 1 hop
	n := New(g)
	nh, rt, ok := n.NextHopAS(10, 99)
	if !ok || rt != RouteCustomer || nh != 50 {
		t.Fatalf("want customer route via 50, got %v %v %v", nh, rt, ok)
	}
}

func TestShorterPathWinsWithinClass(t *testing.T) {
	// Two customer routes: direct customer vs via chain; direct wins.
	g := asrel.NewGraph()
	g.SetProvider(9, 1) // 9 is 1's customer
	g.SetProvider(5, 1) // 5 is 1's customer
	g.SetProvider(9, 5) // 9 also buys from 5
	n := New(g)
	nh, rt, ok := n.NextHopAS(1, 9)
	if !ok || rt != RouteCustomer || nh != 9 {
		t.Fatalf("want direct customer hop, got %v %v %v", nh, rt, ok)
	}
}

func TestTieBreakLowestASN(t *testing.T) {
	// Destination reachable via two equal-length customer chains.
	g := asrel.NewGraph()
	g.SetProvider(7, 3)
	g.SetProvider(7, 5)
	g.SetProvider(3, 1)
	g.SetProvider(5, 1)
	n := New(g)
	nh, _, ok := n.NextHopAS(1, 7)
	if !ok || nh != 3 {
		t.Fatalf("tie must break to lowest ASN: got %v", nh)
	}
}

func TestSiblingPropagation(t *testing.T) {
	// 10 and 11 are siblings; 11 has provider 1. 10's prefixes must be
	// reachable from 1 through 11.
	g := asrel.NewGraph()
	g.SetSibling(10, 11)
	g.SetProvider(11, 1)
	n := New(g)
	path, err := n.ASPath(1, 10)
	if err != nil || !reflect.DeepEqual(path, []asrel.ASN{1, 11, 10}) {
		t.Fatalf("path = %v err %v", path, err)
	}
}

func TestNoRouteBetweenDisconnected(t *testing.T) {
	g := asrel.NewGraph()
	g.AddAS(1, "", "")
	g.AddAS(2, "", "")
	n := New(g)
	if _, _, ok := n.NextHopAS(1, 2); ok {
		t.Fatal("disconnected ASes must have no route")
	}
	if _, err := n.ASPath(1, 2); err == nil {
		t.Fatal("ASPath must fail")
	}
}

func TestUnknownASes(t *testing.T) {
	n := New(asrel.NewGraph())
	if _, _, ok := n.NextHopAS(1, 2); ok {
		t.Fatal("unknown ASes must have no route")
	}
	if _, _, ok := n.RouteTo(1, 2); ok {
		t.Fatal("unknown ASes must have no route")
	}
}

func TestOriginLookup(t *testing.T) {
	n := chain()
	n.Announce(3, mp("10.3.0.0/16"))
	n.Announce(1, mp("10.1.0.0/16"))
	n.Announce(3, mp("10.3.128.0/17")) // more specific
	if a, ok := n.OriginOf(ma("10.3.200.1")); !ok || a != 3 {
		t.Fatalf("OriginOf = %v %v", a, ok)
	}
	p, a, ok := n.PrefixOriginOf(ma("10.3.200.1"))
	if !ok || a != 3 || p != mp("10.3.128.0/17") {
		t.Fatalf("PrefixOriginOf = %v %v %v", p, a, ok)
	}
	if _, ok := n.OriginOf(ma("99.0.0.1")); ok {
		t.Fatal("unannounced space must miss")
	}
}

func TestRoutedPrefixesSorted(t *testing.T) {
	n := chain()
	n.Announce(3, mp("10.3.0.0/16"))
	n.Announce(1, mp("10.1.0.0/16"))
	got := n.RoutedPrefixes()
	if len(got) != 2 || got[0].Prefix != mp("10.1.0.0/16") || got[1].Origin != 3 {
		t.Fatalf("RoutedPrefixes = %v", got)
	}
}

func TestWithdraw(t *testing.T) {
	n := chain()
	n.Announce(3, mp("10.3.0.0/16"))
	n.Withdraw(3, mp("10.3.0.0/16"))
	if _, ok := n.OriginOf(ma("10.3.0.1")); ok {
		t.Fatal("withdrawn prefix must not resolve")
	}
}

func TestInvalidateAfterTopologyChange(t *testing.T) {
	g := asrel.NewGraph()
	g.SetPeer(1, 2)
	n := New(g)
	if _, _, ok := n.NextHopAS(1, 2); !ok {
		t.Fatal("peers must route to each other")
	}
	g.RemoveLink(1, 2)
	n.Invalidate()
	if _, _, ok := n.NextHopAS(1, 2); ok {
		t.Fatal("route must disappear after de-peering + Invalidate")
	}
}

func TestOriginOnlyASIsRoutable(t *testing.T) {
	// An AS present only via Announce (no relationships) resolves
	// origins but has no routes.
	n := chain()
	n.Announce(999, mp("99.0.0.0/8"))
	if a, ok := n.OriginOf(ma("99.1.2.3")); !ok || a != 999 {
		t.Fatal("origin-only AS must resolve")
	}
	if _, _, ok := n.NextHopAS(1, 999); ok {
		t.Fatal("no route should exist to an unconnected origin")
	}
}

// TestIXPFabricPaths exercises the topology shape of the paper: many
// members peering at an IXP, the IXP content network AS peering with
// all members (route-server-like), and members' customers reachable
// across the fabric.
func TestIXPFabricPaths(t *testing.T) {
	g := asrel.NewGraph()
	ixpAS := asrel.ASN(30997) // GIXA content network
	members := []asrel.ASN{29614, 33786, 37309, 12345}
	for _, m := range members {
		g.SetPeer(ixpAS, m)
	}
	// Each member has a customer stub.
	for i, m := range members {
		g.SetProvider(asrel.ASN(60000+i), m)
	}
	n := New(g)

	// The content network reaches every member directly…
	for _, m := range members {
		nh, rt, ok := n.NextHopAS(ixpAS, m)
		if !ok || nh != m || rt != RoutePeer {
			t.Fatalf("ixp→%v: %v %v %v", m, nh, rt, ok)
		}
	}
	// …and member customers through one peer hop.
	path, err := n.ASPath(ixpAS, 60000)
	if err != nil || !reflect.DeepEqual(path, []asrel.ASN{ixpAS, 29614, 60000}) {
		t.Fatalf("path = %v err %v", path, err)
	}
	// Members do NOT transit the IXP content network to reach each
	// other's customers (peer→peer valley).
	if _, _, ok := n.NextHopAS(29614, 60001); ok {
		rt, _, _ := n.RouteTo(29614, 60001)
		if rt == RoutePeer {
			t.Fatal("member must not reach another member's customer through two peer hops")
		}
	}
}

func TestPathsAreValleyFreeProperty(t *testing.T) {
	// Property over a mid-size random-ish hierarchy: every computed
	// path is valley-free (no provider/peer edge after going downhill,
	// at most one peer edge).
	g := asrel.NewGraph()
	// 3 tier-1s fully meshed.
	t1 := []asrel.ASN{1, 2, 3}
	for i := range t1 {
		for j := i + 1; j < len(t1); j++ {
			g.SetPeer(t1[i], t1[j])
		}
	}
	// 9 regionals, each buying from two tier-1s, adjacent ones peer.
	for i := 0; i < 9; i++ {
		r := asrel.ASN(10 + i)
		g.SetProvider(r, t1[i%3])
		g.SetProvider(r, t1[(i+1)%3])
		if i > 0 {
			g.SetPeer(r, r-1)
		}
	}
	// 40 stubs.
	for i := 0; i < 40; i++ {
		g.SetProvider(asrel.ASN(100+i), asrel.ASN(10+i%9))
	}
	n := New(g)

	ases := g.ASes()
	for _, src := range ases {
		for _, dst := range ases {
			if src == dst {
				continue
			}
			path, err := n.ASPath(src, dst)
			if err != nil {
				t.Fatalf("no route %v→%v in connected hierarchy: %v", src, dst, err)
			}
			assertValleyFree(t, g, path)
		}
	}
}

func assertValleyFree(t *testing.T, g *asrel.Graph, path []asrel.ASN) {
	t.Helper()
	// Classify each edge from the perspective of the sender:
	// up (to provider), flat (peer), down (to customer).
	phase := 0 // 0=climbing, 1=peered, 2=descending
	for i := 0; i+1 < len(path); i++ {
		r := g.Rel(path[i], path[i+1])
		switch r {
		case asrel.Provider, asrel.Sibling: // uphill
			if phase > 0 {
				t.Fatalf("valley in path %v: uphill after phase %d", path, phase)
			}
		case asrel.Peer:
			if phase >= 1 {
				t.Fatalf("second peer edge in path %v", path)
			}
			phase = 1
		case asrel.Customer: // downhill
			phase = 2
		default:
			t.Fatalf("path %v uses non-adjacent edge %v-%v", path, path[i], path[i+1])
		}
	}
}

func BenchmarkRoutesTo(b *testing.B) {
	g := asrel.NewGraph()
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			g.SetPeer(asrel.ASN(1+i), asrel.ASN(1+j))
		}
	}
	for i := 0; i < 50; i++ {
		g.SetProvider(asrel.ASN(10+i), asrel.ASN(1+i%3))
	}
	for i := 0; i < 2000; i++ {
		g.SetProvider(asrel.ASN(1000+i), asrel.ASN(10+i%50))
	}
	n := New(g)
	// Index the ASes first: without it idx is nil, routesTo misses the
	// destination and the loop times one map allocation.
	n.rebuild()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.routeCache = make(map[asrel.ASN]*destRoutes)
		if n.routesTo(asrel.ASN(1000+i%2000)) == nil {
			b.Fatal("destination not indexed")
		}
	}
}

// TestAdjacencyFollowsGraphMutations: routes toward a destination first
// computed after a relationship change see it even without Invalidate,
// as they did when route computation read the graph edge by edge.
func TestAdjacencyFollowsGraphMutations(t *testing.T) {
	g := asrel.NewGraph()
	for _, c := range []asrel.ASN{2, 3, 4} {
		g.SetProvider(c, 1)
	}
	n := New(g)
	if rt, d, ok := n.RouteTo(2, 3); !ok || rt != RouteProvider || d != 2 {
		t.Fatalf("2→3 before peering: %v %d %v", rt, d, ok)
	}
	g.SetPeer(2, 4)
	if rt, d, ok := n.RouteTo(2, 4); !ok || rt != RoutePeer || d != 1 {
		t.Fatalf("2→4 after peering: %v %d %v, want a one-hop peer route", rt, d, ok)
	}
}
