// Package bgpsim computes interdomain routes over an asrel.Graph with
// Gao–Rexford (valley-free) policy semantics: routes learned from
// customers are exported to everyone, routes learned from peers or
// providers only to customers; route selection prefers customer over
// peer over provider routes, then shorter AS paths, then the lowest
// next-hop ASN for determinism.
//
// The package plays two roles in the reproduction. It is the control
// plane of the simulated internetwork (router FIBs resolve next hops
// here), and its prefix→origin table is the stand-in for the public
// BGP data (RouteViews/RIS) that bdrmap consumes.
package bgpsim

import (
	"fmt"
	"slices"
	"sort"

	"afrixp/internal/asrel"
	"afrixp/internal/lpm"
	"afrixp/internal/netaddr"
)

// RouteType orders route preference classes: lower is preferred.
type RouteType int8

// Route preference classes.
const (
	RouteSelf RouteType = iota
	RouteCustomer
	RoutePeer
	RouteProvider
	RouteNone
)

// String names the route type.
func (rt RouteType) String() string {
	switch rt {
	case RouteSelf:
		return "self"
	case RouteCustomer:
		return "customer-route"
	case RoutePeer:
		return "peer-route"
	case RouteProvider:
		return "provider-route"
	default:
		return "no-route"
	}
}

// Network is the BGP control plane: an AS relationship graph plus
// prefix originations. Route computation is cached per destination AS
// and invalidated whenever the topology or originations change.
type Network struct {
	graph   *asrel.Graph
	origins map[asrel.ASN][]netaddr.Prefix

	// dense indexing for the route computation
	asns []asrel.ASN
	idx  map[asrel.ASN]int
	// adj is the relationship graph over dense indices, in
	// Neighbors' sorted order, so routesTo walks an edge without a
	// map lookup. adjMutations is the graph's mutation count it was
	// built at; adjFlat backs every row.
	adj          [][]edge
	adjFlat      []edge
	adjMutations uint64

	prefixTable *lpm.Table[asrel.ASN]
	routeCache  map[asrel.ASN]*destRoutes
	dirty       bool
	// generation counts Announce, Withdraw and Invalidate calls; see
	// Generation.
	generation uint64
	// scratch holds the per-destination working arrays routesTo needs
	// (BFS queue, tentative distances, Dijkstra buckets). Continent-
	// scale worlds compute routes for thousands of destinations over
	// thousands of ASes; reusing the scratch turns ~7 O(V) allocations
	// per destination into amortized zero. Only the cached destRoutes
	// arrays — the actual result — are allocated per destination.
	scratch routeScratch
}

// routeScratch is routesTo's reusable working set.
type routeScratch struct {
	queue             []int
	custDist, custHop []int32
	provDist, provHop []int32
	buckets           [][]int
}

// grab sizes the scratch for v ASes and resets the tentative state.
func (s *routeScratch) grab(v, maxD int) {
	if cap(s.custDist) < v {
		s.custDist = make([]int32, v)
		s.custHop = make([]int32, v)
		s.provDist = make([]int32, v)
		s.provHop = make([]int32, v)
	}
	s.custDist, s.custHop = s.custDist[:v], s.custHop[:v]
	s.provDist, s.provHop = s.provDist[:v], s.provHop[:v]
	for i := 0; i < v; i++ {
		s.custDist[i], s.custHop[i] = 1<<30, -1
		s.provDist[i], s.provHop[i] = 1<<30, -1
	}
	if cap(s.buckets) < maxD+2 {
		s.buckets = make([][]int, maxD+2)
	}
	s.buckets = s.buckets[:maxD+2]
	for i := range s.buckets {
		s.buckets[i] = s.buckets[i][:0]
	}
	s.queue = s.queue[:0]
}

// edge is one adjacency entry: the neighbor's dense index and its
// relationship relative to the row's AS.
type edge struct {
	to  int32
	rel asrel.Rel
}

// destRoutes holds, for one destination AS, each AS's selected route.
type destRoutes struct {
	nextHop []int32 // index of next-hop AS, -1 = none, self-index for origin
	rtype   []RouteType
	dist    []int32 // AS-path length (hops to destination)
}

// New returns a Network over the given relationship graph. The graph
// may be mutated afterwards; call Invalidate when it is.
func New(g *asrel.Graph) *Network {
	n := &Network{
		graph:   g,
		origins: make(map[asrel.ASN][]netaddr.Prefix),
		dirty:   true,
	}
	return n
}

// Graph returns the underlying relationship graph.
func (n *Network) Graph() *asrel.Graph { return n.graph }

// Announce originates prefix p from AS a.
func (n *Network) Announce(a asrel.ASN, p netaddr.Prefix) {
	n.origins[a] = append(n.origins[a], p)
	n.invalidate()
}

// Withdraw removes all originations of p by a.
func (n *Network) Withdraw(a asrel.ASN, p netaddr.Prefix) {
	ps := n.origins[a]
	out := ps[:0]
	for _, q := range ps {
		if q != p {
			out = append(out, q)
		}
	}
	n.origins[a] = out
	n.invalidate()
}

// Invalidate drops all cached routes; call after mutating the
// relationship graph (membership churn is a first-class event in the
// African IXP ecosystem the paper observes).
func (n *Network) Invalidate() { n.invalidate() }

func (n *Network) invalidate() {
	n.dirty = true
	n.generation++
}

// Generation returns a count that moves on every Announce, Withdraw
// and Invalidate: anything that can change an address's origin or a
// selected route. Data-plane caches keyed on it stay exact.
func (n *Network) Generation() uint64 { return n.generation }

func (n *Network) rebuild() {
	if !n.dirty {
		return
	}
	n.asns = n.graph.ASes()
	// Origin-only ASes may not be in the graph; include them.
	seen := make(map[asrel.ASN]bool, len(n.asns))
	for _, a := range n.asns {
		seen[a] = true
	}
	extra := make([]asrel.ASN, 0)
	for a := range n.origins {
		if !seen[a] {
			extra = append(extra, a)
		}
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
	n.asns = append(n.asns, extra...)
	n.idx = make(map[asrel.ASN]int, len(n.asns))
	for i, a := range n.asns {
		n.idx[a] = i
	}
	n.prefixTable = lpm.New[asrel.ASN]()
	for a, ps := range n.origins {
		for _, p := range ps {
			n.prefixTable.Insert(p, a)
		}
	}
	n.routeCache = make(map[asrel.ASN]*destRoutes)
	n.adj = n.adj[:0]
	n.dirty = false
}

// adjacency returns the dense adjacency, rebuilding it after rebuild
// re-indexed the ASes or the graph's mutation count moved. Rows list
// neighbors in Neighbors' sorted ASN order, which is what makes the
// lowest-next-hop tie-break of routesTo hold.
func (n *Network) adjacency() [][]edge {
	if len(n.adj) == len(n.asns) && n.adjMutations == n.graph.Mutations() {
		return n.adj
	}
	total := 0
	for _, a := range n.asns {
		total += n.graph.Degree(a)
	}
	flat := slices.Grow(n.adjFlat[:0], total)
	adj := n.adj[:0]
	for _, a := range n.asns {
		start := len(flat)
		for _, b := range n.graph.Neighbors(a) {
			flat = append(flat, edge{to: int32(n.idx[b]), rel: n.graph.Rel(a, b)})
		}
		adj = append(adj, flat[start:len(flat):len(flat)])
	}
	n.adj, n.adjFlat, n.adjMutations = adj, flat, n.graph.Mutations()
	return adj
}

// OriginOf maps an address to the AS originating its longest covering
// prefix — the prefix→AS mapping bdrmap builds from public BGP data.
func (n *Network) OriginOf(addr netaddr.Addr) (asrel.ASN, bool) {
	n.rebuild()
	return n.prefixTable.Lookup(addr)
}

// PrefixOriginOf additionally returns the matched prefix.
func (n *Network) PrefixOriginOf(addr netaddr.Addr) (netaddr.Prefix, asrel.ASN, bool) {
	n.rebuild()
	return n.prefixTable.LookupPrefix(addr)
}

// RoutedPrefixes returns every announced prefix with its origin,
// sorted — "every routed prefix observed in BGP", the bdrmap trace
// target list.
func (n *Network) RoutedPrefixes() []PrefixOrigin {
	n.rebuild()
	var out []PrefixOrigin
	n.prefixTable.Walk(func(p netaddr.Prefix, a asrel.ASN) bool {
		out = append(out, PrefixOrigin{Prefix: p, Origin: a})
		return true
	})
	return out
}

// PrefixOrigin pairs an announced prefix with its origin AS.
type PrefixOrigin struct {
	Prefix netaddr.Prefix
	Origin asrel.ASN
}

// NextHopAS returns the AS that `from` forwards toward `dst`, along
// with the selected route type. ok is false when `from` has no route.
// A destination equal to `from` returns (from, RouteSelf, true).
func (n *Network) NextHopAS(from, dst asrel.ASN) (asrel.ASN, RouteType, bool) {
	n.rebuild()
	fi, ok := n.idx[from]
	if !ok {
		return 0, RouteNone, false
	}
	dr := n.routesTo(dst)
	if dr == nil || dr.rtype[fi] == RouteNone {
		return 0, RouteNone, false
	}
	if dr.rtype[fi] == RouteSelf {
		return from, RouteSelf, true
	}
	return n.asns[dr.nextHop[fi]], dr.rtype[fi], true
}

// ASPath returns the AS-level path from `from` to `dst` (inclusive of
// both ends), following selected next hops.
func (n *Network) ASPath(from, dst asrel.ASN) ([]asrel.ASN, error) {
	n.rebuild()
	path := []asrel.ASN{from}
	cur := from
	for cur != dst {
		nh, _, ok := n.NextHopAS(cur, dst)
		if !ok {
			return nil, fmt.Errorf("bgpsim: %v has no route to %v", cur, dst)
		}
		if nh == cur {
			break
		}
		path = append(path, nh)
		cur = nh
		if len(path) > len(n.asns)+1 {
			return nil, fmt.Errorf("bgpsim: routing loop from %v to %v", from, dst)
		}
	}
	return path, nil
}

// RouteTo reports the route type and AS-path length from `from` to
// `dst`.
func (n *Network) RouteTo(from, dst asrel.ASN) (RouteType, int, bool) {
	n.rebuild()
	fi, ok := n.idx[from]
	if !ok {
		return RouteNone, 0, false
	}
	dr := n.routesTo(dst)
	if dr == nil || dr.rtype[fi] == RouteNone {
		return RouteNone, 0, false
	}
	return dr.rtype[fi], int(dr.dist[fi]), true
}

// routesTo computes (or returns cached) selected routes toward dst.
func (n *Network) routesTo(dst asrel.ASN) *destRoutes {
	if dr, ok := n.routeCache[dst]; ok {
		return dr
	}
	di, ok := n.idx[dst]
	if !ok {
		n.routeCache[dst] = nil
		return nil
	}
	v := len(n.asns)
	adj := n.adjacency()
	dr := &destRoutes{
		nextHop: make([]int32, v),
		rtype:   make([]RouteType, v),
		dist:    make([]int32, v),
	}
	for i := range dr.nextHop {
		dr.nextHop[i] = -1
		dr.rtype[i] = RouteNone
		dr.dist[i] = 1 << 30
	}
	dr.rtype[di] = RouteSelf
	dr.dist[di] = 0
	dr.nextHop[di] = int32(di)

	// Phase 1: customer routes climb provider (and sibling) edges.
	// BFS guarantees shortest paths; neighbors are scanned in sorted
	// ASN order so ties break to the lowest next-hop ASN.
	maxD := 2 * v
	n.scratch.grab(v, maxD)
	queue := append(n.scratch.queue, di)
	custDist := n.scratch.custDist
	custHop := n.scratch.custHop
	custDist[di] = 0
	for qi := 0; qi < len(queue); qi++ {
		x := queue[qi]
		for _, e := range adj[x] {
			// Route at x is exported upward to x's providers and
			// shared with siblings.
			if e.rel != asrel.Provider && e.rel != asrel.Sibling {
				continue
			}
			bi := int(e.to)
			if custDist[bi] > custDist[x]+1 {
				custDist[bi] = custDist[x] + 1
				custHop[bi] = int32(x)
				queue = append(queue, bi)
			}
		}
	}
	for i := 0; i < v; i++ {
		if i != di && custHop[i] >= 0 {
			dr.rtype[i] = RouteCustomer
			dr.dist[i] = custDist[i]
			dr.nextHop[i] = custHop[i]
		}
	}

	// Phase 2: peer routes — one peer hop on top of a customer route
	// (or the origin itself).
	for i := 0; i < v; i++ {
		if dr.rtype[i] == RouteSelf || dr.rtype[i] == RouteCustomer {
			continue
		}
		best := int32(1 << 30)
		var hop int32 = -1
		for _, e := range adj[i] {
			if e.rel != asrel.Peer {
				continue
			}
			if custDist[e.to] < best {
				best = custDist[e.to]
				hop = e.to
			}
		}
		if hop >= 0 {
			dr.rtype[i] = RoutePeer
			dr.dist[i] = best + 1
			dr.nextHop[i] = hop
		}
	}

	// Phase 3: provider routes cascade down customer (and sibling)
	// edges from any routed AS. Dijkstra over unit weights with
	// heterogeneous source distances, implemented with distance
	// buckets for determinism and O(E) cost.
	buckets := n.scratch.buckets
	for i := 0; i < v; i++ {
		if dr.rtype[i] != RouteNone {
			d := int(dr.dist[i])
			if d <= maxD {
				buckets[d] = append(buckets[d], i)
			}
		}
	}
	provDist := n.scratch.provDist
	provHop := n.scratch.provHop
	for d := 0; d <= maxD; d++ {
		for _, x := range buckets[d] {
			// Skip stale entries (already settled at a lower level).
			settled := dr.rtype[x] != RouteNone && int(dr.dist[x]) < d
			if settled {
				continue
			}
			if provDist[x] < int32(d) {
				continue
			}
			for _, e := range adj[x] {
				// Any route is exported down to customers; siblings
				// also receive everything.
				if e.rel != asrel.Customer && e.rel != asrel.Sibling {
					continue
				}
				bi := int(e.to)
				if dr.rtype[bi] != RouteNone {
					continue // has a better class of route already
				}
				if provDist[bi] > int32(d)+1 {
					provDist[bi] = int32(d) + 1
					provHop[bi] = int32(x)
					if d+1 <= maxD {
						buckets[d+1] = append(buckets[d+1], bi)
					}
				}
			}
		}
	}
	for i := 0; i < v; i++ {
		if dr.rtype[i] == RouteNone && provHop[i] >= 0 {
			dr.rtype[i] = RouteProvider
			dr.dist[i] = provDist[i]
			dr.nextHop[i] = provHop[i]
		}
	}

	// Keep any capacity the BFS queue grew for the next destination.
	n.scratch.queue = queue[:0]
	n.routeCache[dst] = dr
	return dr
}
