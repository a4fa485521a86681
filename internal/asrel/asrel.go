// Package asrel models autonomous systems, business relationships
// between them, and organization/sibling structure. It provides both
// the ground-truth graph the simulator routes over (Gao–Rexford
// semantics live in bgpsim) and an AS-rank-like relationship inference
// pass that reconstructs relationships from observed AS paths — the
// role CAIDA's AS-rank dataset plays as a bdrmap input in the paper.
package asrel

import (
	"fmt"
	"sort"
)

// ASN is an autonomous system number.
type ASN uint32

// String renders the conventional "AS30997" form.
func (a ASN) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// Rel is the relationship of a neighbor B relative to an AS A.
type Rel int8

// Relationship kinds. Values are chosen so that -Rel inverts the
// relationship (provider ↔ customer) and peers/siblings are symmetric.
const (
	Customer Rel = -1 // B is A's customer
	Peer     Rel = 0  // B is A's settlement-free peer
	Provider Rel = 1  // B is A's transit provider
	Sibling  Rel = 2  // B belongs to the same organization as A
	None     Rel = 3  // no relationship
)

// String names the relationship.
func (r Rel) String() string {
	switch r {
	case Customer:
		return "customer"
	case Peer:
		return "peer"
	case Provider:
		return "provider"
	case Sibling:
		return "sibling"
	default:
		return "none"
	}
}

// Invert returns the relationship from the other side's viewpoint.
func (r Rel) Invert() Rel {
	switch r {
	case Customer:
		return Provider
	case Provider:
		return Customer
	default:
		return r
	}
}

// Org identifies an organization owning one or more ASes; ASes of the
// same org are siblings (the paper's sibling lists are seeded from
// CAIDA's AS-to-organization mapping).
type Org string

// Graph is a mutable AS relationship graph. The zero value is not
// usable; call NewGraph.
type Graph struct {
	rels map[ASN]map[ASN]Rel
	orgs map[ASN]Org
	name map[ASN]string
	// adjCache memoizes sorted neighbor lists.
	adjCache map[ASN][]ASN
	// mutations counts changes to the AS set and its relationships;
	// see Mutations.
	mutations uint64
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		rels:     make(map[ASN]map[ASN]Rel),
		orgs:     make(map[ASN]Org),
		name:     make(map[ASN]string),
		adjCache: make(map[ASN][]ASN),
	}
}

// dirty drops cached adjacency after any mutation.
func (g *Graph) dirty(ases ...ASN) {
	for _, a := range ases {
		delete(g.adjCache, a)
	}
	g.mutations++
}

// ensure registers an AS (idempotent).
func (g *Graph) ensure(a ASN) {
	if _, ok := g.rels[a]; !ok {
		g.rels[a] = make(map[ASN]Rel)
		g.mutations++
	}
}

// Mutations returns a count that moves whenever an AS is registered or
// a relationship is set or removed. Consumers that derive structures
// from the graph (bgpsim's dense adjacency) compare it to know when to
// rebuild them.
func (g *Graph) Mutations() uint64 { return g.mutations }

// AddAS registers an AS with a human-readable name and organization.
func (g *Graph) AddAS(a ASN, name string, org Org) {
	g.ensure(a)
	g.name[a] = name
	g.orgs[a] = org
}

// Name returns the registered name of a, or "" when unknown.
func (g *Graph) Name(a ASN) string { return g.name[a] }

// OrgOf returns the organization owning a.
func (g *Graph) OrgOf(a ASN) Org { return g.orgs[a] }

// SetProvider records that provider sells transit to customer.
func (g *Graph) SetProvider(customer, provider ASN) {
	g.ensure(customer)
	g.ensure(provider)
	g.rels[customer][provider] = Provider
	g.rels[provider][customer] = Customer
	g.dirty(customer, provider)
}

// SetPeer records a settlement-free peering between a and b.
func (g *Graph) SetPeer(a, b ASN) {
	g.ensure(a)
	g.ensure(b)
	g.rels[a][b] = Peer
	g.rels[b][a] = Peer
	g.dirty(a, b)
}

// SetSibling records that a and b belong to the same organization.
func (g *Graph) SetSibling(a, b ASN) {
	g.ensure(a)
	g.ensure(b)
	g.rels[a][b] = Sibling
	g.rels[b][a] = Sibling
	g.dirty(a, b)
}

// RemoveLink deletes any relationship between a and b (e.g. an ISP
// de-peering from an IXP, as GIXA's members did when the content
// network was commercialized).
func (g *Graph) RemoveLink(a, b ASN) {
	if m, ok := g.rels[a]; ok {
		delete(m, b)
	}
	if m, ok := g.rels[b]; ok {
		delete(m, a)
	}
	g.dirty(a, b)
}

// Rel returns the relationship of b relative to a.
func (g *Graph) Rel(a, b ASN) Rel {
	if m, ok := g.rels[a]; ok {
		if r, ok := m[b]; ok {
			return r
		}
	}
	return None
}

// Neighbors returns all ASes adjacent to a, sorted. The returned
// slice is shared with the graph's cache; callers must not modify it.
func (g *Graph) Neighbors(a ASN) []ASN {
	if cached, ok := g.adjCache[a]; ok {
		return cached
	}
	m := g.rels[a]
	out := make([]ASN, 0, len(m))
	for b := range m {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	g.adjCache[a] = out
	return out
}

// neighborsByRel returns a's neighbors with the given relationship.
func (g *Graph) neighborsByRel(a ASN, want Rel) []ASN {
	var out []ASN
	for b, r := range g.rels[a] {
		if r == want {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Providers returns a's transit providers.
func (g *Graph) Providers(a ASN) []ASN { return g.neighborsByRel(a, Provider) }

// Customers returns a's customers.
func (g *Graph) Customers(a ASN) []ASN { return g.neighborsByRel(a, Customer) }

// Peers returns a's settlement-free peers.
func (g *Graph) Peers(a ASN) []ASN { return g.neighborsByRel(a, Peer) }

// Siblings returns the ASes sharing a's organization, including
// explicit sibling links and org-derived ones, excluding a itself.
func (g *Graph) Siblings(a ASN) []ASN {
	set := make(map[ASN]bool)
	for _, b := range g.neighborsByRel(a, Sibling) {
		set[b] = true
	}
	if org := g.orgs[a]; org != "" {
		for b, o := range g.orgs {
			if b != a && o == org {
				set[b] = true
			}
		}
	}
	out := make([]ASN, 0, len(set))
	for b := range set {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ASes returns every registered AS, sorted.
func (g *Graph) ASes() []ASN {
	out := make([]ASN, 0, len(g.rels))
	for a := range g.rels {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Degree returns the number of neighbors of a.
func (g *Graph) Degree(a ASN) int { return len(g.rels[a]) }

// CustomerCone returns the set of ASes reachable from a by walking
// only provider→customer edges, including a itself — CAIDA's
// customer-cone definition used for AS ranking.
func (g *Graph) CustomerCone(a ASN) map[ASN]bool {
	cone := map[ASN]bool{a: true}
	stack := []ASN{a}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for b, r := range g.rels[cur] {
			if r == Customer && !cone[b] {
				cone[b] = true
				stack = append(stack, b)
			}
		}
	}
	return cone
}

// Clone deep-copies the graph, used by scenarios that mutate topology
// over time while retaining snapshots.
func (g *Graph) Clone() *Graph {
	c := NewGraph()
	for a, m := range g.rels {
		c.rels[a] = make(map[ASN]Rel, len(m))
		for b, r := range m {
			c.rels[a][b] = r
		}
	}
	for a, o := range g.orgs {
		c.orgs[a] = o
	}
	for a, n := range g.name {
		c.name[a] = n
	}
	return c
}
