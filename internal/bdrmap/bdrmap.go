// Package bdrmap reproduces CAIDA's border mapping process (§4 of the
// paper): from a vantage point it traces toward every routed prefix
// observed in BGP, then applies ownership heuristics — prefix→AS
// mappings, AS relationships, RIR delegations, IXP prefix lists, and
// the VP AS's sibling list — to infer the interdomain links of the
// VP's host network: the (near IP, far IP) pairs TSLP will probe, the
// set of AS neighbors, and which of them are settlement-free peers.
package bdrmap

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"afrixp/internal/asrel"
	"afrixp/internal/bgpsim"
	"afrixp/internal/geo"
	"afrixp/internal/ixpdir"
	"afrixp/internal/netaddr"
	"afrixp/internal/prober"
	"afrixp/internal/registry"
	"afrixp/internal/simclock"
)

// Config carries the input datasets of the border mapping process.
type Config struct {
	// BGP supplies prefix→AS mappings and the routed-prefix trace
	// target list (the RouteViews/RIS stand-in).
	BGP *bgpsim.Network
	// Rels carries AS relationships (the AS-rank stand-in); used to
	// classify neighbors as peers/providers/customers. May be the
	// inferred graph rather than ground truth.
	Rels *asrel.Graph
	// RIR indexes address delegations (ownership corroboration).
	RIR *registry.Index
	// IXP indexes IXP peering/management prefixes and the PCH-style
	// port→AS assignments.
	IXP *ixpdir.Index
	// Geo and RDNS, when set, enable the §5.1 cross-check: both ends
	// of a link classified "at the IXP" are geolocated (database +
	// reverse-DNS hints) and compared against the exchange's country.
	Geo  *geo.DB
	RDNS *geo.RDNS
	// Siblings lists ASes belonging to the VP's organization; hops in
	// their space count as inside the VP network.
	Siblings []asrel.ASN
}

const (
	// maxTTL bounds each traceroute.
	maxTTL = 16
	// maxConsecutiveLoss stops a trace after this many silent hops.
	maxConsecutiveLoss = 3
)

// Link is one inferred interdomain IP link.
type Link struct {
	// Near and Far are the link's two ends: the last address inside
	// the VP network and the first address beyond it.
	Near, Far netaddr.Addr
	// FarAS is the inferred owner of the far end.
	FarAS asrel.ASN
	// ViaIXP names the IXP whose prefix covers either end ("" when
	// the link is a private interconnect). Links with ViaIXP set are
	// the paper's "inferred IP peering links" (§5.1).
	ViaIXP string
	// Rel is the business relationship of FarAS relative to the VP AS
	// per the supplied relationship data (asrel.None when unknown).
	Rel asrel.Rel
	// GeoConsistent reports whether geolocation and reverse-DNS hints
	// agree with the link being at ViaIXP's location (§5.1's added
	// check). Always true when the check did not run or the link is
	// not at an exchange.
	GeoConsistent bool
}

// Result is the border map of one VP.
type Result struct {
	VPAS asrel.ASN
	// Links are the discovered interdomain IP links, deduplicated,
	// sorted by (Near, Far).
	Links []Link
	// Neighbors are the distinct far ASes.
	Neighbors []asrel.ASN
	// Peers are neighbors classified as settlement-free peers (IXP
	// fabric links or peer relationships).
	Peers []asrel.ASN
	// TracesRun counts traceroutes issued.
	TracesRun int
}

// PeeringLinks returns the subset of links established across an IXP.
func (r *Result) PeeringLinks() []Link {
	var out []Link
	for _, l := range r.Links {
		if l.ViaIXP != "" {
			out = append(out, l)
		}
	}
	return out
}

// HasNeighbor reports whether as appears among the inferred neighbors.
func (r *Result) HasNeighbor(as asrel.ASN) bool {
	for _, n := range r.Neighbors {
		if n == as {
			return true
		}
	}
	return false
}

// Run executes the border mapping process from the prober's VP at
// virtual time t. The VP's AS is taken from the prober's node.
func Run(p *prober.Prober, cfg Config, t simclock.Time) (*Result, error) {
	if cfg.BGP == nil {
		return nil, fmt.Errorf("bdrmap: BGP dataset required")
	}
	vpAS := p.VP().ASN
	inside := map[asrel.ASN]bool{vpAS: true}
	for _, s := range cfg.Siblings {
		inside[s] = true
	}

	res := &Result{VPAS: vpAS}
	type linkKey struct{ near, far netaddr.Addr }
	seen := make(map[linkKey]*Link)

	at := t
	// trace is one buffer for every traceroute: nothing below keeps
	// hops past the iteration that traced them.
	trace := make([]prober.Hop, 0, maxTTL)
	for _, po := range cfg.BGP.RoutedPrefixes() {
		if inside[po.Origin] {
			continue // no border crossing toward our own prefixes
		}
		target := traceTarget(po.Prefix)
		var err error
		trace, err = p.AppendTraceroute(trace[:0], target, maxTTL, at)
		if err != nil {
			return nil, fmt.Errorf("bdrmap: tracing %v: %w", po.Prefix, err)
		}
		res.TracesRun++
		at = at.Add(200 * time.Millisecond)
		hops := trimTrailingLoss(trace, maxConsecutiveLoss)

		near, far, ok := findBorder(hops, inside, cfg)
		if !ok {
			continue
		}
		farAS, viaIXP := classifyFar(hops, far, inside, cfg)
		if farAS == 0 {
			continue
		}
		k := linkKey{near, far}
		if _, dup := seen[k]; dup {
			continue
		}
		l := &Link{Near: near, Far: far, FarAS: farAS, ViaIXP: viaIXP,
			Rel: asrel.None, GeoConsistent: true}
		if cfg.Rels != nil {
			l.Rel = cfg.Rels.Rel(vpAS, farAS)
		}
		if l.ViaIXP != "" {
			l.GeoConsistent = geoCheck(l, cfg)
		}
		seen[k] = l
		res.Links = append(res.Links, *l)
	}

	sort.Slice(res.Links, func(i, j int) bool {
		if res.Links[i].Near != res.Links[j].Near {
			return res.Links[i].Near < res.Links[j].Near
		}
		return res.Links[i].Far < res.Links[j].Far
	})

	// Neighbor and peer sets.
	nset := make(map[asrel.ASN]bool)
	pset := make(map[asrel.ASN]bool)
	for _, l := range res.Links {
		nset[l.FarAS] = true
		if l.ViaIXP != "" || l.Rel == asrel.Peer {
			pset[l.FarAS] = true
		}
	}
	res.Neighbors = sortedASNs(nset)
	res.Peers = sortedASNs(pset)

	return res, nil
}

// traceTarget picks the probe destination inside a prefix: the first
// usable host address.
func traceTarget(p netaddr.Prefix) netaddr.Addr {
	if p.Bits >= 31 {
		return p.First()
	}
	return p.Nth(1)
}

// trimTrailingLoss cuts the trace after maxLoss consecutive silent
// hops.
func trimTrailingLoss(hops []prober.Hop, maxLoss int) []prober.Hop {
	run := 0
	for i, h := range hops {
		if h.Lost {
			run++
			if run >= maxLoss {
				return hops[:i+1-run+1]
			}
		} else {
			run = 0
		}
	}
	return hops
}

// findBorder locates the last responding hop inside the VP network and
// the first hop beyond it. The far hop must directly follow the near
// hop: attributing a border across unresponsive hops would splice
// distant routers into fake adjacencies (exactly what happens when a
// lossy link swallows the true far end but a router beyond it
// answers), so gap-crossing traces are treated as inconclusive.
func findBorder(hops []prober.Hop, inside map[asrel.ASN]bool, cfg Config) (near, far netaddr.Addr, ok bool) {
	lastInside := -1
	for i, h := range hops {
		if h.Lost {
			continue
		}
		if owner, known := hopOwner(h.Responder, cfg); known && inside[owner] {
			lastInside = i
		} else {
			break
		}
	}
	if lastInside < 0 || lastInside+1 >= len(hops) {
		return 0, 0, false
	}
	next := hops[lastInside+1]
	if next.Lost {
		return 0, 0, false
	}
	return hops[lastInside].Responder, next.Responder, true
}

// hopOwner maps a hop address to an AS using BGP first, then RIR
// delegations via the opaque-org→ASN chain (addresses can be
// delegated but not announced — infrastructure blocks often are).
// IXP fabric addresses return unknown: they are shared infrastructure.
func hopOwner(a netaddr.Addr, cfg Config) (asrel.ASN, bool) {
	if cfg.IXP != nil && cfg.IXP.OnPeeringLAN(a) {
		return 0, false
	}
	if origin, ok := cfg.BGP.OriginOf(a); ok {
		return origin, true
	}
	if cfg.RIR != nil {
		if del, ok := cfg.RIR.LookupAddr(a); ok && del.Opaque != "" {
			if asn, ok := cfg.RIR.ASNForOrg(del.Opaque); ok {
				return asn, true
			}
		}
	}
	return 0, false
}

// classifyFar infers the owner of the far address and whether the
// link crosses an IXP fabric.
func classifyFar(hops []prober.Hop, far netaddr.Addr, inside map[asrel.ASN]bool, cfg Config) (asrel.ASN, string) {
	viaIXP := ""
	if cfg.IXP != nil {
		if x, ok := cfg.IXP.IXPForAddr(far); ok {
			viaIXP = x.Name
		}
	}
	// Direct mapping: the far address is announced by a non-VP AS.
	if owner, ok := hopOwner(far, cfg); ok && !inside[owner] {
		return owner, viaIXP
	}
	// IXP fabric addresses: the PCH-style port assignment is
	// authoritative for who holds the port.
	if viaIXP != "" && cfg.IXP != nil {
		if owner, ok := cfg.IXP.PortOwner(far); ok {
			return owner, viaIXP
		}
	}
	// Otherwise (unlisted port, provider-addressed far end) the owner
	// is revealed by the next hops — the first subsequent responding
	// hop mapping to an outside AS.
	idx := -1
	for i, h := range hops {
		if !h.Lost && h.Responder == far {
			idx = i
			break
		}
	}
	if idx >= 0 {
		for j := idx + 1; j < len(hops); j++ {
			if hops[j].Lost {
				continue
			}
			if owner, ok := hopOwner(hops[j].Responder, cfg); ok && !inside[owner] {
				return owner, viaIXP
			}
		}
	}
	return 0, viaIXP
}

// geoCheck runs the §5.1 consistency pass on one IXP link: the far
// address's geolocation must match the exchange's country, and any
// reverse-DNS hints must not contradict the geolocation database.
func geoCheck(l *Link, cfg Config) bool {
	if cfg.Geo == nil || cfg.IXP == nil {
		return true
	}
	x, ok := cfg.IXP.ByName(l.ViaIXP)
	if !ok {
		return true
	}
	if e, ok := cfg.Geo.Lookup(l.Far); ok && e.Country != "" &&
		!strings.EqualFold(e.Country, x.Country) {
		return false
	}
	if cfg.RDNS != nil {
		if !geo.Consistent(cfg.Geo, cfg.RDNS, l.Far) ||
			!geo.Consistent(cfg.Geo, cfg.RDNS, l.Near) {
			return false
		}
	}
	return true
}

func sortedASNs(set map[asrel.ASN]bool) []asrel.ASN {
	out := make([]asrel.ASN, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ValidateNeighbors scores an inferred neighbor set against ground
// truth, returning the discovered fraction (the paper reports 96.2 %
// on average) plus the missed and spurious neighbor lists.
func ValidateNeighbors(res *Result, truth []asrel.ASN) (frac float64, missed, spurious []asrel.ASN) {
	tset := make(map[asrel.ASN]bool, len(truth))
	for _, a := range truth {
		tset[a] = true
	}
	iset := make(map[asrel.ASN]bool, len(res.Neighbors))
	found := 0
	for _, a := range res.Neighbors {
		iset[a] = true
		if tset[a] {
			found++
		} else {
			spurious = append(spurious, a)
		}
	}
	for _, a := range truth {
		if !iset[a] {
			missed = append(missed, a)
		}
	}
	if len(truth) == 0 {
		return 1, nil, spurious
	}
	return float64(found) / float64(len(truth)), missed, spurious
}
