package scenario

import (
	"afrixp/internal/asrel"
	"afrixp/internal/netaddr"
	"afrixp/internal/netsim"
	"afrixp/internal/queue"
	"afrixp/internal/simclock"
	"afrixp/internal/trafficmodel"
)

// BuilderConfig parameterizes a world builder for programmatic
// construction (internal/worldgen). The zero value reproduces the
// paper builder's pools: /16 per AS out of 40.0.0.0/6 (1024 ASes),
// /24 per IXP LAN out of 196.60.0.0/14 (1024 LANs), member ASNs from
// 328000. Continent-scale worlds widen ASPool so tens of thousands of
// ASes fit without colliding with the IXP-LAN space.
type BuilderConfig struct {
	// Seed drives every deterministic noise process of the world.
	Seed uint64
	// ASPool is carved into one /16 block per AS.
	ASPool netaddr.Prefix
	// FirstASN seeds the synthetic-ASN allocator (default 328000).
	FirstASN asrel.ASN
}

// Builder is the exported world-construction surface: the same
// primitives Paper is written in — AS creation, IXP fabrics, bilateral
// peering meshes, transit wiring, vantage points, churn events — with
// configurable address pools so generated worlds can hold 10^3–10^4
// ASes. Not safe for concurrent use; build single-threaded, then hand
// the World to the campaign engine.
type Builder struct {
	b *builder
}

// AS is an opaque handle to one built autonomous system.
type AS struct {
	info *asInfo
}

// ASN returns the AS number.
func (a *AS) ASN() asrel.ASN { return a.info.ASN }

// Name returns the AS name.
func (a *AS) Name() string { return a.info.Name }

// Prefix returns the AS's announced block.
func (a *AS) Prefix() netaddr.Prefix { return a.info.Prefix }

// Border returns the AS's border router — congestion authoring hangs
// slow-ICMP profiles off it.
func (a *AS) Border() *netsim.Node { return a.info.Border }

// NewBuilder starts an empty world with the given pools.
func NewBuilder(cfg BuilderConfig) *Builder {
	b := newBuilder(cfg.Seed)
	if cfg.ASPool.Bits > 0 {
		b.asPool = netaddr.NewAllocator(cfg.ASPool)
	}
	if cfg.FirstASN > 0 {
		b.nextASN = cfg.FirstASN
	}
	return &Builder{b: b}
}

// World returns the world under construction. Call
// World().Net.InvalidateRoutes() once authoring is done.
func (g *Builder) World() *World { return g.b.w }

// AllocASN hands out the next synthetic ASN.
func (g *Builder) AllocASN() asrel.ASN { return g.b.allocASN() }

// AddAS creates an AS: graph registration, prefix announcement,
// border router, internal host carrying the service address, RIR
// delegation, geolocation, and reverse DNS.
func (g *Builder) AddAS(asn asrel.ASN, name, org, cc, city string) *AS {
	return &AS{info: g.b.addAS(asn, name, org, cc, city)}
}

// AddIXP creates an exchange fabric with its directory entry.
func (g *Builder) AddIXP(name, cc, region, city string, launched int, ixpAS asrel.ASN, withMgmt bool) *IXPInfo {
	return g.b.addIXP(name, cc, region, city, launched, ixpAS, withMgmt)
}

// JoinIXP attaches the AS to the exchange, peering it bilaterally
// with every current member, and returns its port address.
func (g *Builder) JoinIXP(a *AS, x *IXPInfo, spec PortSpec) netaddr.Addr {
	return g.b.joinIXP(a.info, x, spec)
}

// JoinEvent schedules a future JoinIXP; onJoin (optional) receives
// the port address when the event fires.
func (g *Builder) JoinEvent(a *AS, x *IXPInfo, at simclock.Time, spec PortSpec, onJoin func(addr netaddr.Addr)) {
	g.b.joinEvent(a.info, x, at, spec, onJoin)
}

// LeaveEvent schedules the member's departure: port pipes go down and
// the bilateral peerings disappear from the control plane.
func (g *Builder) LeaveEvent(a *AS, x *IXPInfo, at simclock.Time, why string) {
	g.b.leaveEvent(a.info, x, at, why)
}

// Transit wires customer→provider with the /30 carved from the
// provider's block; pipeDown/pipeUp (optional) shape the data plane.
func (g *Builder) Transit(customer, provider *AS, pipeDown, pipeUp *netsim.Pipe) (custAddr, provAddr netaddr.Addr) {
	return g.b.transit(customer.info, provider.info, pipeDown, pipeUp)
}

// Interconnect wires a plain data-plane link mirroring an existing
// graph edge (IC-core peerings).
func (g *Builder) Interconnect(a, c *AS) {
	g.b.interconnect(a.info, c.info)
}

// SetPeer records a settlement-free peering in the control plane.
func (g *Builder) SetPeer(a, c *AS) {
	g.b.w.Graph.SetPeer(a.info.ASN, c.info.ASN)
}

// SetICRef marks the intercontinental carrier events fall back to.
func (g *Builder) SetICRef(a *AS) { g.b.icRef = a.info }

// AddVP attaches a probe host inside the AS and registers the vantage
// point with the world.
func (g *Builder) AddVP(id, monitor string, a *AS, ixp string) *VP {
	vp := g.b.addVP(id, monitor, a.info, ixp)
	g.b.w.VPs = append(g.b.w.VPs, vp)
	return vp
}

// QueueWithPackets builds the standard congested-link queue: fluid
// buffer plus the near-saturation stochastic term.
func QueueWithPackets(capBps float64, drain simclock.Duration, load trafficmodel.Load) *queue.Fluid {
	return queueWithPackets(capBps, drain, load)
}

// HashUnit is the SplitMix64 unit hash shared by the deterministic
// noise processes — worldgen draws every distribution through it.
func HashUnit(seed, n uint64) float64 { return hashUnit(seed, n) }
