package scenario

import (
	"fmt"
	"time"

	"afrixp/internal/asrel"
	"afrixp/internal/bgpsim"
	"afrixp/internal/geo"
	"afrixp/internal/interview"
	"afrixp/internal/ixpdir"
	"afrixp/internal/netaddr"
	"afrixp/internal/netsim"
	"afrixp/internal/prober"
	"afrixp/internal/queue"
	"afrixp/internal/registry"
	"afrixp/internal/simclock"
	"afrixp/internal/trafficmodel"
)

// Builder is the world-construction surface: the primitives Paper is
// written in — AS creation, IXP fabrics, bilateral peering meshes,
// transit wiring, vantage points, churn events — over address pools
// that generated worlds (internal/worldgen) widen to hold 10^3–10^4
// ASes. Not safe for concurrent use; build single-threaded, call
// World.Net.InvalidateRoutes() once authoring is done, then hand the
// World to the campaign engine.
type Builder struct {
	World *World
	// ICRef is the intercontinental carrier that events adding
	// late-joining transit providers hang them off.
	ICRef *AS

	// Address pools: /16 per AS, /24 per IXP LAN/management network,
	// /30 interconnects carved from the owning AS's block.
	asPool  *netaddr.Allocator
	ixpPool *netaddr.Allocator

	nextASN asrel.ASN
}

// AS is the built form of one autonomous system.
type AS struct {
	ASN    asrel.ASN
	Name   string
	Prefix netaddr.Prefix
	// Border is the AS's border router; congestion authoring hangs
	// slow-ICMP profiles off it.
	Border  *netsim.Node
	Host    *netsim.Node // internal host carrying the service address
	Service netaddr.Addr
	CC      string
	City    string
	// p2pPool carves /30s for this AS's interconnects.
	p2pPool *netaddr.Allocator
}

// BuilderConfig sets a builder's seed and pools. The zero pools are
// the paper world's: /16 per AS out of 40.0.0.0/6 (1024 ASes), /24 per
// IXP LAN out of 196.60.0.0/14 (1024 LANs), member ASNs from 328000.
// Continent-scale worlds widen ASPool so tens of thousands of ASes fit
// without colliding with the IXP-LAN space.
type BuilderConfig struct {
	// Seed drives every deterministic noise process of the world.
	Seed uint64
	// ASPool is carved into one /16 block per AS.
	ASPool netaddr.Prefix
	// FirstASN seeds the synthetic-ASN allocator (default 328000).
	FirstASN asrel.ASN
}

// NewBuilder starts an empty world with the given seed and pools.
func NewBuilder(cfg BuilderConfig) *Builder {
	g := asrel.NewGraph()
	bgp := bgpsim.New(g)
	w := &World{
		Seed:       cfg.Seed,
		Graph:      g,
		BGP:        bgp,
		Net:        netsim.New(bgp, cfg.Seed),
		IXPs:       make(map[string]*IXPInfo),
		RIRFile:    &registry.File{Registry: "afrinic", Serial: "20170306"},
		Directory:  &ixpdir.Directory{},
		GeoDB:      geo.NewDB(),
		RDNS:       geo.NewRDNS(),
		Interviews: interview.NewRegistry(),
	}
	asPool, firstASN := cfg.ASPool, cfg.FirstASN
	if asPool.Bits <= 0 {
		asPool = netaddr.MustParsePrefix("40.0.0.0/6")
	}
	if firstASN <= 0 {
		firstASN = 328000
	}
	return &Builder{
		World:   w,
		asPool:  netaddr.NewAllocator(asPool),
		ixpPool: netaddr.NewAllocator(netaddr.MustParsePrefix("196.60.0.0/14")),
		nextASN: firstASN,
	}
}

// asBits is the prefix length allocated per AS. The continent-scale
// generator widens the pool and keeps /16s.
const asBits = 16

// AllocASN hands out synthetic member ASNs.
func (b *Builder) AllocASN() asrel.ASN {
	b.nextASN++
	return b.nextASN
}

// AddAS creates an AS: graph registration, /16 announcement, border
// router, internal host with service address one hop behind it (so
// traces into the AS reveal the border's ingress interface), RIR
// delegation, geolocation, and reverse DNS.
func (b *Builder) AddAS(asn asrel.ASN, name, org, cc, city string) *AS {
	prefix := b.asPool.MustAlloc(asBits)
	b.World.Graph.AddAS(asn, name, asrel.Org(org))
	b.World.BGP.Announce(asn, prefix)

	border := b.World.Net.AddNode("br1."+name, asn)
	host := b.World.Net.AddNode("srv1."+name, asn)
	// The first sixteenth of the block is infrastructure: /30
	// interconnects (a /20 out of a /16 holds 1024, enough for
	// Liquid-scale customer counts). The very first /30 is reserved so
	// that x.x.0.1 — the address trace campaigns aim at — is the
	// service loopback behind the border, not the border's own
	// internal interface.
	p2p := netaddr.NewAllocator(netaddr.PrefixFrom(prefix.Addr, asBits+4))
	p2p.MustAlloc(30) // reserve x.x.0.0/30
	link := p2p.MustAlloc(30)
	b.World.Net.ConnectLink(border, host, netsim.LinkSpec{Subnet: link,
		NameA: geo.InterfaceName("ge0-0", "br1", city, cc, domainOf(name)),
		NameB: geo.InterfaceName("eth0", "srv1", city, cc, domainOf(name)),
	})
	service := prefix.Nth(1) // x.x.0.1: one hop behind the border
	b.World.Net.AddLoopback(host, service, geo.InterfaceName("lo0", "srv1", city, cc, domainOf(name)))

	info := &AS{ASN: asn, Name: name, Prefix: prefix, Border: border,
		Host: host, Service: service, CC: cc, City: city,
		p2pPool: p2p}
	b.World.RIRFile.Delegations = append(b.World.RIRFile.Delegations,
		registry.Delegation{Registry: "afrinic", CC: cc, Type: "ipv4",
			Prefix: prefix, Date: simclock.Epoch, Status: "allocated", Opaque: "ORG-" + org},
		registry.Delegation{Registry: "afrinic", CC: cc, Type: "asn",
			ASN: asn, Date: simclock.Epoch, Status: "allocated", Opaque: "ORG-" + org})
	b.World.GeoDB.Add(geo.Entry{Prefix: prefix, Country: cc, City: city})
	b.World.RDNS.Register(service, geo.InterfaceName("lo0", "srv1", city, cc, domainOf(name)))
	return info
}

func domainOf(name string) string { return name + ".net" }

// AddIXP creates an exchange: peering LAN (and optional management
// prefix), directory entry, geolocation of the fabric.
func (b *Builder) AddIXP(name, cc, region, city string, launched int, ixpAS asrel.ASN, withMgmt bool) *IXPInfo {
	lanPrefix := b.ixpPool.MustAlloc(24)
	info := &IXPInfo{Name: name, Country: cc, City: city, Region: region, Launched: launched,
		ASN: ixpAS, Peering: lanPrefix, Members: make(map[asrel.ASN]netaddr.Addr)}
	info.PeeringLAN = b.World.Net.AddLAN(lanPrefix)
	if withMgmt {
		info.Management = b.ixpPool.MustAlloc(24)
	}
	b.World.Directory.IXPs = append(b.World.Directory.IXPs, ixpdir.IXP{
		Name: name, Country: cc, Region: region, Launched: launched,
		PeeringLAN: lanPrefix, Management: info.Management,
	})
	b.World.GeoDB.Add(geo.Entry{Prefix: lanPrefix, Country: cc, City: city})
	if withMgmt {
		b.World.GeoDB.Add(geo.Entry{Prefix: info.Management, Country: cc, City: city})
	}
	b.World.IXPs[name] = info
	return info
}

// PortSpec customizes one member's IXP port.
type PortSpec struct {
	// FromFabric/ToFabric pipes override the default clean port
	// (congestion authoring).
	FromFabric, ToFabric *netsim.Pipe
	// SlowICMPLevel > 0 gives the member's border router a regime
	// slow-ICMP profile with roughly this added latency (ms).
	SlowICMPLevel float64
	// SkipPCH leaves the port out of the published directory.
	SkipPCH bool
}

// LANFullError reports an exchange whose peering LAN has no address
// left for another member port. The paper world's bulk populations
// grow with Scale while its peering LANs stay /24s, so large scales
// overflow them; BuildPaper returns the error.
type LANFullError struct {
	IXP string
	LAN netaddr.Prefix
	// Ports is the member-port count the LAN holds.
	Ports int
}

func (e *LANFullError) Error() string {
	return fmt.Sprintf("scenario: %s peering LAN %v is full at %d member ports", e.IXP, e.LAN, e.Ports)
}

// reservePort panics with a *LANFullError when the exchange's LAN has
// no address left for one more member port beyond the attached ones
// and the scheduled joins that have not applied yet.
func reservePort(x *IXPInfo) {
	if ports := len(x.PeeringLAN.Attachments) + x.pendingJoins; uint64(10+ports) >= x.Peering.NumAddrs() {
		panic(&LANFullError{IXP: x.Name, LAN: x.Peering, Ports: ports})
	}
}

// JoinIXP attaches an AS's border router to an exchange fabric and
// records peerings with the existing members, the directory port
// assignment, and rDNS for the port. It panics with a *LANFullError
// when the LAN has no address left (BuildPaper recovers it).
func (b *Builder) JoinIXP(a *AS, x *IXPInfo, spec PortSpec) netaddr.Addr {
	reservePort(x)
	slot := len(x.PeeringLAN.Attachments)
	addr := x.Peering.Nth(uint64(10 + slot))
	name := geo.InterfaceName(fmt.Sprintf("xe0-%d", slot), "br1",
		cityOfIXP(x), x.Country, domainOf(a.Name))
	b.World.Net.AttachToLAN(a.Border, x.PeeringLAN, netsim.AttachSpec{
		Addr: addr, Name: name,
		FromFabric: spec.FromFabric, ToFabric: spec.ToFabric,
	})
	b.World.RDNS.Register(addr, name)
	// Bilateral peering with every current member.
	for m := range x.Members {
		b.World.Graph.SetPeer(a.ASN, m)
	}
	x.Members[a.ASN] = addr
	if !spec.SkipPCH {
		b.World.Directory.PortAssignments = append(b.World.Directory.PortAssignments,
			ixpdir.PortAssignment{IXPName: x.Name, Addr: addr, ASN: a.ASN})
	}
	if spec.SlowICMPLevel > 0 {
		a.Border.ICMPDelay = slowICMP(b.World.Seed^uint64(a.ASN), spec.SlowICMPLevel)
	}
	return addr
}

// LeaveEvent schedules a member's departure: both port pipes go down
// and the bilateral peerings disappear from the control plane.
func (b *Builder) LeaveEvent(a *AS, x *IXPInfo, at simclock.Time, why string) {
	b.World.AddEvent(Event{At: at, Name: fmt.Sprintf("%s leaves %s (%s)", a.Name, x.Name, why),
		Apply: func(w *World) {
			addr := x.Members[a.ASN]
			for i := range x.PeeringLAN.Attachments {
				att := &x.PeeringLAN.Attachments[i]
				if w.Net.Iface(att.Iface).Addr == addr {
					att.ToFabric.Up = netsim.DownAfter(at)
					att.FromFabric.Up = netsim.DownAfter(at)
				}
			}
			for m := range x.Members {
				if m != a.ASN {
					w.Graph.RemoveLink(a.ASN, m)
				}
			}
			delete(x.Members, a.ASN)
			w.Net.InvalidateRoutes()
		}})
}

// JoinEvent attaches a member at a future date. The port is reserved
// now, so a join that would overflow the LAN fails the build with a
// *LANFullError instead of panicking when it applies; the address is
// still assigned in join order when it applies.
func (b *Builder) JoinEvent(a *AS, x *IXPInfo, at simclock.Time, spec PortSpec, onJoin func(addr netaddr.Addr)) {
	reservePort(x)
	x.pendingJoins++
	b.World.AddEvent(Event{At: at, Name: fmt.Sprintf("%s joins %s", a.Name, x.Name),
		Apply: func(w *World) {
			x.pendingJoins--
			addr := b.JoinIXP(a, x, spec)
			w.Net.InvalidateRoutes()
			if onJoin != nil {
				onJoin(addr)
			}
		}})
}

// Transit wires a provider→customer relationship with a /30 carved
// from the provider's block (providers commonly address customer
// links), and a data-plane link between border routers.
func (b *Builder) Transit(customer, provider *AS, pipeDown, pipeUp *netsim.Pipe) (custAddr, provAddr netaddr.Addr) {
	b.World.Graph.SetProvider(customer.ASN, provider.ASN)
	sub := provider.p2pPool.MustAlloc(30)
	l := b.World.Net.ConnectLink(provider.Border, customer.Border, netsim.LinkSpec{
		Subnet: sub,
		NameA:  geo.InterfaceName("ge1-0", "br1", provider.City, provider.CC, domainOf(provider.Name)),
		NameB:  geo.InterfaceName("ge1-0", "br1", customer.City, customer.CC, domainOf(customer.Name)),
		// provider side gets .1 (A), customer .2 (B)
		PipeAtoB: pipeDown, // provider→customer (download direction)
		PipeBtoA: pipeUp,
	})
	provAddr = b.World.Net.Iface(l.A).Addr
	custAddr = b.World.Net.Iface(l.B).Addr
	b.World.RDNS.Register(provAddr, geo.InterfaceName("ge1-0", "br1", provider.City, provider.CC, domainOf(provider.Name)))
	b.World.RDNS.Register(custAddr, geo.InterfaceName("ge1-0", "br1", customer.City, customer.CC, domainOf(customer.Name)))
	return custAddr, provAddr
}

// QueueWithPackets builds the standard congested-link queue: fluid
// buffer plus the near-saturation stochastic term for a 1500-byte
// packet mix.
func QueueWithPackets(capBps float64, drain simclock.Duration, load trafficmodel.Load) *queue.Fluid {
	return queue.NewFluid(queue.Config{
		CapacityBps: capBps, BufferDrain: drain, Load: load, PacketBits: 12000,
	})
}

// congestedPort builds a FromFabric pipe (switch→member) with a fluid
// queue — the under-provisioned member port of the QCELL–NETPAGE
// case.
func congestedPort(capBps float64, drain simclock.Duration, load trafficmodel.Load) *netsim.Pipe {
	return &netsim.Pipe{
		Prop:  150 * time.Microsecond,
		Queue: QueueWithPackets(capBps, drain, load),
	}
}

// AddVP attaches a probe host to an AS's border router, registers the
// vantage point with the world and returns its descriptor.
func (b *Builder) AddVP(id, monitor string, a *AS, ixp string) *VP {
	sub := a.p2pPool.MustAlloc(30)
	node := b.World.Net.AddNode("vp."+monitor, a.ASN)
	l := b.World.Net.ConnectLink(node, a.Border, netsim.LinkSpec{Subnet: sub,
		NameA: geo.InterfaceName("eth0", "ark-"+monitor, a.City, a.CC, domainOf(a.Name)),
		NameB: geo.InterfaceName("ge0-9", "br1", a.City, a.CC, domainOf(a.Name)),
	})
	b.World.Net.SetGateway(node, b.World.Net.Iface(node.Ifaces[0]))
	vp := &VP{ID: id, Monitor: monitor, IXP: ixp, HostAS: a.ASN, Node: node,
		NearAddr:  b.World.Net.Iface(l.B).Addr,
		CaseLinks: make(map[string]prober.LinkTarget)}
	b.World.VPs = append(b.World.VPs, vp)
	return vp
}

// transitFromCustomerSpace is transit() with the /30 carved from the
// customer's block — common on large providers' customer links, and
// the addressing that makes bdrmap's border placement interesting.
func (b *Builder) transitFromCustomerSpace(customer, provider *AS) (custAddr, provAddr netaddr.Addr) {
	b.World.Graph.SetProvider(customer.ASN, provider.ASN)
	sub := customer.p2pPool.MustAlloc(30)
	l := b.World.Net.ConnectLink(provider.Border, customer.Border, netsim.LinkSpec{
		Subnet: sub,
		NameA:  geo.InterfaceName("ge2-0", "br1", provider.City, provider.CC, domainOf(provider.Name)),
		NameB:  geo.InterfaceName("ge0-0", "br1", customer.City, customer.CC, domainOf(customer.Name)),
	})
	return b.World.Net.Iface(l.B).Addr, b.World.Net.Iface(l.A).Addr
}

// slowICMP builds a regime-switching control-plane delay: in roughly
// 30 % of 5-hour blocks the router answers ICMP ~level ms slower —
// level shifts without any diurnal structure, the cause behind the
// paper's flagged-but-not-diurnal links (VP5/VP6 rows of Table 1).
func slowICMP(seed uint64, levelMs float64) func(simclock.Time) simclock.Duration {
	const block = 5 * time.Hour
	return func(t simclock.Time) simclock.Duration {
		idx := uint64(time.Duration(t) / block)
		u := HashUnit(seed, idx)
		base := 150 * time.Microsecond
		if u < 0.3 {
			// Elevated regime: level ± 10 %, plus per-probe jitter.
			j := HashUnit(seed^0xABCD, uint64(time.Duration(t)/time.Minute))
			d := levelMs * (0.9 + 0.2*u/0.3)
			return base + time.Duration(d*float64(time.Millisecond)) +
				time.Duration(j*float64(500*time.Microsecond))
		}
		j := HashUnit(seed^0x1234, uint64(time.Duration(t)/time.Minute))
		return base + time.Duration(j*float64(300*time.Microsecond))
	}
}

func cityOfIXP(x *IXPInfo) string {
	if x.City != "" {
		return x.City
	}
	switch x.Name {
	case "GIXA":
		return "accra"
	case "TIX":
		return "daressalaam"
	case "JINX":
		return "johannesburg"
	case "SIXP":
		return "serekunda"
	case "KIXP":
		return "nairobi"
	case "RINEX":
		return "kigali"
	}
	return "unknown"
}

// HashUnit is the SplitMix64 unit hash shared by the deterministic
// noise processes; worldgen draws every distribution through it.
func HashUnit(seed, n uint64) float64 {
	z := seed + n*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}
