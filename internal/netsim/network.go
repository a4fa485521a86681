package netsim

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"afrixp/internal/asrel"
	"afrixp/internal/bgpsim"
	"afrixp/internal/netaddr"
	"afrixp/internal/packet"
	"afrixp/internal/queue"
	"afrixp/internal/simclock"
)

// NodeID and IfaceID index into the network's dense node/interface
// tables.
type (
	NodeID  int32
	IfaceID int32
)

const noIface = IfaceID(-1)

// Node is a router or host. Hosts are routers with a Gateway set: they
// forward everything they do not own to the gateway instead of
// consulting BGP (Ark probes are hosts inside the VP network).
type Node struct {
	ID   NodeID
	Name string
	ASN  asrel.ASN
	// Ifaces lists the node's interfaces.
	Ifaces []IfaceID
	// Gateway, when valid, marks the node as a stub host.
	Gateway IfaceID
	// ICMPDelay, when non-nil, adds control-plane delay to ICMP
	// responses this node originates (slow ICMP generation is one of
	// the paper's false-congestion causes, §6.2.1 GIXA–KNET
	// discussion and the VP5/VP6 flagged-but-not-diurnal links).
	ICMPDelay func(simclock.Time) simclock.Duration
	// PreferredEgress, when set, overrides egress interface selection
	// toward specific neighbor ASes — used to author asymmetric
	// routing for the Record-Route ablation.
	PreferredEgress map[asrel.ASN]IfaceID
	// ICMPRateLimit, when non-nil, bounds the rate at which this node
	// originates ICMP responses (echo replies and time-exceeded).
	// Real routers police control-plane traffic exactly like this —
	// the reason the paper kept its probing to 100 packets per second.
	ICMPRateLimit *queue.TokenBucket
	// ICMPDown, when non-nil, silences the node's ICMP generation
	// while it returns true: no echo replies, no time-exceeded errors
	// — the probe is simply never answered (the paper's unresponsive-
	// router losses). Unlike ICMPRateLimit it must be a pure function
	// of the probe's arrival time: fault injection relies on that to
	// keep the frozen sampling path stateless and bit-identical at any
	// worker count.
	ICMPDown func(simclock.Time) bool

	fib        map[asrel.ASN]fibEntry
	fibVersion int64
	ipid       uint16
	ipidInit   bool
}

// nextIPID returns the node's next IP identification value. Routers
// share one counter across interfaces, which is exactly the signal
// Ally-style alias resolution keys on.
func (n *Node) nextIPID() uint16 {
	if !n.ipidInit {
		// Distinct, well-separated starting points per router.
		n.ipid = uint16(uint32(n.ID)*9973 + 77)
		n.ipidInit = true
	}
	n.ipid++
	return n.ipid
}

// IPID returns the IP identification value of the node's last ICMP
// response (zero before its first).
func (n *Node) IPID() uint16 { return n.ipid }

// Iface is an addressed attachment point on a node.
type Iface struct {
	ID   IfaceID
	Node NodeID
	Addr netaddr.Addr
	// Name is the reverse-DNS label of the interface (geo hints).
	Name string

	link *Link
	lan  *LAN
	// lanSlot is this interface's attachment index within lan.
	lanSlot int
}

// Link is a point-to-point link: two interfaces and a pipe per
// direction (index 0: A→B, 1: B→A).
type Link struct {
	A, B  IfaceID
	Pipes [2]*Pipe
	// Subnet is the link's /30 or /31, when addressed.
	Subnet netaddr.Prefix
}

// LAN is a switched fabric (an IXP peering LAN): attachments share a
// prefix; traffic from member i to member j traverses i's ingress pipe
// (member→fabric) and j's egress pipe (fabric→member). The fabric
// itself is non-blocking, matching how IXP operators describe their
// switches; congestion lives on member ports.
type LAN struct {
	Prefix      netaddr.Prefix
	Attachments []Attachment
	byAddr      map[netaddr.Addr]int
}

// Attachment is one member port on a LAN.
type Attachment struct {
	Iface IfaceID
	// ToFabric carries member→switch traffic; FromFabric carries
	// switch→member traffic (the direction that congests when members
	// under-provision their IXP port, as NETPAGE did).
	ToFabric, FromFabric *Pipe
}

// Network is the simulated internetwork.
type Network struct {
	BGP *bgpsim.Network

	nodes  []*Node
	ifaces []*Iface
	links  []*Link
	lans   []*LAN

	byAddr      map[netaddr.Addr]IfaceID
	routersByAS map[asrel.ASN][]*Node

	version    int64
	pktCounter uint64
	seed       uint64
	// rlMu serializes shared ICMP rate-limit buckets on the frozen
	// sampling path; see ProbePath.SampleCtx.
	rlMu sync.Mutex

	// injWire double-buffers the wire images an injection walk
	// rewrites at every hop, and pkt stages their ICMP layers. Two
	// slots suffice: each rewrite reads the current wire and writes the
	// other slot. Owned by Inject, which (like pktCounter) is
	// single-goroutine by contract.
	injWire [2][]byte
	pkt     packet.Scratch

	// injStats counts injection walks by outcome; same single-
	// goroutine contract as injWire (see InjectStats).
	injStats InjectStats

	// traj memoizes echo trajectories for Echo; same single-goroutine
	// contract as injWire.
	traj trajectory
}

// New creates an empty network over the given BGP control plane.
func New(bgp *bgpsim.Network, seed uint64) *Network {
	return &Network{
		BGP:         bgp,
		byAddr:      make(map[netaddr.Addr]IfaceID),
		routersByAS: make(map[asrel.ASN][]*Node),
		seed:        seed,
		version:     1,
	}
}

// AddNode creates a router (or host) in the given AS.
func (nw *Network) AddNode(name string, as asrel.ASN) *Node {
	n := &Node{ID: NodeID(len(nw.nodes)), Name: name, ASN: as, Gateway: noIface}
	nw.nodes = append(nw.nodes, n)
	nw.routersByAS[as] = append(nw.routersByAS[as], n)
	nw.bump()
	return n
}

// Node returns a node by id.
func (nw *Network) Node(id NodeID) *Node { return nw.nodes[id] }

// Iface returns an interface by id.
func (nw *Network) Iface(id IfaceID) *Iface { return nw.ifaces[id] }

// Nodes returns all nodes.
func (nw *Network) Nodes() []*Node { return nw.nodes }

// RoutersOf returns the nodes belonging to an AS.
func (nw *Network) RoutersOf(as asrel.ASN) []*Node { return nw.routersByAS[as] }

// addIface registers an interface on a node.
func (nw *Network) addIface(n *Node, addr netaddr.Addr, name string) *Iface {
	if addr.IsZero() {
		panic("netsim: interface address must be set")
	}
	if _, dup := nw.byAddr[addr]; dup {
		panic(fmt.Sprintf("netsim: duplicate interface address %v", addr))
	}
	ifc := &Iface{ID: IfaceID(len(nw.ifaces)), Node: n.ID, Addr: addr, Name: name}
	nw.ifaces = append(nw.ifaces, ifc)
	n.Ifaces = append(n.Ifaces, ifc.ID)
	nw.byAddr[addr] = ifc.ID
	nw.bump()
	return ifc
}

// OwnerOfAddr resolves an interface address to its node.
func (nw *Network) OwnerOfAddr(addr netaddr.Addr) (*Node, *Iface, bool) {
	id, ok := nw.byAddr[addr]
	if !ok {
		return nil, nil, false
	}
	ifc := nw.ifaces[id]
	return nw.nodes[ifc.Node], ifc, true
}

// PipesAt returns the directional pipes attached at the interface
// owning addr: in carries traffic arriving at the interface's node,
// out carries traffic leaving it (toward the link peer or the LAN
// fabric). ok is false for unknown addresses and loopbacks. Fault
// injection uses it to flap a specific port.
func (nw *Network) PipesAt(addr netaddr.Addr) (in, out *Pipe, ok bool) {
	id, found := nw.byAddr[addr]
	if !found {
		return nil, nil, false
	}
	ifc := nw.ifaces[id]
	if l := ifc.link; l != nil {
		if l.A == ifc.ID {
			return l.Pipes[1], l.Pipes[0], true
		}
		return l.Pipes[0], l.Pipes[1], true
	}
	if ifc.lan != nil {
		att := ifc.lan.Attachments[ifc.lanSlot]
		return att.FromFabric, att.ToFabric, true
	}
	return nil, nil, false
}

// LinkSpec configures ConnectLink. Zero-valued fields get defaults: a
// metro propagation delay and no queue.
type LinkSpec struct {
	Subnet     netaddr.Prefix // /30 etc.; A gets .1, B gets .2
	AddrA      netaddr.Addr   // explicit addresses override Subnet
	AddrB      netaddr.Addr
	NameA      string
	NameB      string
	Prop       simclock.Duration
	PipeAtoB   *Pipe // optional fully-specified pipes
	PipeBtoA   *Pipe
	IfaceNames [2]string
}

// ConnectLink joins two nodes with a point-to-point link and returns
// it. Addresses come from Subnet (first two usable) unless given
// explicitly.
func (nw *Network) ConnectLink(a, b *Node, spec LinkSpec) *Link {
	addrA, addrB := spec.AddrA, spec.AddrB
	if addrA.IsZero() || addrB.IsZero() {
		if spec.Subnet.Bits == 0 {
			panic("netsim: ConnectLink needs Subnet or explicit addresses")
		}
		if spec.Subnet.Bits == 31 {
			addrA, addrB = spec.Subnet.Nth(0), spec.Subnet.Nth(1)
		} else {
			addrA, addrB = spec.Subnet.Nth(1), spec.Subnet.Nth(2)
		}
	}
	ifA := nw.addIface(a, addrA, spec.NameA)
	ifB := nw.addIface(b, addrB, spec.NameB)
	prop := spec.Prop
	if prop <= 0 {
		prop = defaultProp
	}
	pAB, pBA := spec.PipeAtoB, spec.PipeBtoA
	if pAB == nil {
		pAB = &Pipe{Prop: prop}
	}
	if pBA == nil {
		pBA = &Pipe{Prop: prop}
	}
	pAB.seed = nw.seed ^ uint64(ifA.ID)<<32 ^ 0xA1
	pBA.seed = nw.seed ^ uint64(ifB.ID)<<32 ^ 0xB2
	l := &Link{A: ifA.ID, B: ifB.ID, Pipes: [2]*Pipe{pAB, pBA}, Subnet: spec.Subnet}
	ifA.link, ifB.link = l, l
	nw.links = append(nw.links, l)
	nw.bump()
	return l
}

// AddLAN creates an empty switched fabric over prefix.
func (nw *Network) AddLAN(prefix netaddr.Prefix) *LAN {
	lan := &LAN{Prefix: prefix, byAddr: make(map[netaddr.Addr]int)}
	nw.lans = append(nw.lans, lan)
	nw.bump()
	return lan
}

// AttachSpec configures AttachToLAN.
type AttachSpec struct {
	Addr       netaddr.Addr
	Name       string
	Prop       simclock.Duration
	ToFabric   *Pipe
	FromFabric *Pipe
}

// AttachToLAN gives node n a port on the LAN.
func (nw *Network) AttachToLAN(n *Node, lan *LAN, spec AttachSpec) *Iface {
	if !lan.Prefix.Contains(spec.Addr) {
		panic(fmt.Sprintf("netsim: %v outside LAN %v", spec.Addr, lan.Prefix))
	}
	ifc := nw.addIface(n, spec.Addr, spec.Name)
	prop := spec.Prop
	if prop <= 0 {
		prop = defaultProp / 2
	}
	to, from := spec.ToFabric, spec.FromFabric
	if to == nil {
		to = &Pipe{Prop: prop}
	}
	if from == nil {
		from = &Pipe{Prop: prop}
	}
	to.seed = nw.seed ^ uint64(ifc.ID)<<32 ^ 0xC3
	from.seed = nw.seed ^ uint64(ifc.ID)<<32 ^ 0xD4
	ifc.lan = lan
	ifc.lanSlot = len(lan.Attachments)
	lan.Attachments = append(lan.Attachments, Attachment{Iface: ifc.ID, ToFabric: to, FromFabric: from})
	lan.byAddr[spec.Addr] = ifc.lanSlot
	nw.bump()
	return ifc
}

// AddLoopback gives node n an interface not attached to any link —
// the router's loopback/service address, which terminates traceroutes
// into the AS and gives alias resolution a stable anchor.
func (nw *Network) AddLoopback(n *Node, addr netaddr.Addr, name string) *Iface {
	return nw.addIface(n, addr, name)
}

// SetGateway marks n as a stub host forwarding via the given
// interface's link peer.
func (nw *Network) SetGateway(n *Node, ifc *Iface) {
	if ifc.Node != n.ID {
		panic("netsim: gateway interface must belong to the node")
	}
	n.Gateway = ifc.ID
	nw.bump()
}

// bump invalidates cached FIBs and probe paths after topology changes.
func (nw *Network) bump() { nw.version++ }

// AdvanceQueuesBatch moves every fluid queue's integration frontier
// through the given step times in order, recording per-step frontier
// states (queue.Fluid.AdvanceBatch) so workers can observe any step of
// the batch via the frozen-step read path (ProbeCtx.SetStep +
// ProbePath.SampleCtx), or the last step via the live frontier. It is
// the single-writer half of the parallel probing protocol: campaign
// engines call it once per quiescent run of steps (with the world
// clock already advanced), after which concurrent workers observe the
// network through the frozen read path without mutating any shared
// state. The final frontier position is the last step, exactly as
// advancing each queue to each step in turn would leave it; a one-step
// batch is a plain advance. Queues are independent, so the iteration
// order is immaterial.
func (nw *Network) AdvanceQueuesBatch(steps []simclock.Time) {
	adv := func(p *Pipe) {
		if p != nil && p.Queue != nil {
			p.Queue.AdvanceBatch(steps)
		}
	}
	for _, l := range nw.links {
		adv(l.Pipes[0])
		adv(l.Pipes[1])
	}
	for _, lan := range nw.lans {
		for i := range lan.Attachments {
			adv(lan.Attachments[i].ToFabric)
			adv(lan.Attachments[i].FromFabric)
		}
	}
}

// Version returns the topology version; cached ProbePaths embed it.
func (nw *Network) Version() int64 { return nw.version }

// PacketNonces returns how many loss nonces the network-wide packet
// counter has handed out: one per pipe traversal by Inject, Echo and
// ProbePath.Sample.
func (nw *Network) PacketNonces() uint64 { return nw.pktCounter }

// PipesChanged must be called after changing a pipe's Up, Queue,
// BaseLoss or Prop once probe paths may have been resolved: resolved
// ProbePaths compile those fields, and the version bump makes them
// invalid until their owners resolve them again.
func (nw *Network) PipesChanged() { nw.bump() }

// InvalidateRoutes must be called after mutating the AS relationship
// graph so both the BGP cache and node FIBs are recomputed.
func (nw *Network) InvalidateRoutes() {
	nw.BGP.Invalidate()
	nw.bump()
}

// InterdomainLinks enumerates ground-truth interdomain adjacencies
// visible in the data plane: p2p links whose endpoints belong to
// different ASes, and LAN attachment pairs of different ASes. Used by
// scenario validation and bdrmap accuracy scoring.
func (nw *Network) InterdomainLinks() []InterdomainLink {
	var out []InterdomainLink
	for _, l := range nw.links {
		a, b := nw.ifaces[l.A], nw.ifaces[l.B]
		asA, asB := nw.nodes[a.Node].ASN, nw.nodes[b.Node].ASN
		if asA != asB {
			out = append(out, InterdomainLink{NearIface: a.ID, FarIface: b.ID, NearAS: asA, FarAS: asB})
		}
	}
	for _, lan := range nw.lans {
		for i := range lan.Attachments {
			for j := range lan.Attachments {
				if i == j {
					continue
				}
				a := nw.ifaces[lan.Attachments[i].Iface]
				b := nw.ifaces[lan.Attachments[j].Iface]
				asA, asB := nw.nodes[a.Node].ASN, nw.nodes[b.Node].ASN
				if asA != asB {
					out = append(out, InterdomainLink{NearIface: a.ID, FarIface: b.ID, NearAS: asA, FarAS: asB})
				}
			}
		}
	}
	slices.SortFunc(out, func(a, b InterdomainLink) int {
		return cmp.Or(cmp.Compare(a.NearIface, b.NearIface), cmp.Compare(a.FarIface, b.FarIface))
	})
	return out
}

// InterdomainLink is a directed ground-truth adjacency.
type InterdomainLink struct {
	NearIface, FarIface IfaceID
	NearAS, FarAS       asrel.ASN
}
