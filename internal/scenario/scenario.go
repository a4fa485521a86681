// Package scenario constructs the simulated world of the paper: six
// African IXPs (GIXA, TIX, JINX, SIXP, KIXP, RINEX) with their member
// networks, content networks, transit hierarchy, the three detailed
// congestion case studies (GIXA–GHANATEL, GIXA–KNET, QCELL–NETPAGE),
// the slow-ICMP noise populations behind Table 1's flagged-but-not-
// diurnal counts, the membership churn behind Table 2, and the
// datasets (RIR delegations, IXP directory, geolocation, reverse DNS,
// operator interviews) the measurement pipeline consumes.
package scenario

import (
	"fmt"
	"sort"

	"afrixp/internal/asrel"
	"afrixp/internal/bgpsim"
	"afrixp/internal/geo"
	"afrixp/internal/interview"
	"afrixp/internal/ixpdir"
	"afrixp/internal/netaddr"
	"afrixp/internal/netsim"
	"afrixp/internal/prober"
	"afrixp/internal/registry"
	"afrixp/internal/simclock"
)

// World is the fully assembled simulation.
type World struct {
	Seed  uint64
	Graph *asrel.Graph
	BGP   *bgpsim.Network
	Net   *netsim.Network

	VPs  []*VP
	IXPs map[string]*IXPInfo

	// Datasets (§4 inputs).
	RIRFile    *registry.File
	Directory  *ixpdir.Directory
	GeoDB      *geo.DB
	RDNS       *geo.RDNS
	Interviews *interview.Registry

	events  []Event
	applied int
	now     simclock.Time
}

// VP is one vantage point of the study.
type VP struct {
	// ID is the paper's label ("VP1").
	ID string
	// Monitor is the Ark-style monitor name ("gixa-gh").
	Monitor string
	// IXP is the studied exchange's short name.
	IXP string
	// HostAS is the AS hosting the probe.
	HostAS asrel.ASN
	// Siblings of the host AS (bdrmap input).
	Siblings []asrel.ASN
	// Node is the probe host.
	Node *netsim.Node
	// NearAddr is the VP-facing interface of the host AS's border
	// router — the near end every traceroute from this VP reveals
	// first.
	NearAddr netaddr.Addr
	// CaseLinks maps case-study names ("GIXA-GHANATEL") to the link
	// targets the paper analyzes in depth.
	CaseLinks map[string]prober.LinkTarget
}

// IXPInfo describes one exchange in the world.
type IXPInfo struct {
	Name       string
	Country    string
	City       string
	Region     string
	Launched   int
	ASN        asrel.ASN // the IXP's own AS (content/mgmt network)
	PeeringLAN *netsim.LAN
	Peering    netaddr.Prefix
	Management netaddr.Prefix
	// Members maps member ASN → its border-router port address.
	Members map[asrel.ASN]netaddr.Addr
	// pendingJoins counts scheduled joins that have not applied yet;
	// their ports are reserved against the LAN's capacity.
	pendingJoins int
}

// Event is a timed world mutation (member churn, capacity upgrade,
// link shutdown, transit change).
type Event struct {
	At    simclock.Time
	Name  string
	Apply func(*World)
}

// AddEvent registers a mutation. Events may be added mid-campaign —
// fault injection, late operator actions — as long as they are not in
// the past. Only the unapplied tail is kept sorted: re-sorting the
// whole slice would shift the applied prefix under the w.applied
// cursor, silently re-applying an old event or skipping the new one.
func (w *World) AddEvent(e Event) {
	if e.At < w.now {
		panic(fmt.Sprintf("scenario: AddEvent(%q) at %v is before the world clock %v", e.Name, e.At, w.now))
	}
	w.events = append(w.events, e)
	tail := w.events[w.applied:]
	sort.SliceStable(tail, func(i, j int) bool { return tail[i].At < tail[j].At })
}

// AdvanceTo applies all events with At ≤ t. Time never rewinds.
func (w *World) AdvanceTo(t simclock.Time) {
	if t < w.now {
		panic(fmt.Sprintf("scenario: AdvanceTo backwards from %v to %v", w.now, t))
	}
	for w.applied < len(w.events) && w.events[w.applied].At <= t {
		w.events[w.applied].Apply(w)
		w.applied++
	}
	w.now = t
}

// Now returns the world's current virtual time.
func (w *World) Now() simclock.Time { return w.now }

// PendingEvents returns the not-yet-applied events (for campaign
// drivers that want to log them).
func (w *World) PendingEvents() []Event { return w.events[w.applied:] }

// VPByID finds a vantage point by paper label.
func (w *World) VPByID(id string) (*VP, bool) {
	for _, vp := range w.VPs {
		if vp.ID == id {
			return vp, true
		}
	}
	return nil, false
}

// TruthNeighbors returns the ground-truth AS neighbors of a VP's
// network visible in the data plane at the current time, excluding
// siblings — what bdrmap should discover.
func (w *World) TruthNeighbors(vp *VP) []asrel.ASN {
	inside := map[asrel.ASN]bool{vp.HostAS: true}
	for _, s := range vp.Siblings {
		inside[s] = true
	}
	set := make(map[asrel.ASN]bool)
	for _, a := range w.Graph.Neighbors(vp.HostAS) {
		if !inside[a] {
			set[a] = true
		}
	}
	for _, s := range vp.Siblings {
		for _, a := range w.Graph.Neighbors(s) {
			if !inside[a] {
				set[a] = true
			}
		}
	}
	out := make([]asrel.ASN, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
