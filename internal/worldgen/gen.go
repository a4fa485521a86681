// Package worldgen synthesizes continent-scale measurement worlds on
// top of the scenario builder. Where scenario.Paper reproduces the six
// exchanges of the IMC 2017 study verbatim, Generate extrapolates the
// same structural recipe — regional transits multihomed to an
// intercontinental core, exchange fabrics with bilateral peering
// meshes, vantage points inside member networks, planted congestion
// with machine-checkable ground truth — to tens or hundreds of IXPs,
// thousands of vantage points, and 10^5–10^6 interdomain links, all
// derived deterministically from (Seed, Scale).
//
// Scale laws (S = Options.Scale):
//
//	IXPs            ≈ 6·S^0.4    (10×→15, 100×→38, 1000×→95)
//	members per IXP ≈ 12·S^0.25  (±40% spread)
//	vantage points  ≈ 6·S^0.75   (10×→34, 100×→190, 1000×→1068)
//
// The sub-linear exponents mirror the paper's observation that African
// IXP substrate growth is membership-heavy, not exchange-heavy: link
// count grows quadratically in per-fabric membership, so worlds reach
// 10^5–10^6 interdomain links at S=1000 while the exchange count stays
// within the continent's plausible ceiling.
package worldgen

import (
	"fmt"
	"math"
	"time"

	"afrixp/internal/analysis"
	"afrixp/internal/interview"
	"afrixp/internal/netaddr"
	"afrixp/internal/netsim"
	"afrixp/internal/prober"
	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
	"afrixp/internal/trafficmodel"
)

// Options parameterizes a generated world.
type Options struct {
	// Seed drives every deterministic draw. Same (Seed, Scale) yields
	// a byte-identical world (see Fingerprint).
	Seed uint64
	// Scale is the size multiplier relative to the paper world
	// (clamped to ≥ 1). Scale 10/100/1000 are the calibrated points
	// exercised by the scale sweep.
	Scale float64
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 0xA1AF2C0
	}
	if o.Scale < 1 {
		o.Scale = 1
	}
	return o
}

// Counts reports the target sizes derived from the scale laws.
type Counts struct {
	IXPs        int
	MembersMean float64
	VPs         int
}

// DerivedCounts exposes the scale laws for tests and the sweep report.
func DerivedCounts(o Options) Counts {
	o = o.withDefaults()
	s := o.Scale
	return Counts{
		IXPs:        int(math.Round(6 * math.Pow(s, 0.4))),
		MembersMean: 12 * math.Pow(s, 0.25),
		VPs:         int(math.Round(6 * math.Pow(s, 0.75))),
	}
}

// regionSpec pins each synthetic region's country/city pool.
type regionSpec struct {
	name   string
	places []place
}

type place struct{ cc, city string }

var regions = []regionSpec{
	{"West Africa", []place{{"gh", "accra"}, {"ng", "lagos"}, {"sn", "dakar"}, {"ci", "abidjan"}, {"bj", "cotonou"}, {"ml", "bamako"}}},
	{"East Africa", []place{{"ke", "nairobi"}, {"tz", "daressalaam"}, {"ug", "kampala"}, {"et", "addisababa"}, {"mu", "portlouis"}}},
	{"Southern Africa", []place{{"za", "johannesburg"}, {"za", "capetown"}, {"zw", "harare"}, {"mz", "maputo"}, {"bw", "gaborone"}, {"zm", "lusaka"}}},
	{"North Africa", []place{{"eg", "cairo"}, {"ma", "casablanca"}, {"tn", "tunis"}, {"dz", "algiers"}, {"sd", "khartoum"}}},
	{"Central Africa", []place{{"cd", "kinshasa"}, {"cm", "douala"}, {"ga", "libreville"}, {"ao", "luanda"}, {"rw", "kigali"}}},
}

// capLadder is the member port-capacity distribution: the long tail of
// 100 Mbps ports the paper's congested cases sat on, a 200 Mbps
// mid-band, and a 1 Gbps top end for the upgraded exchanges.
var capLadder = []struct {
	bps    float64
	weight float64
}{
	{100e6, 0.45},
	{200e6, 0.35},
	{1e9, 0.20},
}

// maxTransitCustomers bounds how many member networks hang off one
// regional transit: each transit carves customer /30s from a 1024-slot
// pool, so regions that outgrow it get additional transit ASes.
const maxTransitCustomers = 500

// gen carries generation state. Every random draw flows through u(),
// a single SplitMix64 counter stream, so the draw sequence — and with
// it the whole world — is a pure function of (Seed, Scale) regardless
// of GOMAXPROCS or map iteration order (the generator never ranges
// over maps).
type gen struct {
	o     Options
	b     *scenario.Builder
	w     *scenario.World
	draws uint64

	transits map[string][]*scenario.AS // region → transit ASes, rotation order
	tNext    map[string]int            // region → next transit index
	tLoad    map[string]int            // region → customers on current transit

	// members records every fabric's joined member networks in join
	// order, for multihoming reuse and VP placement.
	members map[string][]memberRec
	ixps    []*scenario.IXPInfo
	vpSeq   int
}

type memberRec struct {
	as   *scenario.AS
	addr netaddr.Addr
	ixp  string
}

// u draws the next deterministic unit variate.
func (g *gen) u() float64 {
	g.draws++
	return scenario.HashUnit(g.o.Seed, g.draws)
}

// pick selects an index in [0, n) from the draw stream.
func (g *gen) pick(n int) int {
	i := int(g.u() * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}

func (g *gen) capDraw() float64 {
	u := g.u()
	for _, c := range capLadder {
		if u < c.weight {
			return c.bps
		}
		u -= c.weight
	}
	return capLadder[len(capLadder)-1].bps
}

// Generate builds a world at the requested scale. The result is fully
// routed (InvalidateRoutes has been called) and carries planted
// congestion ground truth in World.Interviews plus per-VP CaseLinks,
// so campaign recall can be scored exactly like the paper world's.
func Generate(o Options) *scenario.World {
	o = o.withDefaults()
	g := &gen{
		o: o,
		b: scenario.NewBuilder(scenario.BuilderConfig{
			Seed: o.Seed,
			// 32.0.0.0/3 holds 8192 /16 AS blocks — room for the
			// ~6.4k member networks of a 1000× world. The default
			// paper pool (40.0.0.0/6) holds only 1024.
			ASPool:   netaddr.MustParsePrefix("32.0.0.0/3"),
			FirstASN: 400000,
		}),
		transits: make(map[string][]*scenario.AS),
		tNext:    make(map[string]int),
		tLoad:    make(map[string]int),
		members:  make(map[string][]memberRec),
	}
	g.w = g.b.World

	counts := DerivedCounts(o)

	// Intercontinental core: two peered carriers, as in the paper.
	ic1 := g.b.AddAS(g.b.AllocASN(), "gen-ic-one", "GEN-IC-ONE", "fr", "paris")
	ic2 := g.b.AddAS(g.b.AllocASN(), "gen-ic-two", "GEN-IC-TWO", "uk", "london")
	g.w.Graph.SetPeer(ic1.ASN, ic2.ASN)
	g.b.Interconnect(ic1, ic2)
	g.b.ICRef = ic1

	// Pre-draw each exchange's region and membership so regional
	// transit capacity can be provisioned up front.
	type ixpPlan struct {
		region  int
		members int
	}
	plans := make([]ixpPlan, counts.IXPs)
	regionMembers := make([]int, len(regions))
	for i := range plans {
		ri := i % len(regions)
		m := int(math.Round(counts.MembersMean * (0.6 + 0.8*g.u())))
		if m < 3 {
			m = 3
		}
		plans[i] = ixpPlan{region: ri, members: m}
		regionMembers[ri] += m + 2 // members + content AS + churn headroom
	}
	for ri, r := range regions {
		n := (regionMembers[ri] + maxTransitCustomers - 1) / maxTransitCustomers
		if n < 1 {
			n = 1
		}
		for k := 0; k < n; k++ {
			p := r.places[g.pick(len(r.places))]
			t := g.b.AddAS(g.b.AllocASN(), fmt.Sprintf("gentr-%d-%d", ri, k),
				fmt.Sprintf("GEN-TRANSIT-%d-%d", ri, k), p.cc, p.city)
			g.b.Transit(t, ic1, nil, nil)
			g.b.Transit(t, ic2, nil, nil)
			g.transits[r.name] = append(g.transits[r.name], t)
		}
	}

	for i, plan := range plans {
		g.buildIXP(i, regions[plan.region], plan.members)
	}

	// Extra vantage points beyond one per exchange live inside member
	// networks, round-robin across fabrics so big and small exchanges
	// alike gain observer diversity.
	for k := counts.IXPs; k < counts.VPs; k++ {
		x := g.ixps[k%len(g.ixps)]
		ms := g.members[x.Name]
		if len(ms) == 0 {
			continue
		}
		m := ms[g.pick(len(ms))]
		g.addVP(m.as, x.Name)
	}

	g.w.Net.InvalidateRoutes()
	return g.w
}

// transitFor rotates a region's member networks across its transit
// ASes, spilling to the next transit once the current one has taken
// maxTransitCustomers customers.
func (g *gen) transitFor(region string) *scenario.AS {
	ts := g.transits[region]
	i := g.tNext[region]
	if g.tLoad[region] >= maxTransitCustomers && i+1 < len(ts) {
		i++
		g.tNext[region] = i
		g.tLoad[region] = 0
	}
	g.tLoad[region]++
	return ts[i]
}

func (g *gen) addVP(host *scenario.AS, ixp string) *scenario.VP {
	g.vpSeq++
	id := fmt.Sprintf("GVP%03d", g.vpSeq)
	monitor := fmt.Sprintf("%s-%03d", host.Name, g.vpSeq)
	return g.b.AddVP(id, monitor, host, ixp)
}

func (g *gen) buildIXP(i int, region regionSpec, nMembers int) {
	p := region.places[g.pick(len(region.places))]
	name := fmt.Sprintf("GIX%02d", i)
	// Launch years skew post-2005, matching the substrate's growth
	// curve; sqrt biases the draw toward recent years.
	launched := 1996 + int(19*math.Sqrt(g.u()))
	x := g.b.AddIXP(name, p.cc, region.name, p.city, launched,
		g.b.AllocASN(), i%4 == 0)
	g.ixps = append(g.ixps, x)

	// The exchange's own content/management network hosts the primary
	// vantage point, like GIXA's VP1.
	content := g.b.AddAS(x.ASN, fmt.Sprintf("gix%02d", i), name, p.cc, p.city)
	g.b.JoinIXP(content, x, scenario.PortSpec{})
	g.b.Transit(content, g.transitFor(region.name), nil, nil)
	vp := g.addVP(content, name)

	// Planted congestion: one or two member ports whose diurnal
	// offered load exceeds port capacity. Half are transient (the
	// operator upgrades the port mid-campaign — a planted level
	// shift), half sustained through the whole window. Peak ratios
	// ≥ 1.2 additionally produce peak-hour loss regimes.
	nCong := 1
	if g.u() < 0.5 {
		nCong = 2
	}
	for c := 0; c < nCong; c++ {
		g.plantCongestion(x, region, vp, i, c)
	}

	// Clean members fill the rest of the fabric.
	for j := nCong; j < nMembers; j++ {
		if g.u() < 0.25 {
			if g.multihome(x, region) {
				continue
			}
		}
		m := g.b.AddAS(g.b.AllocASN(), fmt.Sprintf("g%02dm%02d", i, j),
			fmt.Sprintf("GEN-ORG-%02d-%02d", i, j), p.cc, p.city)
		g.b.Transit(m, g.transitFor(region.name), nil, nil)
		spec := scenario.PortSpec{}
		if g.u() < 0.3 {
			// Slow-ICMP noise band: the control-plane artifact the
			// detector must not mistake for congestion.
			spec.SlowICMPLevel = 6 + 40*g.u()
		}
		addr := g.b.JoinIXP(m, x, spec)
		g.members[x.Name] = append(g.members[x.Name], memberRec{as: m, addr: addr, ixp: x.Name})
	}

	// Membership churn: some fabrics see a join or a leave during the
	// campaign, exercising the engine's event path at scale.
	if g.u() < 0.35 {
		joinAt := simclock.Date(2016, time.April, 1).Add(
			time.Duration(g.u()*240*24) * time.Hour)
		late := g.b.AddAS(g.b.AllocASN(), fmt.Sprintf("g%02dlate", i),
			fmt.Sprintf("GEN-ORG-%02d-LATE", i), p.cc, p.city)
		g.b.Transit(late, g.transitFor(region.name), nil, nil)
		g.b.JoinEvent(late, x, joinAt, scenario.PortSpec{}, nil)
	}
	if g.u() < 0.2 {
		if ms := g.members[x.Name]; len(ms) > 0 {
			last := ms[len(ms)-1]
			if last.ixp == x.Name {
				leaveAt := simclock.Date(2016, time.June, 1).Add(
					time.Duration(g.u()*200*24) * time.Hour)
				g.b.LeaveEvent(last.as, x, leaveAt, "membership lapsed")
			}
		}
	}
}

// multihome reattaches an existing member from the same region to this
// fabric, reproducing the multi-IXP presence of the larger networks.
// Returns false if no eligible candidate exists (the caller then
// creates a fresh member instead).
func (g *gen) multihome(x *scenario.IXPInfo, region regionSpec) bool {
	// Collect candidates deterministically: members of earlier
	// same-region fabrics not already present on this one.
	var cands []memberRec
	for i, xi := range g.ixps {
		if xi.Name == x.Name || regions[i%len(regions)].name != region.name {
			continue
		}
		for _, m := range g.members[xi.Name] {
			if m.ixp != xi.Name { // already a multihomed copy
				continue
			}
			if _, present := x.Members[m.as.ASN]; present {
				continue
			}
			cands = append(cands, m)
		}
	}
	if len(cands) == 0 {
		return false
	}
	m := cands[g.pick(len(cands))]
	addr := g.b.JoinIXP(m.as, x, scenario.PortSpec{})
	g.members[x.Name] = append(g.members[x.Name], memberRec{as: m.as, addr: addr, ixp: m.ixp})
	return true
}

// plantCongestion joins one undersized member port to the fabric and
// records its ground truth: diurnal overload on a port drawn from the
// capacity ladder, observed by the exchange's primary VP, annotated
// with the authored class and episode phases so detection recall is
// machine-checkable.
func (g *gen) plantCongestion(x *scenario.IXPInfo, region regionSpec, vp *scenario.VP, i, c int) {
	p := region.places[g.pick(len(region.places))]
	capBps := g.capDraw()
	drain := time.Duration(14+18*g.u()) * time.Millisecond
	baseRatio := 0.4 + 0.2*g.u()
	peakRatio := 1.1 + 0.25*g.u()
	load := trafficmodel.Diurnal{
		BaseBps:       baseRatio * capBps,
		PeakBps:       peakRatio * capBps,
		PeakHour:      11 + 8*g.u(),
		Width:         1.8 + 1.4*g.u(),
		WeekendFactor: 0.5 + 0.5*g.u(),
		DayJitterFrac: 0.1,
		NoiseFrac:     0.06,
		Seed:          g.o.Seed ^ (uint64(i)<<16 | uint64(c)<<8 | 0x9D),
	}
	port := &netsim.Pipe{
		Prop:  150 * time.Microsecond,
		Queue: scenario.QueueWithPackets(capBps, drain, load.Load()),
	}
	m := g.b.AddAS(g.b.AllocASN(), fmt.Sprintf("g%02dc%d", i, c),
		fmt.Sprintf("GEN-ORG-%02d-C%d", i, c), p.cc, p.city)
	g.b.Transit(m, g.transitFor(region.name), nil, nil)
	addr := g.b.JoinIXP(m, x, scenario.PortSpec{FromFabric: port})
	g.members[x.Name] = append(g.members[x.Name], memberRec{as: m, addr: addr, ixp: x.Name})

	target := prober.LinkTarget{Near: vp.NearAddr, Far: addr}
	caseName := fmt.Sprintf("%s-CONG%d", x.Name, c)
	vp.CaseLinks[caseName] = target

	ann := &interview.Annotation{
		VP: vp.ID, Target: target,
		NearName: x.Name, FarName: g.w.Graph.Name(m.ASN),
		CongestedTruth: true, OperatorConfirmed: g.u() < 0.7,
	}
	if g.u() < 0.5 {
		// Transient: the port is upgraded mid-campaign — a planted
		// downward level shift the detector should close the episode
		// on.
		mitigate := simclock.Date(2016, time.August, 1).Add(
			time.Duration(g.u()*90*24) * time.Hour)
		q := port.Queue
		g.w.AddEvent(scenario.Event{
			At:   mitigate,
			Name: fmt.Sprintf("%s port upgraded", caseName),
			Apply: func(w *scenario.World) {
				q.SetCapacity(mitigate, 10*capBps)
			},
		})
		ann.Class = analysis.Transient
		ann.Phases = []interview.Phase{{
			Interval: simclock.Interval{Start: 0, End: mitigate},
			Cause:    interview.CausePortUnderprovisioned,
			Note:     "port upgraded mid-campaign",
		}}
	} else {
		ann.Class = analysis.Sustained
		ann.Phases = []interview.Phase{{
			Interval: simclock.Interval{Start: 0, End: simclock.LatencyEnd},
			Cause:    interview.CausePortUnderprovisioned,
			Note:     "undersized port, no upgrade in window",
		}}
	}
	g.w.Interviews.Add(ann)
}
