package scenario

import (
	"fmt"
	"time"

	"afrixp/internal/analysis"
	"afrixp/internal/asrel"
	"afrixp/internal/interview"
	"afrixp/internal/netaddr"
	"afrixp/internal/netsim"
	"afrixp/internal/prober"
	"afrixp/internal/simclock"
	"afrixp/internal/trafficmodel"
)

// Well-known ASNs from the paper.
const (
	ASGixa     asrel.ASN = 30997 // GIXA content network, Ghana
	ASGhanatel asrel.ASN = 29614 // GHANATEL (Vodafone Ghana)
	ASKnet     asrel.ASN = 33786 // KNET, Ghana
	ASTix      asrel.ASN = 33791 // TIX content network, Tanzania
	ASJinx     asrel.ASN = 37474 // JINX content network, South Africa
	ASSixp     asrel.ASN = 327719
	ASQcell    asrel.ASN = 37309 // QCell, Gambia (hosts VP4)
	ASLiquid   asrel.ASN = 30844 // Liquid Telecom, Kenya (hosts VP5)
	ASKixp     asrel.ASN = 4558
	ASRinex    asrel.ASN = 37224
	ASRdb      asrel.ASN = 37228 // RDB, Rwanda (hosts VP6)
)

// Options scales the synthetic world.
type Options struct {
	// Seed drives every deterministic noise process.
	Seed uint64
	// Scale multiplies the bulk synthetic populations (JINX members,
	// KIXP customers/members, RINEX customers). 1.0 ≈ the counts that
	// make Table 1 land near the paper's shape. Values below ~0.1 are
	// clamped to keep at least a couple of links per population.
	Scale float64
	// NetpageUpgradeBps overrides the capacity NETPAGE's SIXP port is
	// upgraded to on 2016-04-28 (default 1 Gbps, the paper's value).
	// What-if capacity-planning experiments sweep it.
	NetpageUpgradeBps float64
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 0xAF12016
	}
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	return o
}

func (o Options) scaled(n int) int {
	v := int(float64(n)*o.Scale + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// noiseBand describes a slow-ICMP population: `count` links whose
// regime delay level is spread over [loMs, hiMs].
type noiseBand struct {
	count      int
	loMs, hiMs float64
}

// BuildPaper builds the six-IXP world of the study, or returns a
// *LANFullError when Scale grows an exchange's members past its
// peering LAN. Worlds that fit are exactly Paper's.
func BuildPaper(opts Options) (w *World, err error) {
	defer func() {
		if r := recover(); r != nil {
			full, ok := r.(*LANFullError)
			if !ok {
				panic(r)
			}
			w, err = nil, full
		}
	}()
	return Paper(opts), nil
}

// Paper builds the six-IXP world of the study. It panics where
// BuildPaper returns an error.
func Paper(opts Options) *World {
	opts = opts.withDefaults()
	b := NewBuilder(BuilderConfig{Seed: opts.Seed})
	w := b.World

	// ------------------------------------------------------------
	// Global core: two intercontinental carriers and the regional
	// transit ASes every member ultimately reaches the world through.
	// ------------------------------------------------------------
	ic1 := b.AddAS(5511, "ic-one", "ICONE", "fr", "paris")
	ic2 := b.AddAS(6453, "ic-two", "ICTWO", "us", "newyork")
	b.ICRef = ic1
	b.World.Graph.SetPeer(ic1.ASN, ic2.ASN)
	// The data plane needs a pipe for the IC peering too.
	b.Interconnect(ic1, ic2)

	regional := map[string]*AS{}
	for _, r := range []struct {
		cc, city, name string
	}{
		{"gh", "accra", "wafrinet"},
		{"tz", "daressalaam", "tz-transit"},
		{"za", "johannesburg", "za-transit"},
		{"gm", "banjul", "gamtel"},
		{"rw", "kigali", "rw-transit"},
	} {
		a := b.AddAS(b.AllocASN(), r.name, orgOf(r.name), r.cc, r.city)
		b.Transit(a, ic1, nil, nil)
		b.Transit(a, ic2, nil, nil)
		regional[r.cc] = a
	}

	buildGIXA(b, opts, regional["gh"])
	buildTIX(b, opts, regional["tz"])
	buildJINX(b, opts, regional["za"])
	buildSIXP(b, opts, regional["gm"])
	buildKIXP(b, opts, ic1, ic2)
	buildRINEX(b, opts, regional["rw"])

	w.Net.InvalidateRoutes()
	return w
}

// Interconnect wires a plain data-plane link mirroring an existing
// graph edge (the IC1–IC2 peering).
func (b *Builder) Interconnect(a, c *AS) {
	sub := a.p2pPool.MustAlloc(30)
	b.World.Net.ConnectLink(a.Border, c.Border, netsim.LinkSpec{Subnet: sub,
		Prop: 3 * time.Millisecond})
}

func orgOf(name string) string { return "ORG-" + name }

// memberSpec describes one synthetic IXP member.
type memberSpec struct {
	name    string
	asn     asrel.ASN // 0 = allocate
	cc      string
	city    string
	port    PortSpec
	leaveAt simclock.Time
	joinAt  simclock.Time
	transit *AS // upstream; nil = none
}

// populate builds members for an IXP, wiring each to its transit and
// scheduling join/leave churn. It returns the built infos in order.
func (b *Builder) populate(x *IXPInfo, specs []memberSpec) []*AS {
	out := make([]*AS, 0, len(specs))
	for _, s := range specs {
		asn := s.asn
		if asn == 0 {
			asn = b.AllocASN()
		}
		a := b.AddAS(asn, s.name, orgOf(s.name), s.cc, s.city)
		if s.transit != nil {
			b.Transit(a, s.transit, nil, nil)
		}
		if s.joinAt > 0 {
			b.JoinEvent(a, x, s.joinAt, s.port, nil)
		} else {
			b.JoinIXP(a, x, s.port)
		}
		if s.leaveAt > 0 {
			b.LeaveEvent(a, x, s.leaveAt, "membership churn")
		}
		out = append(out, a)
	}
	return out
}

// noiseSpecs expands noise bands into member specs with slow-ICMP
// levels spread deterministically over each band.
func (b *Builder) noiseSpecs(prefix, cc, city string, transit *AS, bands []noiseBand) []memberSpec {
	var specs []memberSpec
	idx := 0
	for bi, band := range bands {
		for i := 0; i < band.count; i++ {
			u := HashUnit(b.World.Seed^uint64(bi)<<8, uint64(idx))
			level := band.loMs + u*(band.hiMs-band.loMs)
			specs = append(specs, memberSpec{
				name: fmt.Sprintf("%s%03d", prefix, idx), cc: cc, city: city,
				transit: transit,
				port:    PortSpec{SlowICMPLevel: level},
			})
			idx++
		}
	}
	return specs
}

// ------------------------------------------------------------------
// VP1 — GIXA, Ghana (content-network VP).
// ------------------------------------------------------------------
func buildGIXA(b *Builder, opts Options, ghTransit *AS) {
	w := b.World
	x := b.AddIXP("GIXA", "gh", "West Africa", "accra", 2005, ASGixa, true)
	content := b.AddAS(ASGixa, "gixa", "GIXA", "gh", "accra")
	b.JoinIXP(content, x, PortSpec{})
	vp := b.AddVP("VP1", "gixa-gh", content, "GIXA")

	ghanatel := b.AddAS(ASGhanatel, "ghanatel", "VODAFONE-GH", "gh", "accra")
	b.Transit(ghanatel, ghTransit, nil, nil)

	// --- Case study: the GIXA–GHANATEL 100 Mbps transit link. ---
	// Congested in both directions: the download pipe carries the GGC
	// update traffic every day; the upload pipe saturates only on
	// business days. The stacked plateaus produce the paper's 20–50 ms
	// far-end peaks ("peak on top of the peak") with A_w ≈ 28 ms.
	const capBps = 100e6
	downLoad := trafficmodel.NewSchedule(trafficmodel.Diurnal{ // phase 1
		BaseBps: 0.72 * capBps, PeakBps: 1.35 * capBps, PeakHour: 14, Width: 7,
		WeekendFactor: 0.9, DayJitterFrac: 0.15, NoiseFrac: 0.05, Seed: b.World.Seed ^ 0xD1,
	}.Load())
	upLoad := trafficmodel.NewSchedule(trafficmodel.Diurnal{ // phase 1
		BaseBps: 0.5 * capBps, PeakBps: 1.3 * capBps, PeakHour: 13, Width: 4,
		WeekendFactor: 0.2, DayJitterFrac: 0.2, NoiseFrac: 0.05, Seed: b.World.Seed ^ 0xD2,
	}.Load())
	phase2 := simclock.Date(2016, time.June, 15)
	shutdown := simclock.Date(2016, time.August, 6)
	// Phase 2: GHANATEL shuts transit off to force payment; the link
	// carries peering spillover — small standing queues (≈10 ms
	// amplitude) but savage overload loss at the evening peaks
	// (0–85 % measured).
	downLoad.At(phase2, trafficmodel.Diurnal{
		BaseBps: 0.4 * capBps, PeakBps: 4.5 * capBps, PeakHour: 19, Width: 2.5,
		DayJitterFrac: 0.35, NoiseFrac: 0.1, Seed: b.World.Seed ^ 0xD3,
	}.Load())
	upLoad.At(phase2, trafficmodel.Constant(0.3*capBps))

	pipeDown := congestedPort(capBps, 25*time.Millisecond, downLoad)
	pipeUp := congestedPort(capBps, 25*time.Millisecond, upLoad)
	pipeDown.Up = netsim.DownAfter(shutdown)
	pipeUp.Up = netsim.DownAfter(shutdown)
	// At phase 2 the buffer shrinks: peering service on the same wire
	// runs a shallow queue (the measured amplitude drops to ~10 ms)
	// while the evening overload produces the 0–85 % loss of Fig. 2b.
	w.AddEvent(Event{At: phase2, Name: "GHANATEL transit shutoff: peering spillover",
		Apply: func(w *World) {
			// ~12.5 ms keeps the phase-2 amplitude visibly above the
			// 10 ms detection threshold after min-filtering — the
			// paper's pipeline kept tracking the ~10 ms waveform as
			// congestion through the shutdown.
			pipeDown.Queue.SetBufferDrain(phase2, 12500*time.Microsecond)
			pipeUp.Queue.SetBufferDrain(phase2, 12500*time.Microsecond)
		}})

	_, ghanatelFar := b.Transit(content, ghanatel, pipeDown, pipeUp)
	vp.CaseLinks["GIXA-GHANATEL"] = prober.LinkTarget{Near: vp.NearAddr, Far: ghanatelFar}

	w.AddEvent(Event{At: shutdown, Name: "GIXA–GHANATEL link shut down",
		Apply: func(w *World) { w.Net.InvalidateRoutes() }})
	// Early October: the IXP buys 620 Mbps transit from an
	// intercontinental ISP; GHANATEL disappears from the control
	// plane; members must now register (more churn below).
	w.AddEvent(Event{At: simclock.Date(2016, time.October, 10),
		Name: "GIXA switches to 620 Mbps intercontinental transit",
		Apply: func(w *World) {
			w.Graph.RemoveLink(content.ASN, ghanatel.ASN)
			intercont := b.AddAS(b.AllocASN(), "intercont", "ICGGC", "pt", "lisbon")
			b.Transit(intercont, b.ICRef, nil, nil)
			b.Transit(content, intercont, nil, nil)
			w.Net.InvalidateRoutes()
		}})

	w.Interviews.Add(&interview.Annotation{
		VP: "VP1", Target: vp.CaseLinks["GIXA-GHANATEL"],
		NearName: "GIXA", FarName: "GHANATEL",
		CongestedTruth: true, Class: analysis.Sustained, OperatorConfirmed: true,
		Phases: []interview.Phase{
			{Interval: simclock.Interval{Start: 0, End: phase2},
				Cause: interview.CauseTransitUnderprovisioned,
				Note:  "100 Mbps transit feeding the GGC; clients on a separate 1 Gbps peering link"},
			{Interval: simclock.Interval{Start: phase2, End: shutdown},
				Cause: interview.CausePeeringDispute,
				Note:  "transit shut off to force the IXP to pay; link repurposed for peering"},
		}})

	// --- Case study: GIXA–KNET (member port, joins 2016-06-29). ---
	knet := b.AddAS(ASKnet, "knet", "KNET-GH", "gh", "accra")
	b.Transit(knet, ghTransit, nil, nil)
	knetOnset := simclock.Date(2016, time.August, 6)
	// Mild overload (peak ≈ 1.035×C) keeps the measured loss in the
	// paper's "average 0.1 %, no customer complaints" regime while the
	// ~2-hour daily saturation produces the 18 ms plateau.
	// Low load noise matters here: with the peak only ~5 % above
	// capacity, minute-scale dips below line rate drain the shallow
	// queue entirely and the min-filter would erase the event.
	knetLoad := trafficmodel.NewSchedule(trafficmodel.Constant(0.2*1e9)).
		At(knetOnset, trafficmodel.Diurnal{
			BaseBps: 0.45 * 1e9, PeakBps: 1.05 * 1e9, PeakHour: 15, Width: 3.0,
			DayJitterFrac: 0.025, NoiseFrac: 0.015, Seed: b.World.Seed ^ 0xE1,
		}.Load())
	knetPort := congestedPort(1e9, 18*time.Millisecond, knetLoad)
	b.JoinEvent(knet, x, simclock.Date(2016, time.June, 29),
		PortSpec{FromFabric: knetPort},
		func(addr netaddr.Addr) {
			vp.CaseLinks["GIXA-KNET"] = prober.LinkTarget{Near: vp.NearAddr, Far: addr}
			w.Interviews.Add(&interview.Annotation{
				VP: "VP1", Target: vp.CaseLinks["GIXA-KNET"],
				NearName: "GIXA", FarName: "KNET",
				CongestedTruth: true, Class: analysis.Sustained, OperatorConfirmed: false,
				Phases: []interview.Phase{{
					Interval: simclock.Interval{Start: knetOnset, End: simclock.LatencyEnd},
					Cause:    interview.CauseUnknownExternal,
					Note:     "KNET denies congestion; avg loss 0.1% — router overload or content-network link",
				}}})
		})

	// --- Ordinary members with churn matching Table 2's decline. ---
	var specs []memberSpec
	for i := 0; i < 10; i++ {
		s := memberSpec{name: fmt.Sprintf("ghisp%02d", i), cc: "gh", city: "accra",
			transit: ghTransit}
		switch {
		case i < 5: // commercialization pressure: spring departures
			s.leaveAt = simclock.Date(2016, time.May, 15).Add(time.Duration(i) * 5 * 24 * time.Hour)
		case i == 5: // content network commercialized in October
			s.leaveAt = simclock.Date(2016, time.October, 12)
		case i == 6:
			s.leaveAt = simclock.Date(2016, time.October, 20)
		}
		specs = append(specs, s)
	}
	// Two noisy members complete the Table 1 VP1 row (4 flagged at
	// 5/10 ms, 3 at 15, 2 at 20: GHANATEL≈28, KNET≈17.5, plus ~11 and
	// ~25 ms slow-ICMP levels).
	specs = append(specs,
		memberSpec{name: "ghnoise0", cc: "gh", city: "accra", transit: ghTransit,
			port: PortSpec{SlowICMPLevel: 11.5}},
		memberSpec{name: "ghnoise1", cc: "gh", city: "kumasi", transit: ghTransit,
			port: PortSpec{SlowICMPLevel: 26}},
	)
	b.populate(x, specs)
}

// ------------------------------------------------------------------
// VP2 — TIX, Tanzania (content-network VP).
// ------------------------------------------------------------------
func buildTIX(b *Builder, opts Options, transit *AS) {
	w := b.World
	x := b.AddIXP("TIX", "tz", "East Africa", "daressalaam", 2004, ASTix, false)
	content := b.AddAS(ASTix, "tix", "TIX", "tz", "daressalaam")
	b.JoinIXP(content, x, PortSpec{})
	b.Transit(content, transit, nil, nil)
	vp := b.AddVP("VP2", "tix-tz", content, "TIX")

	// Two transiently congested member ports, mitigated mid-October
	// (upgrades), so the 16/11 snapshot shows zero congested links.
	mitigate := simclock.Date(2016, time.October, 15)
	for i, mag := range []simclock.Duration{22 * time.Millisecond, 16 * time.Millisecond} {
		capBps := 200e6
		load := trafficmodel.Diurnal{
			BaseBps: 0.5 * capBps, PeakBps: 1.25 * capBps, PeakHour: float64(13 + i),
			Width: 2.2, WeekendFactor: 0.6, DayJitterFrac: 0.1, NoiseFrac: 0.06,
			Seed: b.World.Seed ^ uint64(0xF1+i),
		}
		port := &netsim.Pipe{Prop: 150 * time.Microsecond,
			Queue: QueueWithPackets(capBps, mag, load.Load())}
		a := b.AddAS(b.AllocASN(), fmt.Sprintf("tzcong%d", i), orgOf("tzcong"), "tz", "daressalaam")
		b.Transit(a, transit, nil, nil)
		addr := b.JoinIXP(a, x, PortSpec{FromFabric: port})
		target := prober.LinkTarget{Near: vp.NearAddr, Far: addr}
		vp.CaseLinks[fmt.Sprintf("TIX-CONG%d", i)] = target
		q := port.Queue
		w.AddEvent(Event{At: mitigate, Name: fmt.Sprintf("TIX member %d port upgraded", i),
			Apply: func(w *World) { q.SetCapacity(mitigate, 10*capBps) }})
		w.Interviews.Add(&interview.Annotation{
			VP: "VP2", Target: target, NearName: "TIX", FarName: w.Graph.Name(a.ASN),
			CongestedTruth: true, Class: analysis.Transient, OperatorConfirmed: true,
			Phases: []interview.Phase{{
				Interval: simclock.Interval{Start: 0, End: mitigate},
				Cause:    interview.CausePortUnderprovisioned,
				Note:     "member port upgraded mid-October",
			}}})
	}

	// Noise population tuned to Table 1 VP2 (6/5/4/3).
	specs := b.noiseSpecs("tznoise", "tz", "daressalaam", transit, []noiseBand{
		{count: 1, loMs: 6.5, hiMs: 8.5},
		{count: 2, loMs: 11, hiMs: 13.5},
		{count: 1, loMs: 26, hiMs: 38},
	})
	// Ordinary members: ~24 more at start (31 neighbors total with
	// transit + congested + noise), one spring departure, six
	// September/October joiners (the 16/11 snapshot shows growth).
	for i := 0; i < 24; i++ {
		s := memberSpec{name: fmt.Sprintf("tzisp%02d", i), cc: "tz", city: "daressalaam",
			transit: transit}
		if i == 0 {
			s.leaveAt = simclock.Date(2016, time.May, 20)
		}
		specs = append(specs, s)
	}
	for i := 0; i < 6; i++ {
		specs = append(specs, memberSpec{
			name: fmt.Sprintf("tznew%02d", i), cc: "tz", city: "daressalaam",
			transit: transit,
			joinAt:  simclock.Date(2016, time.September, 10).Add(time.Duration(i) * 6 * 24 * time.Hour)})
	}
	b.populate(x, specs)
}

// ------------------------------------------------------------------
// VP3 — JINX, South Africa (content-network VP).
// ------------------------------------------------------------------
func buildJINX(b *Builder, opts Options, transit *AS) {
	w := b.World
	x := b.AddIXP("JINX", "za", "Southern Africa", "johannesburg", 1996, ASJinx, false)
	content := b.AddAS(ASJinx, "jinx", "JINX", "za", "johannesburg")
	b.JoinIXP(content, x, PortSpec{})
	b.Transit(content, transit, nil, nil)
	vp := b.AddVP("VP3", "jinx-za", content, "JINX")

	// One transiently congested member port, gone by September (the
	// 27/07 snapshot shows 1 congested link, the later ones 0).
	capBps := 500e6
	mitigate := simclock.Date(2016, time.September, 1)
	load := trafficmodel.Diurnal{
		BaseBps: 0.5 * capBps, PeakBps: 1.2 * capBps, PeakHour: 20, Width: 2,
		WeekendFactor: 0.7, DayJitterFrac: 0.1, NoiseFrac: 0.05, Seed: b.World.Seed ^ 0xF8,
	}
	port := &netsim.Pipe{Prop: 150 * time.Microsecond,
		Queue: QueueWithPackets(capBps, 18*time.Millisecond, load.Load())}
	cong := b.AddAS(b.AllocASN(), "zacong0", orgOf("zacong"), "za", "johannesburg")
	b.Transit(cong, transit, nil, nil)
	addr := b.JoinIXP(cong, x, PortSpec{FromFabric: port})
	target := prober.LinkTarget{Near: vp.NearAddr, Far: addr}
	vp.CaseLinks["JINX-CONG0"] = target
	q := port.Queue
	w.AddEvent(Event{At: mitigate, Name: "JINX member port upgraded",
		Apply: func(w *World) { q.SetCapacity(mitigate, 10*capBps) }})
	w.Interviews.Add(&interview.Annotation{
		VP: "VP3", Target: target, NearName: "JINX", FarName: "zacong0",
		CongestedTruth: true, Class: analysis.Transient, OperatorConfirmed: true,
		Phases: []interview.Phase{{
			Interval: simclock.Interval{Start: 0, End: mitigate},
			Cause:    interview.CausePortUnderprovisioned,
		}}})

	// Noise bands shaped after Table 1 VP3 (80/56/48/40).
	specs := b.noiseSpecs("zanoise", "za", "johannesburg", transit, []noiseBand{
		{count: opts.scaled(14), loMs: 6, hiMs: 9},
		{count: opts.scaled(8), loMs: 11, hiMs: 14},
		{count: opts.scaled(8), loMs: 16, hiMs: 19},
		{count: opts.scaled(28), loMs: 22, hiMs: 45},
	})
	for i := 0; i < opts.scaled(12); i++ {
		specs = append(specs, memberSpec{name: fmt.Sprintf("zaisp%02d", i),
			cc: "za", city: "johannesburg", transit: transit})
	}
	// Ten later joiners (32 → 42 neighbors between snapshots).
	for i := 0; i < opts.scaled(10); i++ {
		specs = append(specs, memberSpec{name: fmt.Sprintf("zanew%02d", i),
			cc: "za", city: "johannesburg", transit: transit,
			joinAt: simclock.Date(2016, time.August, 15).Add(time.Duration(i) * 7 * 24 * time.Hour)})
	}
	b.populate(x, specs)
}

// ------------------------------------------------------------------
// VP4 — SIXP, Gambia (member VP inside QCell).
// ------------------------------------------------------------------
func buildSIXP(b *Builder, opts Options, transit *AS) {
	w := b.World
	x := b.AddIXP("SIXP", "gm", "West Africa", "serekunda", 2014, ASSixp, false)
	ixpNet := b.AddAS(ASSixp, "sixp", "SIXP", "gm", "serekunda")
	b.JoinIXP(ixpNet, x, PortSpec{})

	qcell := b.AddAS(ASQcell, "qcell", "QCELL-GM", "gm", "serekunda")
	b.Transit(qcell, transit, nil, nil)
	b.JoinIXP(qcell, x, PortSpec{})
	vp := b.AddVP("VP4", "sixp-gm", qcell, "SIXP")

	// --- Case study: QCELL–NETPAGE (10 Mbps port → 1 Gbps). ---
	// NETPAGE's users pull Google content cached behind QCell; the
	// 10 Mbps port saturates daily (35 ms weekday spikes, ~15 ms
	// weekends via the near-saturation regime) until the 28/04
	// upgrade.
	const capBps = 10e6
	upgrade := simclock.Date(2016, time.April, 28)
	load := trafficmodel.Diurnal{
		BaseBps: 0.35 * capBps, PeakBps: 1.15 * capBps, PeakHour: 13.5, Width: 2.8,
		WeekendFactor: 0.72, DayJitterFrac: 0.08, NoiseFrac: 0.05, Seed: b.World.Seed ^ 0xA7,
	}
	port := &netsim.Pipe{Prop: 200 * time.Microsecond,
		Queue: QueueWithPackets(capBps, 35*time.Millisecond, load.Load())}
	netpage := b.AddAS(b.AllocASN(), "netpage", "NETPAGE-GM", "gm", "serekunda")
	b.Transit(netpage, transit, nil, nil)
	netpageAddr := b.JoinIXP(netpage, x, PortSpec{FromFabric: port})
	vp.CaseLinks["QCELL-NETPAGE"] = prober.LinkTarget{Near: vp.NearAddr, Far: netpageAddr}
	upgradeBps := opts.NetpageUpgradeBps
	if upgradeBps <= 0 {
		upgradeBps = 1e9
	}
	npq := port.Queue
	w.AddEvent(Event{At: upgrade,
		Name:  fmt.Sprintf("NETPAGE upgrades SIXP port 10 Mbps → %.0f Mbps", upgradeBps/1e6),
		Apply: func(w *World) { npq.SetCapacity(upgrade, upgradeBps) }})
	w.Interviews.Add(&interview.Annotation{
		VP: "VP4", Target: vp.CaseLinks["QCELL-NETPAGE"],
		NearName: "QCELL", FarName: "NETPAGE",
		CongestedTruth: true, Class: analysis.Transient, OperatorConfirmed: true,
		Phases: []interview.Phase{{
			Interval: simclock.Interval{Start: 0, End: upgrade},
			Cause:    interview.CausePortUnderprovisioned,
			Note:     "huge GGC demand; link upgraded on 2016-04-28 at NETPAGE's request",
		}}})

	// Other members + the VP4 noise link (Table 1: 2/1/0/0 — NETPAGE
	// ~10.7 plus one ~6 ms level).
	specs := []memberSpec{
		{name: "gmnoise0", cc: "gm", city: "banjul", transit: transit,
			port: PortSpec{SlowICMPLevel: 6}},
	}
	for i := 0; i < 3; i++ {
		s := memberSpec{name: fmt.Sprintf("gmisp%02d", i), cc: "gm", city: "serekunda",
			transit: transit}
		if i < 2 { // spring departures: 7 → 4 neighbors by July
			s.leaveAt = simclock.Date(2016, time.June, 1).Add(time.Duration(i) * 10 * 24 * time.Hour)
		}
		specs = append(specs, s)
	}
	// Two August joiners: 4 → 6 by the 07/09 snapshot.
	for i := 0; i < 2; i++ {
		specs = append(specs, memberSpec{name: fmt.Sprintf("gmnew%02d", i),
			cc: "gm", city: "serekunda", transit: transit,
			joinAt: simclock.Date(2016, time.August, 5).Add(time.Duration(i) * 6 * 24 * time.Hour)})
	}
	b.populate(x, specs)
}

// ------------------------------------------------------------------
// VP5 — KIXP, Kenya (member VP inside Liquid Telecom).
// ------------------------------------------------------------------
func buildKIXP(b *Builder, opts Options, ic1, ic2 *AS) {
	x := b.AddIXP("KIXP", "ke", "East Africa", "nairobi", 2002, ASKixp, false)
	ixpNet := b.AddAS(ASKixp, "kixp", "KIXP", "ke", "nairobi")
	b.JoinIXP(ixpNet, x, PortSpec{})

	liquid := b.AddAS(ASLiquid, "liquid", "LIQUID-KE", "ke", "nairobi")
	b.Transit(liquid, ic1, nil, nil)
	b.Transit(liquid, ic2, nil, nil)
	b.JoinIXP(liquid, x, PortSpec{})
	b.AddVP("VP5", "kixp-ke", liquid, "KIXP")

	// Initial KIXP peers (the 11/03 snapshot shows 4).
	for i := 0; i < 3; i++ {
		a := b.AddAS(b.AllocASN(), fmt.Sprintf("keisp%02d", i), orgOf("keisp"), "ke", "nairobi")
		b.Transit(a, ic1, nil, nil)
		b.JoinIXP(a, x, PortSpec{})
	}
	// Strong membership growth through the campaign (the paper's VP5
	// snapshot growth from 4 to ~200 peers, scaled).
	for i := 0; i < opts.scaled(46); i++ {
		a := b.AddAS(b.AllocASN(), fmt.Sprintf("kenew%02d", i), orgOf("kenew"), "ke", "nairobi")
		b.Transit(a, ic2, nil, nil)
		b.JoinEvent(a, x, simclock.Date(2016, time.July, 1).Add(time.Duration(i)*5*24*time.Hour),
			PortSpec{}, nil)
	}

	// Liquid's transit customers: the bulk of VP5's discovered links.
	// Their border routers answer ICMP from a slow control plane in
	// random regimes — level shifts, no diurnal pattern: Table 1's
	// 147/147/147/146 row (one borderline level in [16,18) ms).
	nCust := opts.scaled(146)
	for i := 0; i < nCust; i++ {
		a := b.AddAS(b.AllocASN(), fmt.Sprintf("kecust%03d", i), orgOf("kecust"), "ke", "nairobi")
		u := HashUnit(b.World.Seed^0x5E5, uint64(i))
		b.transitFromCustomerSpace(a, liquid)
		a.Border.ICMPDelay = slowICMP(b.World.Seed^uint64(a.ASN), 25+u*20)
	}
	border := b.AddAS(b.AllocASN(), "kecust-borderline", orgOf("kecust"), "ke", "nairobi")
	b.transitFromCustomerSpace(border, liquid)
	border.Border.ICMPDelay = slowICMP(b.World.Seed^uint64(border.ASN), 17)

}

// ------------------------------------------------------------------
// VP6 — RINEX, Rwanda (member VP inside RDB).
// ------------------------------------------------------------------
func buildRINEX(b *Builder, opts Options, transit *AS) {
	x := b.AddIXP("RINEX", "rw", "East Africa", "kigali", 2004, ASRinex, false)
	ixpNet := b.AddAS(ASRinex, "rinex", "RINEX", "rw", "kigali")
	b.JoinIXP(ixpNet, x, PortSpec{})

	rdb := b.AddAS(ASRdb, "rdb", "RDB-RW", "rw", "kigali")
	b.Transit(rdb, transit, nil, nil)
	b.JoinIXP(rdb, x, PortSpec{})
	b.AddVP("VP6", "rinex-rw", rdb, "RINEX")

	// One settled peer at the exchange (the paper's "9 (1)" row).
	peer := b.AddAS(b.AllocASN(), "rwisp00", orgOf("rwisp"), "rw", "kigali")
	b.Transit(peer, transit, nil, nil)
	b.JoinIXP(peer, x, PortSpec{})

	// RDB's government/customer links carry the VP6 noise population
	// shaped after Table 1 (100/88/88/71): 12 levels in [6,9), 17 in
	// [15.5,19), 71 in [22,45).
	bands := []noiseBand{
		{count: opts.scaled(12), loMs: 6, hiMs: 9},
		{count: opts.scaled(17), loMs: 15.5, hiMs: 19},
		{count: opts.scaled(71), loMs: 22, hiMs: 45},
	}
	idx := 0
	for bi, band := range bands {
		for i := 0; i < band.count; i++ {
			u := HashUnit(b.World.Seed^0x6E6^uint64(bi)<<10, uint64(idx))
			level := band.loMs + u*(band.hiMs-band.loMs)
			a := b.AddAS(b.AllocASN(), fmt.Sprintf("rwcust%03d", idx), orgOf("rwcust"), "rw", "kigali")
			b.transitFromCustomerSpace(a, rdb)
			a.Border.ICMPDelay = slowICMP(b.World.Seed^uint64(a.ASN), level)
			idx++
		}
	}
}
