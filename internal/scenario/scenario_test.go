package scenario

import (
	"bytes"
	"testing"
	"time"

	"afrixp/internal/analysis"
	"afrixp/internal/bdrmap"
	"afrixp/internal/ixpdir"
	"afrixp/internal/prober"
	"afrixp/internal/registry"
	"afrixp/internal/simclock"
)

// smallWorld builds the paper world at reduced scale for fast tests.
func smallWorld(t testing.TB) *World {
	t.Helper()
	return Paper(Options{Seed: 1, Scale: 0.15})
}

func bdrCfg(w *World, vp *VP) bdrmap.Config {
	return bdrmap.Config{
		BGP:      w.BGP,
		Rels:     w.Graph,
		RIR:      registry.NewIndex(w.RIRFile),
		IXP:      ixpdir.NewIndex(w.Directory),
		Siblings: vp.Siblings,
	}
}

func TestWorldConstructs(t *testing.T) {
	w := smallWorld(t)
	if len(w.VPs) != 6 {
		t.Fatalf("VPs = %d", len(w.VPs))
	}
	if len(w.IXPs) != 6 {
		t.Fatalf("IXPs = %d", len(w.IXPs))
	}
	for _, name := range []string{"GIXA", "TIX", "JINX", "SIXP", "KIXP", "RINEX"} {
		if _, ok := w.IXPs[name]; !ok {
			t.Fatalf("missing IXP %s", name)
		}
	}
	if len(w.RIRFile.Delegations) == 0 || len(w.Directory.IXPs) != 6 {
		t.Fatal("datasets empty")
	}
	if len(w.Interviews.All()) < 5 {
		t.Fatalf("annotations = %d", len(w.Interviews.All()))
	}
}

func TestVPCaseLinksWired(t *testing.T) {
	w := smallWorld(t)
	vp1, _ := w.VPByID("VP1")
	if _, ok := vp1.CaseLinks["GIXA-GHANATEL"]; !ok {
		t.Fatal("GIXA-GHANATEL case link missing")
	}
	// KNET joins 2016-06-29; its case link appears with the event.
	if _, ok := vp1.CaseLinks["GIXA-KNET"]; ok {
		t.Fatal("KNET link must not exist before its join event")
	}
	w.AdvanceTo(simclock.Date(2016, time.July, 1))
	if _, ok := vp1.CaseLinks["GIXA-KNET"]; !ok {
		t.Fatal("KNET link missing after join event")
	}
	vp4, _ := w.VPByID("VP4")
	if _, ok := vp4.CaseLinks["QCELL-NETPAGE"]; !ok {
		t.Fatal("QCELL-NETPAGE case link missing")
	}
}

func TestBdrmapDiscoversNeighborsPerVP(t *testing.T) {
	w := smallWorld(t)
	for _, vp := range w.VPs {
		p := prober.New(w.Net, vp.Node, prober.Config{Name: vp.Monitor})
		res, err := bdrmap.Run(p, bdrCfg(w, vp), 0)
		if err != nil {
			t.Fatalf("%s: %v", vp.ID, err)
		}
		truth := w.TruthNeighbors(vp)
		frac, missed, _ := bdrmap.ValidateNeighbors(res, truth)
		if frac < 0.9 {
			t.Fatalf("%s: coverage %.2f (missed %v of %d)", vp.ID, frac, missed, len(truth))
		}
	}
}

func TestGhanatelCongestionDetected(t *testing.T) {
	w := smallWorld(t)
	vp1, _ := w.VPByID("VP1")
	p := prober.New(w.Net, vp1.Node, prober.Config{Name: vp1.Monitor})
	ts, err := p.NewTSLP(vp1.CaseLinks["GIXA-GHANATEL"])
	if err != nil {
		t.Fatal(err)
	}
	// Probe 3 weeks of phase 1.
	start := simclock.Date(2016, time.March, 3)
	campaign := simclock.Interval{Start: start, End: start.Add(21 * 24 * time.Hour)}
	col := analysis.NewCollector(ts, analysis.CollectorConfig{Campaign: campaign})
	w.AdvanceTo(start)
	campaign.Steps(5*time.Minute, func(tm simclock.Time) {
		w.AdvanceTo(tm)
		col.Round(tm)
	})
	v := analysis.NewSweeper().AnalyzeLink(col.Series(), analysis.DefaultConfig())
	if !v.Congested {
		t.Fatalf("GHANATEL phase 1 not detected: flagged=%v nearFlat=%v diurnal=%+v",
			v.Flagged, v.NearFlat, v.Diurnal)
	}
	if v.AW < 15 || v.AW > 55 {
		t.Fatalf("A_w = %.1f ms, want tens of ms", v.AW)
	}
}

func TestGhanatelShutdownKillsFarProbes(t *testing.T) {
	w := smallWorld(t)
	vp1, _ := w.VPByID("VP1")
	p := prober.New(w.Net, vp1.Node, prober.Config{Name: vp1.Monitor})
	ts, err := p.NewTSLP(vp1.CaseLinks["GIXA-GHANATEL"])
	if err != nil {
		t.Fatal(err)
	}
	after := simclock.Date(2016, time.August, 10)
	w.AdvanceTo(after)
	s := ts.Round(after)
	if !s.FarLost {
		t.Fatal("far probes must fail after the 2016-08-06 shutdown")
	}
}

func TestNetpageUpgradeClearsCongestion(t *testing.T) {
	w := smallWorld(t)
	vp4, _ := w.VPByID("VP4")
	p := prober.New(w.Net, vp4.Node, prober.Config{Name: vp4.Monitor})
	ts, err := p.NewTSLP(vp4.CaseLinks["QCELL-NETPAGE"])
	if err != nil {
		t.Fatal(err)
	}
	// Peak-hour sample in phase 1 (a Wednesday at 13:30).
	ph1 := simclock.At(time.Date(2016, time.March, 9, 13, 30, 0, 0, time.UTC))
	w.AdvanceTo(ph1)
	s1 := ts.Round(ph1)
	if s1.FarLost || s1.FarRTT < 20*time.Millisecond {
		t.Fatalf("phase-1 peak far RTT = %v (lost=%v), want ≥20ms", s1.FarRTT, s1.FarLost)
	}
	if s1.NearLost || s1.NearRTT > 5*time.Millisecond {
		t.Fatalf("near RTT = %v", s1.NearRTT)
	}
	// Same time of day after the 2016-04-28 upgrade.
	ph2 := simclock.At(time.Date(2016, time.May, 11, 13, 30, 0, 0, time.UTC))
	w.AdvanceTo(ph2)
	s2 := ts.Round(ph2)
	if s2.FarLost || s2.FarRTT > 10*time.Millisecond {
		t.Fatalf("phase-2 far RTT = %v (lost=%v), want <10ms", s2.FarRTT, s2.FarLost)
	}
}

func TestMembershipChurnChangesNeighbors(t *testing.T) {
	w := smallWorld(t)
	vp1, _ := w.VPByID("VP1")
	n0 := len(w.TruthNeighbors(vp1))
	w.AdvanceTo(simclock.Date(2016, time.November, 15))
	n1 := len(w.TruthNeighbors(vp1))
	if n1 >= n0 {
		t.Fatalf("VP1 neighbors should decline: %d → %d", n0, n1)
	}
	vp2, _ := w.VPByID("VP2")
	// Advance already applied; TIX gained members in the autumn.
	if len(w.TruthNeighbors(vp2)) <= 2 {
		t.Fatal("VP2 lost its neighbors")
	}
}

func TestAdvanceToBackwardsPanics(t *testing.T) {
	w := smallWorld(t)
	w.AdvanceTo(simclock.Date(2016, time.June, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.AdvanceTo(simclock.Date(2016, time.March, 1))
}

func TestDeterminism(t *testing.T) {
	w1 := Paper(Options{Seed: 7, Scale: 0.1})
	w2 := Paper(Options{Seed: 7, Scale: 0.1})
	vpA, _ := w1.VPByID("VP4")
	vpB, _ := w2.VPByID("VP4")
	pA := prober.New(w1.Net, vpA.Node, prober.Config{})
	pB := prober.New(w2.Net, vpB.Node, prober.Config{})
	tsA, errA := pA.NewTSLP(vpA.CaseLinks["QCELL-NETPAGE"])
	tsB, errB := pB.NewTSLP(vpB.CaseLinks["QCELL-NETPAGE"])
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	for d := 0; d < 3; d++ {
		at := simclock.Date(2016, time.March, 7).Add(time.Duration(d) * 13 * time.Hour)
		w1.AdvanceTo(at)
		w2.AdvanceTo(at)
		sA, sB := tsA.Round(at), tsB.Round(at)
		if sA != sB {
			t.Fatalf("same seed diverged at %v: %+v vs %+v", at, sA, sB)
		}
	}
}

func TestSlowICMPMembersExist(t *testing.T) {
	w := smallWorld(t)
	n := 0
	for _, node := range w.Net.Nodes() {
		if node.ICMPDelay != nil {
			n++
		}
	}
	if n < 20 {
		t.Fatalf("slow-ICMP population = %d, want dozens even at small scale", n)
	}
}

// TestAddEventMidCampaign pins that events inserted after the world
// has already applied part of its schedule land in order, without
// disturbing the applied prefix.
func TestAddEventMidCampaign(t *testing.T) {
	w := &World{}
	var log []string
	ev := func(name string, at simclock.Time) Event {
		return Event{At: at, Name: name, Apply: func(*World) { log = append(log, name) }}
	}
	w.AddEvent(ev("a", simclock.Time(10)))
	w.AddEvent(ev("c", simclock.Time(30)))
	w.AdvanceTo(simclock.Time(20)) // applies a
	// Mid-campaign inserts: one between the clock and the pending
	// event, one exactly at the clock (allowed boundary).
	w.AddEvent(ev("b", simclock.Time(25)))
	w.AddEvent(ev("d", simclock.Time(20)))
	w.AdvanceTo(simclock.Time(40))
	want := []string{"a", "d", "b", "c"}
	if len(log) != len(want) {
		t.Fatalf("applied %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("applied %v, want %v", log, want)
		}
	}
	if n := len(w.PendingEvents()); n != 0 {
		t.Fatalf("%d events still pending", n)
	}
}

// TestAddEventInPastPanics is the regression test for the ordering
// bug: the old full-slice re-sort let a past-dated event slide before
// the applied prefix, re-applying an already-applied event and never
// running the new one. Such inserts must refuse loudly instead.
func TestAddEventInPastPanics(t *testing.T) {
	w := &World{}
	w.AddEvent(Event{At: simclock.Time(10), Name: "a", Apply: func(*World) {}})
	w.AdvanceTo(simclock.Time(100))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.AddEvent(Event{At: simclock.Time(50), Name: "late", Apply: func(*World) {}})
}

// TestBuildPaperRejectsOverfullLAN checks the paper builder's
// peering-LAN capacity check: at Scale 10 JINX's bulk population
// outgrows its /24 and BuildPaper reports it instead of panicking,
// while a world that fits builds exactly as Paper builds it.
func TestBuildPaperRejectsOverfullLAN(t *testing.T) {
	w, err := BuildPaper(Options{Scale: 10})
	full, ok := err.(*LANFullError)
	if !ok || w != nil {
		t.Fatalf("Scale 10: got world %v, error %v; want a *LANFullError", w != nil, err)
	}
	if full.IXP != "JINX" || full.LAN.NumAddrs() != 256 || full.Ports != 246 {
		t.Fatalf("Scale 10: %+v, want JINX's /24 full at 246 ports", full)
	}

	var got, want bytes.Buffer
	w, err = BuildPaper(Options{Scale: 2})
	if err != nil {
		t.Fatalf("Scale 2: %v", err)
	}
	if err := w.Net.DumpTopology(&got); err != nil {
		t.Fatal(err)
	}
	if err := Paper(Options{Scale: 2}).Net.DumpTopology(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("BuildPaper's world differs from Paper's")
	}
}

// TestScheduledJoinsReserveLANPorts checks that scheduled IXP joins
// count against the peering LAN at build time: static members plus
// scheduled joins that overflow a /24 (246 member ports) fail with a
// *LANFullError when the join is scheduled, never later when it
// applies mid-campaign; a set that exactly fills the LAN builds and
// every join applies.
func TestScheduledJoinsReserveLANPorts(t *testing.T) {
	const static, scheduled = 240, 6
	build := func() (*Builder, *IXPInfo) {
		g := NewBuilder(BuilderConfig{Seed: 1})
		x := g.AddIXP("TIX", "tz", "east", "daressalaam", 2004, g.AllocASN(), false)
		for i := 0; i < static; i++ {
			g.JoinIXP(g.AddAS(g.AllocASN(), "m", "M", "tz", "daressalaam"), x, PortSpec{})
		}
		for i := 0; i < scheduled; i++ {
			g.JoinEvent(g.AddAS(g.AllocASN(), "j", "J", "tz", "daressalaam"), x,
				simclock.Time(time.Duration(i+1)*24*time.Hour), PortSpec{}, nil)
		}
		return g, x
	}
	lanFull := func(name string, overflow func()) {
		t.Helper()
		defer func() {
			full, ok := recover().(*LANFullError)
			if !ok || full.IXP != "TIX" || full.Ports != static+scheduled {
				t.Errorf("%s: recovered %+v, want TIX's LAN full at %d ports", name, full, static+scheduled)
			}
		}()
		overflow()
	}

	g, x := build()
	lanFull("scheduled join", func() {
		g.JoinEvent(g.AddAS(g.AllocASN(), "late", "L", "tz", "daressalaam"), x,
			simclock.Time(30*24*time.Hour), PortSpec{}, nil)
	})
	g, x = build()
	lanFull("static join", func() {
		g.JoinIXP(g.AddAS(g.AllocASN(), "late", "L", "tz", "daressalaam"), x, PortSpec{})
	})

	g, x = build()
	g.World.AdvanceTo(simclock.Time(10 * 24 * time.Hour))
	if len(x.Members) != static+scheduled || len(x.PeeringLAN.Attachments) != static+scheduled {
		t.Fatalf("%d members on %d ports after every join applied, want %d",
			len(x.Members), len(x.PeeringLAN.Attachments), static+scheduled)
	}
}
