package analysis

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"afrixp/internal/asrel"
	"afrixp/internal/bgpsim"
	"afrixp/internal/diurnal"
	"afrixp/internal/netaddr"
	"afrixp/internal/netsim"
	"afrixp/internal/prober"
	"afrixp/internal/queue"
	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
	"afrixp/internal/trafficmodel"
)

func ma(s string) netaddr.Addr   { return netaddr.MustParseAddr(s) }
func mp(s string) netaddr.Prefix { return netaddr.MustParsePrefix(s) }

// synth builds LinkSeries synthetically (30-min grid, `days` days).
func synth(days int, far func(t simclock.Time) float64, near func(t simclock.Time) float64) LinkSeries {
	return sealLink(synthVals(days, far, near))
}

// synthVals samples far and near on synth's grid, for callers that
// punch gaps before sealing.
func synthVals(days int, far func(t simclock.Time) float64, near func(t simclock.Time) float64) (fs, ns []float64) {
	n := days * 48
	fs, ns = make([]float64, n), make([]float64, n)
	for i := range fs {
		t := simclock.Time(time.Duration(i) * 30 * time.Minute)
		fs[i] = far(t)
		ns[i] = near(t)
	}
	return fs, ns
}

// sealLink seals synthVals grids as a link's series.
func sealLink(fs, ns []float64) LinkSeries {
	return LinkSeries{Near: timeseries.FromValues(0, 30*time.Minute, ns), Far: timeseries.FromValues(0, 30*time.Minute, fs)}
}

func diurnalFn(base, mag float64, from, to float64, noise float64, seed int64) func(simclock.Time) float64 {
	rng := rand.New(rand.NewSource(seed))
	return func(t simclock.Time) float64 {
		v := base
		if h := t.HourOfDay(); h >= from && h < to {
			v += mag
		}
		return v + math.Abs(noise*rng.NormFloat64())
	}
}

func flatFn(base, noise float64, seed int64) func(simclock.Time) float64 {
	rng := rand.New(rand.NewSource(seed))
	return func(simclock.Time) float64 {
		return base + math.Abs(noise*rng.NormFloat64())
	}
}

func TestCongestedLinkVerdict(t *testing.T) {
	ls := synth(21, diurnalFn(2, 25, 9, 17, 0.5, 1), flatFn(1, 0.3, 2))
	v := NewSweeper().AnalyzeLink(ls, DefaultConfig())
	if !v.Flagged || !v.NearFlat || !v.Diurnal.Diurnal || !v.Congested {
		t.Fatalf("verdict: %+v", v)
	}
	if v.Class != Sustained {
		t.Fatalf("class = %v, want sustained (events run to the end)", v.Class)
	}
	if v.AW < 20 || v.AW > 30 {
		t.Fatalf("A_w = %v", v.AW)
	}
	if v.DeltaTUD < 6*time.Hour || v.DeltaTUD > 10*time.Hour {
		t.Fatalf("Δt_UD = %v", v.DeltaTUD)
	}
}

func TestNearShiftDisqualifies(t *testing.T) {
	// Both ends shift together: congestion is upstream of the link.
	fn := diurnalFn(2, 25, 9, 17, 0.5, 3)
	fn2 := diurnalFn(2, 25, 9, 17, 0.5, 4)
	ls := synth(21, fn, fn2)
	v := NewSweeper().AnalyzeLink(ls, DefaultConfig())
	if v.NearFlat {
		t.Fatal("shifting near end must not be flat")
	}
	if v.Congested {
		t.Fatal("link must not be classified congested")
	}
	if !v.Flagged {
		t.Fatal("far end still qualifies as flagged")
	}
}

func TestNoisyRegimeLinkFlaggedNotCongested(t *testing.T) {
	// Slow-ICMP regimes: flagged by thresholding, rejected by the
	// diurnal filter — the VP5/VP6 population of Table 1.
	rng := rand.New(rand.NewSource(5))
	level := 2.0
	far := func(simclock.Time) float64 {
		if rng.Intn(70) == 0 {
			if level == 2 {
				level = 28
			} else {
				level = 2
			}
		}
		return level + math.Abs(0.4*rng.NormFloat64())
	}
	ls := synth(30, far, flatFn(1, 0.3, 6))
	v := NewSweeper().AnalyzeLink(ls, DefaultConfig())
	if !v.Flagged {
		t.Fatalf("regime noise should trip the threshold: %+v", v.Far.Events)
	}
	if v.Diurnal.Diurnal || v.Congested {
		t.Fatalf("regime noise must fail the diurnal test: %+v", v.Diurnal)
	}
}

func TestTransientClassification(t *testing.T) {
	// Congested for the first 10 of 40 days, then clean — the
	// QCELL–NETPAGE upgrade shape.
	cong := diurnalFn(2, 20, 9, 17, 0.4, 7)
	clean := flatFn(2, 0.4, 8)
	cut := simclock.Time(10 * 24 * time.Hour)
	far := func(tm simclock.Time) float64 {
		if tm < cut {
			return cong(tm)
		}
		return clean(tm)
	}
	ls := synth(40, far, flatFn(1, 0.3, 9))
	v := NewSweeper().AnalyzeLink(ls, DefaultConfig())
	if !v.Congested {
		t.Fatalf("phase-1 congestion missed: %+v", v)
	}
	if v.Class != Transient {
		t.Fatalf("class = %v, want transient", v.Class)
	}
}

func TestAsymmetryDisqualifies(t *testing.T) {
	ls := synth(21, diurnalFn(2, 25, 9, 17, 0.5, 10), flatFn(1, 0.3, 11))
	cfg := DefaultConfig()
	v := NewSweeper().AnalyzeLink(ls, cfg)
	if !v.Congested {
		t.Fatal("baseline must be congested")
	}
	// Re-run with the symmetry bit cleared by the caller.
	v2 := NewSweeper().AnalyzeLink(ls, cfg)
	v2.Symmetric = false
	v2.Congested = v2.Flagged && v2.NearFlat && v2.Diurnal.Diurnal && v2.Symmetric
	if v2.Congested {
		t.Fatal("asymmetric route must disqualify")
	}
}

func TestSummarize(t *testing.T) {
	verdicts := []Verdict{
		{Flagged: true, Diurnal: diurnal.Verdict{Diurnal: true}, Congested: true, Class: Sustained},
		{Flagged: true},
		{Flagged: false},
		{Flagged: true, Diurnal: diurnal.Verdict{Diurnal: true}, Congested: true, Class: Transient},
	}
	s := Summarize("VP1", verdicts)
	if s.Links != 4 || s.Flagged != 3 || s.FlaggedDiurnal != 2 || s.Congested != 2 {
		t.Fatalf("summary: %+v", s)
	}
	if s.Sustained != 1 || s.Transient != 1 {
		t.Fatalf("classes: %+v", s)
	}
}

// --- end-to-end collection over a live simulated link ---

type liveWorld struct {
	nw   *netsim.Network
	vp   *netsim.Node
	port *netsim.Pipe
	near netaddr.Addr
	far  netaddr.Addr
}

func buildLive(t testing.TB) *liveWorld {
	g := asrel.NewGraph()
	g.SetPeer(10, 20)
	bgp := bgpsim.New(g)
	bgp.Announce(10, mp("10.10.0.0/16"))
	bgp.Announce(20, mp("10.20.0.0/16"))
	nw := netsim.New(bgp, 21)
	vp := nw.AddNode("vp", 10)
	r1 := nw.AddNode("r1", 10)
	r2 := nw.AddNode("r2", 20)
	nw.ConnectLink(vp, r1, netsim.LinkSpec{Subnet: mp("10.10.0.0/30")})
	nw.SetGateway(vp, nw.Iface(vp.Ifaces[0]))
	lan := nw.AddLAN(mp("196.49.7.0/24"))
	nw.AttachToLAN(r1, lan, netsim.AttachSpec{Addr: ma("196.49.7.1")})
	port := &netsim.Pipe{Prop: 100 * time.Microsecond}
	nw.AttachToLAN(r2, lan, netsim.AttachSpec{Addr: ma("196.49.7.10"), FromFabric: port})
	return &liveWorld{nw: nw, vp: vp, port: port,
		near: ma("10.10.0.2"), far: ma("196.49.7.10")}
}

func TestCollectorEndToEnd(t *testing.T) {
	w := buildLive(t)
	w.port.Queue = queue.NewFluid(queue.Config{
		CapacityBps: 100e6, BufferDrain: 25 * time.Millisecond,
		Load: trafficmodel.Diurnal{BaseBps: 30e6, PeakBps: 130e6, PeakHour: 14,
			Width: 3, NoiseFrac: 0.05, Seed: 4}.Load(),
	})
	p := prober.New(w.nw, w.vp, prober.Config{})
	ts, err := p.NewTSLP(prober.LinkTarget{Near: w.near, Far: w.far})
	if err != nil {
		t.Fatal(err)
	}
	campaign := simclock.Interval{Start: 0, End: simclock.Time(21 * 24 * time.Hour)}
	figWindow := simclock.Interval{Start: 0, End: simclock.Time(2 * 24 * time.Hour)}
	col := NewCollector(ts, CollectorConfig{Campaign: campaign, FullResWindow: figWindow})
	campaign.Steps(5*time.Minute, col.Round)

	v := NewSweeper().AnalyzeLink(col.Series(), DefaultConfig())
	if !v.Congested {
		t.Fatalf("live congested link not detected: flagged=%v diurnal=%+v nearFlat=%v",
			v.Flagged, v.Diurnal, v.NearFlat)
	}
	if v.AW < 15 || v.AW > 30 {
		t.Fatalf("A_w = %v, want near the 25 ms buffer", v.AW)
	}
	fullNear, fullFar := col.FullRes()
	if fullNear.PresentCount() == 0 || fullFar.PresentCount() == 0 {
		t.Fatal("full-resolution window empty")
	}
	if fullFar.Len() != 2*288 {
		t.Fatalf("full-res window = %d slots", fullFar.Len())
	}
	if f := col.FarLossFraction(); f > 0.5 {
		t.Fatalf("far loss fraction = %v", f)
	}
}

func TestCollectorIdleLinkNotCongested(t *testing.T) {
	w := buildLive(t)
	p := prober.New(w.nw, w.vp, prober.Config{})
	ts, err := p.NewTSLP(prober.LinkTarget{Near: w.near, Far: w.far})
	if err != nil {
		t.Fatal(err)
	}
	campaign := simclock.Interval{Start: 0, End: simclock.Time(14 * 24 * time.Hour)}
	col := NewCollector(ts, CollectorConfig{Campaign: campaign})
	campaign.Steps(5*time.Minute, col.Round)
	if v := NewSweeper().AnalyzeLink(col.Series(), DefaultConfig()); v.Flagged || v.Congested {
		t.Fatalf("idle link flagged: %+v", v)
	}
}

func TestClassifyEmpty(t *testing.T) {
	if classify(nil, timeseries.FromValues(0, time.Minute, make([]float64, 10))) != NotCongested {
		t.Fatal("no events must be NotCongested")
	}
}

func TestClassificationString(t *testing.T) {
	if NotCongested.String() != "not-congested" || Transient.String() != "transient" ||
		Sustained.String() != "sustained" {
		t.Fatal("Classification strings wrong")
	}
}
