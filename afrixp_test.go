package afrixp

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"afrixp/internal/simclock"
)

// The public API is a thin facade over heavily-tested internal
// packages; these tests pin the facade behavior end to end.

func TestNewWorldAndVPs(t *testing.T) {
	w := NewWorld(WorldOptions{Seed: 1, Scale: 0.1})
	if len(w.VPs) != 6 {
		t.Fatalf("VPs = %d", len(w.VPs))
	}
	vp, ok := w.VPByID("VP1")
	if !ok || vp.IXP != "GIXA" {
		t.Fatalf("VP1: %+v", vp)
	}
	if _, ok := vp.CaseLinks["GIXA-GHANATEL"]; !ok {
		t.Fatal("case link missing")
	}
}

func TestDateHelpers(t *testing.T) {
	d := Date(2016, time.August, 6)
	if d.Wall().Format("2006-01-02") != "2016-08-06" {
		t.Fatalf("Date = %v", d.Wall())
	}
	if !Epoch().Equal(Date(2016, time.February, 22).Wall()) {
		t.Fatal("Epoch mismatch")
	}
	if CampaignEnd() <= d {
		t.Fatal("campaign end before August 2016")
	}
}

func TestProbeAndAnalyzeEndToEnd(t *testing.T) {
	w := NewWorld(WorldOptions{Seed: 2, Scale: 0.1})
	vp, _ := w.VPByID("VP4")
	p := NewProber(w, vp)
	ts, err := p.NewTSLP(vp.CaseLinks["QCELL-NETPAGE"])
	if err != nil {
		t.Fatal(err)
	}
	campaign := Interval{
		Start: Date(2016, time.March, 7),
		End:   Date(2016, time.March, 21),
	}
	col := NewCollector(ts, CollectorConfig{Campaign: campaign})
	campaign.Steps(5*time.Minute, func(tm Time) {
		w.AdvanceTo(tm)
		col.Round(tm)
	})
	v := NewSweeper().AnalyzeLink(col.Series(), DefaultAnalysisConfig())
	if !v.Congested {
		t.Fatalf("NETPAGE congestion not detected via the facade: %+v", v)
	}
}

func TestBorderMapFacade(t *testing.T) {
	w := NewWorld(WorldOptions{Seed: 3, Scale: 0.1})
	vp, _ := w.VPByID("VP2")
	res, err := BorderMap(w, vp, 0)
	if err != nil {
		t.Fatal(err)
	}
	frac, missed, _ := ValidateNeighbors(res, w.TruthNeighbors(vp))
	if frac < 0.9 {
		t.Fatalf("coverage %.2f, missed %v", frac, missed)
	}
}

func TestRunCampaignFacade(t *testing.T) {
	c := RunCampaign(CampaignConfig{
		Seed: 4, Scale: 0.08, Days: 10, StartOffsetDays: 14, DisableLoss: true,
	})
	if len(c.VPs) != 6 {
		t.Fatalf("VPs = %d", len(c.VPs))
	}
	var buf bytes.Buffer
	if err := Table1Report(c).Render(&buf); err != nil || buf.Len() == 0 {
		t.Fatal("Table1Report failed")
	}
	buf.Reset()
	if err := Table2Report(c).Render(&buf); err != nil || buf.Len() == 0 {
		t.Fatal("Table2Report failed")
	}
	if BdrmapAccuracy(c) < 0.85 {
		t.Fatalf("accuracy = %v", BdrmapAccuracy(c))
	}
	if _, frac := Headline(c); frac < 0 || frac > 0.5 {
		t.Fatalf("headline fraction = %v", frac)
	}
}

// TestEngineConfigGeneratedWorld pins the translation above Scale 1:
// a generated world's VPs, the shard count and a fault plan, as the
// budget sweep's base campaign needs them.
func TestEngineConfigGeneratedWorld(t *testing.T) {
	ecfg := CampaignConfig{Scale: 10, Shards: 2, Faults: true}.EngineConfig()
	if ecfg.BuildWorld == nil {
		t.Fatal("Scale 10 builds the authored paper world, want a generated one")
	}
	w := ecfg.BuildWorld()
	if len(w.VPs) == 0 || !strings.HasPrefix(w.VPs[0].ID, "GVP") {
		t.Fatalf("Scale 10 world has no generated VPs: %d VPs", len(w.VPs))
	}
	if ecfg.Shards != 2 {
		t.Fatalf("Shards = %d, want 2", ecfg.Shards)
	}
	if ecfg.Faults == nil {
		t.Fatal("Faults set but the engine config carries no fault plan")
	}
}

// TestCampaignWindow pins the days/offset → interval rule RunCampaign
// and the repro budget sweep share.
func TestCampaignWindow(t *testing.T) {
	day := simclock.Time(0).Add(24 * time.Hour)
	at := func(days int) simclock.Time { return simclock.Time(days) * day }
	for _, c := range []struct {
		days, off int
		want      Interval
	}{
		{0, 0, Interval{}},
		{7, 0, Interval{Start: 0, End: at(7)}},
		{4, 149, Interval{Start: at(149), End: at(153)}},
		{0, 14, Interval{Start: at(14), End: simclock.LatencyEnd}},
		{100000, 14, Interval{Start: at(14), End: simclock.LatencyEnd}},
	} {
		if got := CampaignWindow(c.days, c.off); got != c.want {
			t.Errorf("CampaignWindow(%d, %d) = %+v, want %+v", c.days, c.off, got, c.want)
		}
	}
}

func TestCampaignDeterminism(t *testing.T) {
	cfg := CampaignConfig{Seed: 9, Scale: 0.08, Days: 5, StartOffsetDays: 7, DisableLoss: true}
	a := RunCampaign(cfg)
	b := RunCampaign(cfg)
	ra, rb := Table1(a), Table1(b)
	if len(ra) != len(rb) {
		t.Fatal("row count differs")
	}
	for i := range ra {
		for _, thr := range []float64{5, 10, 15, 20} {
			if ra[i].Flagged[thr] != rb[i].Flagged[thr] {
				t.Fatalf("run diverged at %s/%v: %d vs %d",
					ra[i].VP, thr, ra[i].Flagged[thr], rb[i].Flagged[thr])
			}
		}
	}
}
