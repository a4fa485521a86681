package analysis

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"afrixp/internal/netaddr"
	"afrixp/internal/prober"
	"afrixp/internal/queue"
	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
	"afrixp/internal/trafficmodel"
	"afrixp/internal/warts"
)

// TestWartsReplayMatchesLiveAnalysis records a live campaign into a
// warts archive, replays it, and checks the replay reconstructs the
// live collector's grid bit for bit and reaches the identical verdict —
// the offline-analysis closed loop.
func TestWartsReplayMatchesLiveAnalysis(t *testing.T) {
	w := buildLive(t)
	w.port.Queue = queue.NewFluid(queue.Config{
		CapacityBps: 100e6, BufferDrain: 25 * time.Millisecond,
		Load: trafficmodel.Diurnal{BaseBps: 30e6, PeakBps: 130e6, PeakHour: 14,
			Width: 3, Seed: 4}.Load(),
	})
	var buf bytes.Buffer
	ww, err := warts.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p := prober.New(w.nw, w.vp, prober.Config{Name: "mon", Warts: ww})
	ts, err := p.NewTSLP(prober.LinkTarget{Near: w.near, Far: w.far})
	if err != nil {
		t.Fatal(err)
	}
	campaign := simclock.Interval{Start: 0, End: simclock.Time(14 * 24 * time.Hour)}
	col := NewCollector(ts, CollectorConfig{Campaign: campaign})
	campaign.Steps(5*time.Minute, col.Round)
	if err := ww.Flush(); err != nil {
		t.Fatal(err)
	}
	liveSeries := col.Series()
	live := NewSweeper().AnalyzeLink(liveSeries, DefaultConfig())
	if !live.Congested {
		t.Fatal("live analysis should detect congestion")
	}

	rd, err := warts.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := FromWarts(rd, campaign)
	if err != nil {
		t.Fatal(err)
	}
	vpLinks, ok := replayed["mon"]
	if !ok || len(vpLinks) != 1 {
		t.Fatalf("replay found %d VPs / %d links", len(replayed), len(vpLinks))
	}
	for target, ls := range vpLinks {
		if target.Near != w.near || target.Far != w.far {
			t.Fatalf("replayed target %v, want %v→%v", target, w.near, w.far)
		}
		if ls.Far.PresentCount() == 0 || ls.Near.PresentCount() == 0 {
			t.Fatal("replayed series empty")
		}
		for _, p := range []struct {
			name      string
			got, want *timeseries.Series
		}{{"near", ls.Near, liveSeries.Near}, {"far", ls.Far, liveSeries.Far}} {
			if p.got.Start != p.want.Start || p.got.Step != p.want.Step || p.got.Len() != p.want.Len() {
				t.Fatalf("%s grid %v/%v×%d, live %v/%v×%d", p.name,
					p.got.Start, p.got.Step, p.got.Len(), p.want.Start, p.want.Step, p.want.Len())
			}
			if !sameBits(seriesValues(p.got), seriesValues(p.want)) {
				t.Fatalf("%s series differs from the live collector's", p.name)
			}
		}
		if v := NewSweeper().AnalyzeLink(ls, DefaultConfig()); !reflect.DeepEqual(v, live) {
			t.Fatalf("replay verdict %+v\nlive verdict %+v", v, live)
		}
	}
}

// TestToWartsRoundTrip archives links whose RTTs are whole
// microseconds or random nanoseconds, with lost slots, and replays the
// archive: every slot comes back as the collected RTT truncated to the
// whole microseconds warts stores, bit for bit.
func TestToWartsRoundTrip(t *testing.T) {
	campaign := simclock.Interval{Start: 0, End: simclock.Time(10 * 24 * time.Hour)}
	n := campaign.NumSteps(DefaultAggStep)
	rng := rand.New(rand.NewSource(3))
	var buf bytes.Buffer
	ww, err := warts.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[prober.LinkTarget][2][]float64)
	for l, wholeMicros := range []bool{true, false} {
		target := prober.LinkTarget{Near: netaddr.AddrFrom4(10, 0, byte(l), 1), Far: netaddr.AddrFrom4(10, 0, byte(l), 2)}
		var collected, archived [2][]float64
		for e := range collected {
			collected[e], archived[e] = make([]float64, n), make([]float64, n)
			for i := range collected[e] {
				if rng.Intn(10) == 0 {
					collected[e][i], archived[e][i] = timeseries.Missing, timeseries.Missing
					continue
				}
				rtt := time.Duration(1 + rng.Int63n(int64(300*time.Millisecond)))
				if wholeMicros {
					rtt = rtt.Truncate(time.Microsecond) + time.Microsecond
				}
				// The collector's conversion, and the archive's resolution.
				collected[e][i] = float64(rtt) / float64(time.Millisecond)
				archived[e][i] = float64(rtt.Truncate(time.Microsecond)) / float64(time.Millisecond)
			}
		}
		want[target] = archived
		ls := LinkSeries{Target: target,
			Near: timeseries.FromValues(campaign.Start, DefaultAggStep, collected[0]),
			Far:  timeseries.FromValues(campaign.Start, DefaultAggStep, collected[1])}
		if records, err := ToWarts(ww, "mon", ls); err != nil || records != 2*n {
			t.Fatalf("link %d: wrote %d records (%v), want %d", l, records, err, 2*n)
		}
	}
	if err := ww.Flush(); err != nil {
		t.Fatal(err)
	}
	rd, err := warts.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := FromWarts(rd, campaign)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed["mon"]) != len(want) {
		t.Fatalf("replayed %d links, want %d", len(replayed["mon"]), len(want))
	}
	for target, archived := range want {
		ls, ok := replayed["mon"][target]
		if !ok {
			t.Fatalf("link %v missing from the replay", target)
		}
		for e, s := range []*timeseries.Series{ls.Near, ls.Far} {
			got := seriesValues(s)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(archived[e][i]) {
					t.Fatalf("link %v end %d slot %d: replayed %v, want %v", target, e, i, got[i], archived[e][i])
				}
			}
		}
	}
}

func TestFromWartsSkipsForeignRecords(t *testing.T) {
	var buf bytes.Buffer
	ww, _ := warts.NewWriter(&buf)
	ww.Write(&warts.Record{Type: warts.TypePing, VP: "x", At: 0})
	ww.Write(&warts.Record{Type: warts.TypeTSLP, VP: "x",
		At: simclock.Time(100 * 24 * time.Hour)}) // outside campaign
	ww.Flush()
	rd, _ := warts.NewReader(&buf)
	out, err := FromWarts(rd, simclock.Interval{Start: 0, End: simclock.Time(24 * time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("non-TSLP / out-of-window records must be ignored: %v", out)
	}
}
