package experiments

import (
	"strings"
	"testing"
	"time"

	"afrixp/internal/asrel"
	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
)

// A member that leaves its IXP mid-campaign has its port pipes gated
// down after the probe paths toward it were resolved and compiled
// (leaveEvent's Up + InvalidateRoutes). From the cutoff on, every far
// probe of its links must report loss: the barrier re-resolves the
// paths, and no compiled leg may keep treating the gated pipes as
// static.
func TestMemberLeaveGatesCompiledPaths(t *testing.T) {
	campaign := simclock.Interval{
		Start: simclock.Date(2016, time.May, 17),
		End:   simclock.Date(2016, time.May, 23),
	}
	type leave struct {
		asn asrel.ASN
		ixp string
		at  simclock.Time
	}
	var leaves []leave
	res := Run(Config{
		BuildWorld: func() *scenario.World {
			w := scenario.Paper(scenario.Options{Seed: 5, Scale: 0.5})
			byName := make(map[string]asrel.ASN)
			for _, a := range w.Graph.ASes() {
				byName[w.Graph.Name(a)] = a
			}
			for _, ev := range w.PendingEvents() {
				name, rest, ok := strings.Cut(ev.Name, " leaves ")
				if !ok || !campaign.Contains(ev.At) {
					continue
				}
				ixp, _, _ := strings.Cut(rest, " ")
				leaves = append(leaves, leave{asn: byName[name], ixp: ixp, at: ev.At})
			}
			return w
		},
		Campaign: campaign,
		Workers:  2,
	})
	checked := 0
	for _, lv := range leaves {
		for _, vr := range res.VPs {
			for _, lr := range vr.SortedLinks() {
				if lr.FarAS != lv.asn || lr.ViaIXP != lv.ixp || lr.DiscoveredAt >= lv.at {
					continue
				}
				far := lr.Collector.Series().Far
				before, after := 0, 0
				far.Each(func(base int, vals []float64) {
					for k, v := range vals {
						if timeseries.IsMissing(v) {
							continue
						}
						if far.TimeAt(base+k) >= lv.at {
							after++
						} else {
							before++
						}
					}
				})
				if before == 0 {
					t.Fatalf("%s %v: no far sample before the leave at %v", vr.VP.ID, lr.Target, lv.at)
				}
				if after != 0 {
					t.Errorf("%s %v: %d far bins answered after the member left at %v",
						vr.VP.ID, lr.Target, after, lv.at)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatalf("no probed link toward a member leaving in the campaign (leaves: %+v)", leaves)
	}
	t.Logf("%d links toward %d leaving members checked", checked, len(leaves))
}
