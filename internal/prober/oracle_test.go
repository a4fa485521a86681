package prober_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"afrixp/internal/bdrmap"
	"afrixp/internal/faults"
	"afrixp/internal/ixpdir"
	"afrixp/internal/prober"
	"afrixp/internal/queue"
	"afrixp/internal/registry"
	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
	"afrixp/internal/warts"
	"afrixp/internal/worldgen"
)

// oracleTwin is one of two identical worlds border-mapped in lockstep:
// one pings over memoized trajectories, the other through the
// wire-level oracle.
type oracleTwin struct {
	w      *scenario.World
	rir    *registry.Index
	ixp    *ixpdir.Index
	log    bytes.Buffer
	wr     *warts.Writer
	probes []*prober.Prober
}

func newOracleTwin(t *testing.T, build func() *scenario.World, start simclock.Time, wire bool) *oracleTwin {
	tw := &oracleTwin{w: build()}
	// Park every fault episode in the two hours discovery runs in, so
	// blackouts, duty-cycled ICMP and port flaps all bite.
	faults.Inject(tw.w, simclock.Interval{Start: start, End: start.Add(2 * time.Hour)}, faults.Config{})
	// Police every seventh router's ICMP tightly enough that border
	// routers run dry mid-run.
	for _, n := range tw.w.Net.Nodes() {
		if n.ID%7 == 3 {
			n.ICMPRateLimit = queue.NewTokenBucket(40, 4, start)
		}
	}
	tw.w.AdvanceTo(start)
	tw.rir = registry.NewIndex(tw.w.RIRFile)
	tw.ixp = ixpdir.NewIndex(tw.w.Directory)
	var err error
	if tw.wr, err = warts.NewWriter(&tw.log); err != nil {
		t.Fatal(err)
	}
	for _, vp := range tw.w.VPs {
		p := prober.New(tw.w.Net, vp.Node, prober.Config{Name: vp.ID, Warts: tw.wr})
		if wire {
			prober.UseWireOracle(p)
		}
		tw.probes = append(tw.probes, p)
	}
	return tw
}

func (tw *oracleTwin) run(t *testing.T, i int, at simclock.Time) *bdrmap.Result {
	vp := tw.w.VPs[i]
	res, err := bdrmap.Run(tw.probes[i], bdrmap.Config{
		BGP: tw.w.BGP, Rels: tw.w.Graph, RIR: tw.rir, IXP: tw.ixp,
		Geo: tw.w.GeoDB, RDNS: tw.w.RDNS, Siblings: vp.Siblings,
	}, at)
	if err != nil {
		t.Fatalf("%s: %v", vp.ID, err)
	}
	if err := tw.wr.Flush(); err != nil {
		t.Fatal(err)
	}
	return res
}

// state renders everything a probe may change outside the pipes'
// queues: the packet counter, every node's IP ID and ICMP bucket, the
// prober's pacing and sequence state, and the walk counts.
func (tw *oracleTwin) state(i int) string {
	var b bytes.Buffer
	nw := tw.w.Net
	fmt.Fprintf(&b, "nonces %d walks %+v prober %+v\n",
		nw.PacketNonces(), nw.InjectStats(), tw.probes[i].Checkpoint())
	for _, n := range nw.Nodes() {
		fmt.Fprintf(&b, "%d ipid %d", n.ID, n.IPID())
		if rl := n.ICMPRateLimit; rl != nil {
			tokens, last := rl.State()
			fmt.Fprintf(&b, " bucket %v %d", tokens, last)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestDiscoveryMatchesWireOracle runs bdrmap for every VP on twin
// worlds, one pinging over memoized trajectories and one through the
// wire-level oracle, and requires every trace and ping record, every
// result and all probe-visible state to match after each run. Each VP
// maps twice around a de-peering of one of its IXP neighbours, so the
// trajectory must drop return steps the new topology reroutes.
func TestDiscoveryMatchesWireOracle(t *testing.T) {
	start := simclock.Date(2016, time.July, 20)
	worlds := []struct {
		name  string
		build func() *scenario.World
	}{
		{"paper", func() *scenario.World { return scenario.Paper(scenario.Options{}) }},
		{"worldgen-10x", func() *scenario.World { return worldgen.Generate(worldgen.Options{Seed: 7, Scale: 10}) }},
	}
	for _, wc := range worlds {
		t.Run(wc.name, func(t *testing.T) {
			if testing.Short() && wc.name != "paper" {
				t.Skip("short mode: paper world only")
			}
			fast := newOracleTwin(t, wc.build, start, false)
			wire := newOracleTwin(t, wc.build, start, true)
			at := start
			for i, vp := range fast.w.VPs {
				for pass := 0; pass < 2; pass++ {
					got, want := fast.run(t, i, at), wire.run(t, i, at)
					label := fmt.Sprintf("%s pass %d", vp.ID, pass)
					if !bytes.Equal(fast.log.Bytes(), wire.log.Bytes()) {
						t.Fatalf("%s: trace and ping records differ from the wire oracle", label)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: bdrmap result differs:\n got %+v\nwant %+v", label, got, want)
					}
					if g, w := fast.state(i), wire.state(i); g != w {
						t.Fatalf("%s: probe state differs:\n got %.300s\nwant %.300s", label, g, w)
					}
					if pass == 0 {
						depeer(fast.w, got)
						depeer(wire.w, want)
					}
					at = at.Add(10 * time.Minute)
				}
			}
			if fast.w.Net.InjectStats().Walks == 0 {
				t.Fatal("no probes sent")
			}
		})
	}
}

// depeer removes the VP's first IXP peering found by res, as a member
// leaving the exchange would, and invalidates routes.
func depeer(w *scenario.World, res *bdrmap.Result) {
	for _, l := range res.Links {
		if l.ViaIXP != "" {
			w.Graph.RemoveLink(res.VPAS, l.FarAS)
			w.Net.InvalidateRoutes()
			return
		}
	}
}
