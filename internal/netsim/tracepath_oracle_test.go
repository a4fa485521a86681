package netsim_test

import (
	"slices"
	"testing"

	"afrixp/internal/netaddr"
	"afrixp/internal/netsim"
	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
	"afrixp/internal/worldgen"
)

// TestTracePathMatchesWalk resolves a path from every VP toward both
// ends of every interdomain link at several TTLs, through TracePath
// (the trajectory memo) and through the hop-by-hop walk, on the paper
// world and the 10× generated world, before and after every scenario
// event (joins, leaves, de-peerings, transit changes) has applied.
// Both must fail together, or agree on the responder, the response
// address, the expiry and every forward and return pipe and hop
// address, by identity.
func TestTracePathMatchesWalk(t *testing.T) {
	worlds := []struct {
		name  string
		build func() *scenario.World
	}{
		{"paper", func() *scenario.World { return scenario.Paper(scenario.Options{}) }},
		{"worldgen-10x", func() *scenario.World { return worldgen.Generate(worldgen.Options{Seed: 7, Scale: 10}) }},
	}
	for _, wc := range worlds {
		t.Run(wc.name, func(t *testing.T) {
			w := wc.build()
			checkTracePaths(t, w, "start")
			w.AdvanceTo(simclock.LatencyEnd)
			checkTracePaths(t, w, "after every event")
		})
	}
}

func checkTracePaths(t *testing.T, w *scenario.World, when string) {
	t.Helper()
	nw := w.Net
	var ends []netaddr.Addr
	seen := make(map[netaddr.Addr]bool)
	for _, l := range nw.InterdomainLinks() {
		for _, id := range []netsim.IfaceID{l.NearIface, l.FarIface} {
			if a := nw.Iface(id).Addr; !seen[a] {
				seen[a] = true
				ends = append(ends, a)
			}
		}
	}
	ttls := []int{1, 2, 3, 5, 64}
	var paths, replies, failed int
	for _, vp := range w.VPs {
		for _, dst := range ends {
			for _, ttl := range ttls {
				got, gerr := nw.TracePath(vp.Node, dst, ttl)
				want, werr := nw.WalkTracePath(vp.Node, dst, ttl)
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("%s: %s → %v ttl %d: error %v, walk error %v", when, vp.ID, dst, ttl, gerr, werr)
				}
				if gerr != nil {
					failed++
					continue
				}
				if d := pathDiff(got, want); d != "" {
					t.Fatalf("%s: %s → %v ttl %d: %s", when, vp.ID, dst, ttl, d)
				}
				paths++
				if !got.Expired {
					replies++
				}
			}
		}
	}
	t.Logf("%s: %d VPs × %d link ends × %d TTLs: %d paths (%d echo replies), %d unroutable",
		when, len(w.VPs), len(ends), len(ttls), paths, replies, failed)
	if replies == 0 || replies == paths {
		t.Fatalf("%s: %d of %d paths reach the target; the check needs both outcomes", when, replies, paths)
	}
}

// pathDiff describes how got differs from the walk's want, or returns
// "" when they agree.
func pathDiff(got, want *netsim.ProbePath) string {
	switch {
	case got.Responder != want.Responder || got.RespAddr != want.RespAddr || got.Expired != want.Expired:
		return "responder " + got.Responder.Name + " " + got.RespAddr.String() +
			", walk " + want.Responder.Name + " " + want.RespAddr.String()
	case !slices.Equal(got.HopAddrs, want.HopAddrs):
		return "hop addresses differ from the walk's"
	case !slices.Equal(got.FwdPipes, want.FwdPipes):
		return "forward pipes differ from the walk's"
	case !slices.Equal(got.RevPipes, want.RevPipes):
		return "return pipes differ from the walk's"
	case !got.Valid():
		return "fresh path is not valid"
	}
	return ""
}
