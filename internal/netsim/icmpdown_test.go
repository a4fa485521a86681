package netsim

import (
	"testing"
	"time"

	"afrixp/internal/simclock"
)

// TestICMPDownSilencesResponder pins that an ICMP blackout gates every
// response-generation path the same way: the packet-walk protocol
// (Inject), the live sampling fast path (Sample), and the frozen
// per-context path (SampleCtx) must all see the probe go unanswered
// while the schedule is down and answered again once it lifts.
func TestICMPDownSilencesResponder(t *testing.T) {
	w := buildWorld(t)
	down := simclock.Interval{
		Start: simclock.Time(1 * time.Hour),
		End:   simclock.Time(2 * time.Hour),
	}
	w.r200.ICMPDown = func(at simclock.Time) bool { return down.Contains(at) }

	pp, err := w.nw.TracePath(w.vp, w.farAddr, 64)
	if err != nil {
		t.Fatal(err)
	}
	ctx := w.nw.NewProbeCtx(1)
	for _, tc := range []struct {
		at   simclock.Time
		want bool // response expected
	}{
		{simclock.Time(30 * time.Minute), true},
		{down.Start, false},
		{simclock.Time(90 * time.Minute), false},
		{down.End, true},
	} {
		_, out, err := w.nw.Inject(w.vp, echoTo(t, w, w.farAddr, 64), tc.at)
		if err != nil {
			t.Fatal(err)
		}
		if got := out == Delivered; got != tc.want {
			t.Fatalf("Inject at %v: delivered=%t, want %t", tc.at, got, tc.want)
		}
		if _, ok := pp.Sample(tc.at); ok != tc.want {
			t.Fatalf("Sample at %v: ok=%t, want %t", tc.at, ok, tc.want)
		}
		w.nw.AdvanceQueuesBatch([]simclock.Time{tc.at})
		if _, ok := pp.SampleCtx(ctx, tc.at); ok != tc.want {
			t.Fatalf("SampleCtx at %v: ok=%t, want %t", tc.at, ok, tc.want)
		}
	}
}

// TestICMPDownSilencesTimeExceeded covers the near-end case: a
// blacked-out router also stops originating TTL-exceeded errors,
// which is how the paper's unresponsive-router losses appear in
// TSLP's near series.
func TestICMPDownSilencesTimeExceeded(t *testing.T) {
	w := buildWorld(t)
	w.r100.ICMPDown = func(simclock.Time) bool { return true }
	_, out, err := w.nw.Inject(w.vp, echoTo(t, w, w.farAddr, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if out != Lost {
		t.Fatalf("TTL-expired probe at a blacked-out router: %v, want lost", out)
	}
}

// TestPipesAt resolves both port shapes fault injection flaps: a
// point-to-point link end and a LAN attachment.
func TestPipesAt(t *testing.T) {
	w := buildWorld(t)
	in, out, ok := w.nw.PipesAt(w.farAddr) // r200's LAN port
	if !ok || in != w.r200FromFabric || out == nil {
		t.Fatalf("LAN port pipes: in=%p out=%p ok=%t", in, out, ok)
	}
	in, out, ok = w.nw.PipesAt(w.nearAddr) // r100's side of the VP /30
	if !ok || in != w.vpLink.Pipes[0] || out != w.vpLink.Pipes[1] {
		t.Fatalf("p2p port pipes: in=%p out=%p ok=%t", in, out, ok)
	}
	if _, _, ok := w.nw.PipesAt(ma("203.0.113.1")); ok {
		t.Fatal("unknown address must not resolve")
	}
}
