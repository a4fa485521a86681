package analysis

import (
	"math"
	"testing"
	"time"

	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
)

// streamSlot is one synthetic aggregated observation.
type streamSlot struct {
	t         simclock.Time
	near, far float64
}

// buildOnsetTrace builds quietDays of flat 20 ms far RTT followed by
// onsetDays of diurnal congestion (a +ampMs peak-hours hump), with a
// flat 5 ms near end throughout — the canonical remote-peering
// congestion signature the streaming detector must catch.
func buildOnsetTrace(quietDays, onsetDays int, ampMs float64) []streamSlot {
	step := simclock.Duration(30 * time.Minute)
	n := (quietDays + onsetDays) * 48
	slots := make([]streamSlot, n)
	for i := range slots {
		t := simclock.Time(0).Add(step * simclock.Duration(i))
		far := 20 + 0.4*math.Sin(float64(i)*0.9)
		if i >= quietDays*48 {
			hod := float64(i%48) / 48 * 2 * math.Pi
			far += ampMs / 2 * (1 - math.Cos(hod))
		}
		slots[i] = streamSlot{t: t, near: 5 + 0.2*math.Sin(float64(i)*1.3), far: far}
	}
	return slots
}

// feed runs the trace through a detector collecting transitions.
func feed(d *StreamDetector, slots []streamSlot) []StreamTransition {
	var out []StreamTransition
	for _, s := range slots {
		if tr, ok := d.Observe(s.t, s.near, s.far); ok {
			out = append(out, tr)
		}
	}
	return out
}

func TestStreamDetectorWalksTheLadder(t *testing.T) {
	slots := buildOnsetTrace(4, 6, 30)
	d := NewStreamDetector()
	trs := feed(d, slots)
	if len(trs) < 2 {
		t.Fatalf("got %d transitions, want ≥ 2 (suspected then congested): %+v", len(trs), trs)
	}
	onset := slots[4*48].t
	if trs[0].From != StreamClear || trs[0].To != StreamSuspected {
		t.Fatalf("first transition %v→%v; want clear→suspected", trs[0].From, trs[0].To)
	}
	if trs[0].At.Before(onset) {
		t.Fatalf("suspected alert at %v, before onset %v — false alarm during quiet phase", trs[0].At, onset)
	}
	// The suspicion must land within two days of onset, and the
	// magnitude estimate must reflect a real shift at the threshold.
	if lag := trs[0].At.Sub(onset); lag > 48*time.Hour {
		t.Fatalf("suspected lag %v; want ≤ 48h", lag)
	}
	if trs[0].MagnitudeMs < trs[0].ThresholdMs {
		t.Fatalf("promoted with magnitude %v < threshold %v", trs[0].MagnitudeMs, trs[0].ThresholdMs)
	}
	if trs[1].From != StreamSuspected || trs[1].To != StreamCongested {
		t.Fatalf("second transition %v→%v; want suspected→congested", trs[1].From, trs[1].To)
	}
	// Congested needs MinDays (3) evaluable days of pattern — so it
	// lands later than suspicion but within ~4 days of onset.
	if lag := trs[1].At.Sub(onset); lag > 4*24*time.Hour {
		t.Fatalf("congested lag %v; want ≤ 4 days", lag)
	}
	if d.State() != StreamCongested {
		t.Fatalf("final state %v; want congested", d.State())
	}
	if v := d.Snapshot(); !v.Diurnal {
		t.Fatalf("congested but snapshot not diurnal: %+v", v)
	}
}

func TestStreamDetectorQuietLinkStaysClear(t *testing.T) {
	slots := buildOnsetTrace(10, 0, 0)
	d := NewStreamDetector()
	if trs := feed(d, slots); len(trs) != 0 {
		t.Fatalf("flat link produced transitions: %+v", trs)
	}
	if d.State() != StreamClear {
		t.Fatalf("flat link ended %v; want clear", d.State())
	}
}

func TestStreamDetectorNearShiftSuppressed(t *testing.T) {
	// Both ends shift together — congestion upstream of the link, the
	// case the near-flat gate exists for. The detector must not promote.
	slots := buildOnsetTrace(4, 6, 30)
	for i := range slots {
		if i >= 4*48 {
			hod := float64(i%48) / 48 * 2 * math.Pi
			slots[i].near += 15 * (1 - math.Cos(hod))
		}
	}
	d := NewStreamDetector()
	for _, tr := range feed(d, slots) {
		if tr.To == StreamSuspected && tr.From == StreamClear {
			t.Fatalf("promoted despite shifted near end: %+v", tr)
		}
	}
}

func TestStreamDetectorMissingSlotsTolerated(t *testing.T) {
	slots := buildOnsetTrace(4, 6, 30)
	for i := range slots {
		if i%5 == 2 {
			slots[i].far = timeseries.Missing
		}
		if i%11 == 4 {
			slots[i].near = timeseries.Missing
		}
	}
	d := NewStreamDetector()
	trs := feed(d, slots)
	if d.State() != StreamCongested {
		t.Fatalf("20%% loss ended %v (transitions %+v); want congested", d.State(), trs)
	}
}

func TestStreamDetectorDeterministicReplay(t *testing.T) {
	slots := buildOnsetTrace(4, 6, 30)
	a := NewStreamDetector()
	trsA := feed(a, slots)

	// Fresh detector: identical alert log, bit for bit.
	b := NewStreamDetector()
	trsB := feed(b, slots)
	compareTransitions(t, "fresh", trsA, trsB)

	// Reset + replay (the checkpoint-resume path): also identical.
	a.Reset()
	if a.State() != StreamClear {
		t.Fatalf("reset left state %v", a.State())
	}
	trsC := feed(a, slots)
	compareTransitions(t, "replayed", trsA, trsC)
	if math.Float64bits(a.Evidence()) != math.Float64bits(b.Evidence()) ||
		math.Float64bits(a.MagnitudeMs()) != math.Float64bits(b.MagnitudeMs()) {
		t.Fatalf("replay state diverged: ev %v vs %v, mag %v vs %v",
			a.Evidence(), b.Evidence(), a.MagnitudeMs(), b.MagnitudeMs())
	}
}

func compareTransitions(t *testing.T, label string, a, b []StreamTransition) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d transitions", label, len(a), len(b))
	}
	for i := range a {
		if a[i].At != b[i].At || a[i].From != b[i].From || a[i].To != b[i].To ||
			math.Float64bits(a[i].MagnitudeMs) != math.Float64bits(b[i].MagnitudeMs) ||
			math.Float64bits(a[i].Evidence) != math.Float64bits(b[i].Evidence) {
			t.Fatalf("%s: transition %d diverged: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

func TestStreamDetectorObserveZeroAlloc(t *testing.T) {
	slots := buildOnsetTrace(2, 2, 30)
	d := NewStreamDetector()
	feed(d, slots)
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		s := slots[i%len(slots)]
		d.Observe(s.t.Add(simclock.Duration(i)*30*time.Minute), s.near, s.far)
		i++
	}); n != 0 {
		t.Fatalf("Observe allocates %.1f/op; want 0", n)
	}
}

// The detector's derived constants must carry the bits the run-time
// defaults computed from a 10 ms threshold: the near-flat bound and
// the diurnal amplitude floor (threshold × 0.8, which Go folds exactly
// at compile time).
func TestStreamConstantsMatchRuntimeDefaults(t *testing.T) {
	thr, frac := 10.0, 0.8
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"threshold", streamThresholdMs, thr},
		{"near-flat bound", streamNearFlatMs, thr},
		{"demotion magnitude", streamThresholdMs / 2, thr / 2},
		{"diurnal amplitude", streamDiurnal.MinAmplitudeMs, thr * frac},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Errorf("%s: %v (%#x), run-time default %v (%#x)", c.name, c.got,
				math.Float64bits(c.got), c.want, math.Float64bits(c.want))
		}
	}
}
