package analysis

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"afrixp/internal/levelshift"
	"afrixp/internal/timeseries"
)

// summarizeVerdict renders every verdict observable with floats as raw
// IEEE bits, so two summaries are equal iff the verdicts are
// bit-identical (NaN-holed series defeat reflect.DeepEqual).
func summarizeVerdict(v Verdict) string {
	var b bytes.Buffer
	bits := func(f float64) uint64 { return math.Float64bits(f) }
	fmt.Fprintf(&b, "flag=%t nearflat=%t sym=%t cong=%t class=%d aw=%x dt=%d\n",
		v.Flagged, v.NearFlat, v.Symmetric, v.Congested, v.Class, bits(v.AW), v.DeltaTUD)
	fmt.Fprintf(&b, "diur=%t amp=%x cons=%x peak=%x days=%d\n",
		v.Diurnal.Diurnal, bits(v.Diurnal.AmplitudeMs), bits(v.Diurnal.Consistency),
		bits(v.Diurnal.PeakHour), v.Diurnal.DaysEvaluated)
	for _, r := range []levelshift.Result{v.Far, v.Near} {
		fmt.Fprintf(&b, "base=%x shifts=", bits(r.Baseline))
		for _, cp := range r.Shifts {
			fmt.Fprintf(&b, "(%d,%x,%x,%x)", cp.Index, bits(cp.Confidence), bits(cp.Before), bits(cp.After))
		}
		b.WriteString(" events=")
		for _, e := range r.Events {
			fmt.Fprintf(&b, "(%d,%d,%x,%t)", e.Start, e.End, bits(e.Magnitude), e.OpenEnded)
		}
		b.WriteString(" series=")
		if r.Series != nil {
			fmt.Fprintf(&b, "step=%d:", r.Series.Step)
			r.Series.Each(func(_ int, vals []float64) {
				for _, x := range vals {
					fmt.Fprintf(&b, "%x,", bits(x))
				}
			})
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// sweepLinkSeries builds link series of various congestion shapes,
// including gap patterns, so the sweep equality is not checked on
// clean inputs only.
func sweepLinkSeries(t *testing.T) map[string]LinkSeries {
	t.Helper()
	out := map[string]LinkSeries{
		"diurnal-congested": synth(21, diurnalFn(2, 25, 9, 17, 0.5, 1), flatFn(1, 0.3, 2)),
		"borderline-12ms":   synth(14, diurnalFn(2, 12, 10, 16, 0.4, 3), flatFn(1, 0.3, 4)),
		"near-shifts-too":   synth(14, diurnalFn(2, 25, 9, 17, 0.5, 5), diurnalFn(2, 25, 9, 17, 0.5, 6)),
		"flat":              synth(14, flatFn(2, 0.4, 7), flatFn(1, 0.3, 8)),
	}
	fs, ns := synthVals(21, diurnalFn(2, 20, 9, 17, 0.5, 9), flatFn(1, 0.3, 10))
	rng := rand.New(rand.NewSource(11))
	for i := range fs {
		if rng.Float64() < 0.15 {
			fs[i] = timeseries.Missing
		}
		if rng.Float64() < 0.1 {
			ns[i] = timeseries.Missing
		}
	}
	out["lossy"] = sealLink(fs, ns)
	return out
}

// TestAnalyzeLinkSweepBitIdentical is the sweep's acceptance property:
// the shared-detection path must produce, per threshold, exactly the
// verdict of an independent AnalyzeLink call — bit for bit, across
// congestion shapes and gap patterns.
func TestAnalyzeLinkSweepBitIdentical(t *testing.T) {
	thresholds := []float64{5, 10, 15, 20}
	for name, ls := range sweepLinkSeries(t) {
		cfg := DefaultConfig()
		swept := NewSweeper().AnalyzeLinkSweep(ls, cfg, thresholds)
		if len(swept) != len(thresholds) {
			t.Fatalf("%s: %d verdicts for %d thresholds", name, len(swept), len(thresholds))
		}
		for k, thr := range thresholds {
			one := cfg
			one.ThresholdMs = thr
			want := summarizeVerdict(NewSweeper().AnalyzeLink(ls, one))
			got := summarizeVerdict(swept[k])
			if got != want {
				t.Errorf("%s @ %g ms: sweep verdict diverges from AnalyzeLink\nsweep: %s\nsolo:  %s",
					name, thr, got, want)
			}
		}
	}
}

// TestSweeperReuseAcrossLinks pins that one Sweeper fed many links in
// sequence (the campaign worker pattern) matches fresh per-link
// sweeps — detector scratch must not leak state between links.
func TestSweeperReuseAcrossLinks(t *testing.T) {
	thresholds := []float64{5, 10, 15, 20}
	cfg := DefaultConfig()
	sw := NewSweeper()
	for name, ls := range sweepLinkSeries(t) {
		reused := sw.AnalyzeLinkSweep(ls, cfg, thresholds)
		fresh := NewSweeper().AnalyzeLinkSweep(ls, cfg, thresholds)
		for k := range thresholds {
			if a, b := summarizeVerdict(reused[k]), summarizeVerdict(fresh[k]); a != b {
				t.Errorf("%s @ %g ms: reused sweeper diverges\nreused: %s\nfresh:  %s",
					name, thresholds[k], a, b)
			}
		}
	}
}

// TestSweepEmptyThresholds keeps the degenerate call well-defined.
func TestSweepEmptyThresholds(t *testing.T) {
	ls := synth(7, flatFn(2, 0.4, 20), flatFn(1, 0.3, 21))
	if got := NewSweeper().AnalyzeLinkSweep(ls, DefaultConfig(), nil); len(got) != 0 {
		t.Fatalf("nil thresholds produced %d verdicts", len(got))
	}
}

// TestSweepNaNHeavyMatchesSingleShot drives the sweep over a series
// with ≥50% of both ends missing — alternating per-round losses plus a
// four-day outage hole, the fault-injection shapes — and requires the
// shared-detection sweep to (a) survive without panics, (b) keep every
// verdict number finite, and (c) match the single-shot pipeline bit
// for bit at every threshold.
func TestSweepNaNHeavyMatchesSingleShot(t *testing.T) {
	fs, ns := synthVals(21, diurnalFn(2, 25, 9, 17, 0.5, 30), flatFn(1, 0.3, 31))
	missing := 0
	holeStart, holeEnd := 7*48, 11*48 // days 7–10 fully dark
	for i := range fs {
		if i%2 == 0 || (i >= holeStart && i < holeEnd) {
			fs[i], ns[i] = timeseries.Missing, timeseries.Missing
			missing++
		}
	}
	ls := sealLink(fs, ns)
	if 2*missing < ls.Far.Len() {
		t.Fatalf("gap pattern too thin: %d/%d missing", missing, ls.Far.Len())
	}

	thresholds := []float64{5, 10, 15, 20}
	cfg := DefaultConfig()
	swept := NewSweeper().AnalyzeLinkSweep(ls, cfg, thresholds)
	for k, thr := range thresholds {
		one := cfg
		one.ThresholdMs = thr
		want := summarizeVerdict(NewSweeper().AnalyzeLink(ls, one))
		if got := summarizeVerdict(swept[k]); got != want {
			t.Errorf("NaN-heavy series @ %g ms: sweep diverges from single-shot\nsweep: %s\nsolo:  %s",
				thr, got, want)
		}
		if v := swept[k]; math.IsNaN(v.AW) || math.IsNaN(v.Diurnal.Consistency) ||
			math.IsNaN(v.Diurnal.AmplitudeMs) {
			t.Fatalf("NaN leaked into the verdict at %g ms: %+v", thr, v)
		}
	}
}
