package diurnal

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
)

// oracleFoldWith is FoldWith as it was before the one-pass fold: a
// FoldDaily for the overall profile, then a day walk that windows the
// series per UTC day and folds each window again. Kept verbatim (its
// reusable fold scratch replaced by the allocating FoldDaily, which
// aggregates the same samples in the same order) as the reference the
// one-pass fold must match bit for bit.
func oracleFoldWith(s *timeseries.Series, cfg Config, scr *Scratch) Verdict {
	cfg = cfg.withDefaults()
	var v Verdict
	if s.Len() == 0 {
		return v
	}
	profile := s.FoldDaily(cfg.BinWidth, timeseries.Mean)
	present := scr.present[:0]
	for _, p := range profile {
		if !timeseries.IsMissing(p) {
			present = append(present, p)
		}
	}
	scr.present = present[:0]
	if len(present) < len(profile)/2 {
		return v
	}
	sort.Float64s(present)
	v.AmplitudeMs = timeseries.QuantileSorted(present, 0.95) - timeseries.QuantileSorted(present, 0.05)

	peakBin, peakVal := 0, math.Inf(-1)
	for b, p := range profile {
		if !timeseries.IsMissing(p) && p > peakVal {
			peakBin, peakVal = b, p
		}
	}
	v.PeakHour = float64(peakBin) * cfg.BinWidth.Hours()

	nBins := len(profile)
	var corrSum float64
	for i := 0; i < s.Len(); {
		day := s.TimeAt(i).Day()
		j := i
		for j < s.Len() && s.TimeAt(j).Day() == day {
			j++
		}
		sub := s.Window(s.TimeAt(i), s.TimeAt(j))
		dayProf := sub.FoldDaily(cfg.BinWidth, timeseries.Mean)
		if r, ok := correlateWith(dayProf, profile, nBins/2, scr); ok {
			corrSum += r
			v.DaysEvaluated++
		}
		i = j
	}
	if v.DaysEvaluated > 0 {
		v.Consistency = corrSum / float64(v.DaysEvaluated)
	}
	return v
}

func sameVerdict(a, b Verdict) bool {
	bits := math.Float64bits
	return a.Diurnal == b.Diurnal && a.DaysEvaluated == b.DaysEvaluated &&
		bits(a.AmplitudeMs) == bits(b.AmplitudeMs) &&
		bits(a.Consistency) == bits(b.Consistency) &&
		bits(a.PeakHour) == bits(b.PeakHour)
}

// Property: the one-pass fold equals the oracle bit for bit over
// random diurnal, flat and regime-shift series with tied values, NaN
// gaps (single slots and whole days), windows with unaligned starts,
// grids starting off midnight and before the epoch or a nanosecond
// before a bin boundary, 5-, 7- and 30-minute
// steps (7 minutes meets midnight at a different offset each day) and
// a 25-hour one (a grid coarser than a day), and 30-minute and 1-hour
// bins. One scratch is reused throughout, as a sweep worker does.
func TestQuickFoldMatchesOracle(t *testing.T) {
	var scr, oscr Scratch
	evaluated, diurnal := 0, 0
	f := func(seed int64, days8, mode, grid, bin8 uint8, startOff int32, winLo, winHi uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		step := []time.Duration{5 * time.Minute, 30 * time.Minute, 7 * time.Minute, 25 * time.Hour}[grid%4]
		days := int(days8%20) + 1
		start := simclock.Time(time.Duration(startOff%(30*86400))*time.Second + time.Duration(startOff%997)*time.Millisecond)
		if grid&4 != 0 {
			// One nanosecond before a bin boundary, either side of the
			// epoch.
			start = simclock.Time(time.Duration(startOff%480)*30*time.Minute - 1)
		}
		n := int(time.Duration(days) * 24 * time.Hour / step)
		vs := make([]float64, n)
		amp := 5 + 30*rng.Float64()
		for i := range vs {
			h := start.Add(time.Duration(i) * step).HourOfDay()
			v := 3 + math.Abs(rng.NormFloat64())
			switch mode % 3 {
			case 0:
				if h >= 9 && h < 17 {
					v += amp
				}
			case 1:
				if rng.Intn(40) == 0 {
					v += amp
				}
			}
			if mode&4 != 0 {
				v = math.Round(v) // ties
			}
			if rng.Intn(10) == 0 || (mode&8 != 0 && (i/(n/days+1))%3 == 1) {
				v = timeseries.Missing
			}
			vs[i] = v
		}
		in := timeseries.FromValues(start, step, vs)
		if mode&128 != 0 {
			lo := int(winLo) % (n + 1)
			hi := lo + int(winHi)%(n-lo+1)
			w := in.Window(in.TimeAt(lo), in.TimeAt(hi))
			in = &w
		}
		cfg := Config{BinWidth: []time.Duration{30 * time.Minute, time.Hour}[bin8%2], MinDays: int(bin8 % 7)}
		got, want := FoldWith(in, cfg, &scr), oracleFoldWith(in, cfg, &oscr)
		if got.DaysEvaluated > 0 {
			evaluated++
		}
		if got.Decide(cfg).Diurnal {
			diurnal++
		}
		if !sameVerdict(got, want) || !sameVerdict(got.Decide(cfg), want.Decide(cfg)) {
			t.Logf("start=%v step=%v len=%d cfg=%+v: got %+v, want %+v", in.Start, in.Step, in.Len(), cfg, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// The property is only as strong as its inputs: most draws must
	// reach the day walk, and some must pass every gate.
	t.Logf("%d/300 draws evaluated days, %d diurnal", evaluated, diurnal)
	if evaluated < 120 || diurnal < 10 {
		t.Fatalf("weak draws: %d/300 evaluated days, %d diurnal", evaluated, diurnal)
	}
}

func TestFoldRejectsFractionalSecondBins(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("1.5 s bins did not panic")
		}
	}()
	s := timeseries.FromValues(0, time.Minute, []float64{1})
	fold(s, Config{BinWidth: 1500 * time.Millisecond})
}
