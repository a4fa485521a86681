package experiments

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"strconv"

	"afrixp/internal/levelshift"
	"afrixp/internal/loss"
	"afrixp/internal/timeseries"
)

func bits(f float64) uint64 { return math.Float64bits(f) }

// dumpSeries appends a series' grid values to buf as raw IEEE bits in
// lowercase hex without leading zeros, each followed by a comma, then a
// newline.
func dumpSeries(buf []byte, s *timeseries.Series) []byte {
	s.Each(func(_ int, vals []float64) {
		for _, v := range vals {
			buf = append(strconv.AppendUint(buf, bits(v), 16), ',')
		}
	})
	return append(buf, '\n')
}

// writeSummary writes every campaign observable — series values,
// verdict scalars, shifts, events, loss batches — with floats as raw
// IEEE bits, so two summaries are equal iff the results are
// bit-identical (NaN-holed series defeat reflect.DeepEqual).
func writeSummary(w io.Writer, res *Result) error {
	b := bufio.NewWriter(w)
	var buf []byte // one series' rendering, reused
	for _, vr := range res.VPs {
		fmt.Fprintf(b, "VP %s links=%d snaps=%d sched=%d down=%d\n",
			vr.VP.ID, len(vr.Links), len(vr.Snapshots), vr.RoundsScheduled, vr.RoundsDown)
		for _, s := range vr.Snapshots {
			fmt.Fprintf(b, " snap at=%d truth=%d cov=%x links=%d\n",
				s.At, s.TruthNeighborCount, bits(s.Coverage), len(s.Bdrmap.Links))
		}
		for _, lr := range vr.SortedLinks() {
			att, samp, miss, skip := lr.Collector.Yield()
			lskip, lmiss := 0, 0
			if lr.lossCol != nil {
				lskip, lmiss = lr.lossCol.RoundAccounting()
			}
			fmt.Fprintf(b, " link %v as=%d ixp=%s disc=%d case=%q farloss=%x yield=%d/%d/%d/%d lossacct=%d/%d\n",
				lr.Target, lr.FarAS, lr.ViaIXP, lr.DiscoveredAt, lr.CaseName,
				bits(lr.Collector.FarLossFraction()), att, samp, miss, skip, lskip, lmiss)
			ls := lr.Collector.Series()
			buf = dumpSeries(buf[:0], ls.Near)
			buf = dumpSeries(buf, ls.Far)
			b.Write(buf)
			for _, thr := range res.Cfg.Thresholds {
				v := lr.Verdicts[thr]
				fmt.Fprintf(b, "  thr=%g flag=%t nearflat=%t sym=%t cong=%t class=%d aw=%x dt=%d diur=%t amp=%x cons=%x peak=%x days=%d\n",
					thr, v.Flagged, v.NearFlat, v.Symmetric, v.Congested, v.Class,
					bits(v.AW), v.DeltaTUD, v.Diurnal.Diurnal, bits(v.Diurnal.AmplitudeMs),
					bits(v.Diurnal.Consistency), bits(v.Diurnal.PeakHour), v.Diurnal.DaysEvaluated)
				for _, r := range []levelshift.Result{v.Far, v.Near} {
					fmt.Fprintf(b, "   base=%x shifts=", bits(r.Baseline))
					for _, cp := range r.Shifts {
						fmt.Fprintf(b, "(%d,%x,%x,%x)", cp.Index, bits(cp.Confidence), bits(cp.Before), bits(cp.After))
					}
					b.WriteString(" events=")
					for _, e := range r.Events {
						fmt.Fprintf(b, "(%d,%d,%x,%t)", e.Start, e.End, bits(e.Magnitude), e.OpenEnded)
					}
					b.WriteByte('\n')
				}
			}
			fmt.Fprintf(b, "  lossbatches=%d", len(lr.LossBatches))
			for _, lb := range lr.LossBatches {
				fmt.Fprintf(b, " (%d,%d,%d)", lb.Start, lb.Sent, lb.Lost)
			}
			b.WriteByte('\n')
			if lr.lossCol != nil {
				start, step, n := loss.GridFor(lr.lossIv)
				g, _ := loss.ToSeries(lr.LossBatches, start, step, n)
				b.WriteString("  lossgrid=")
				buf = dumpSeries(buf[:0], g)
				b.Write(buf)
			}
		}
	}
	// bufio errors are sticky: Flush reports the first failed write.
	return b.Flush()
}

// ResultDigest returns a SHA-256 hex digest over every campaign
// observable rendered at the bit level (the same rendering the
// determinism tests compare). Two campaign runs produce the same digest
// iff their results are bit-identical — the checkpoint-restart CI smoke
// compares this digest between an uninterrupted run and a killed-and-
// resumed one.
func ResultDigest(res *Result) string {
	h := sha256.New()
	_ = writeSummary(h, res) // a hash.Hash never returns a write error
	return fmt.Sprintf("%x", h.Sum(nil))
}
