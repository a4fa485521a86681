package analysis

import (
	"fmt"
	"io"
	"math"
	"time"

	"afrixp/internal/netaddr"
	"afrixp/internal/packet"
	"afrixp/internal/prober"
	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
	"afrixp/internal/warts"
)

// ToWarts archives one link's collected series as warts TSLP records,
// the inverse of FromWarts: one record per grid slot, near samples
// first, each stamped with its slot's time and addressed to the far
// end, answered with time-exceeded by the near end or with an echo
// reply by the far end. A missing slot is a lost probe. It returns the
// number of records written.
//
// Warts stores whole microseconds, so an RTT is archived to the
// microsecond below its collected nanoseconds. The collected value is
// milliseconds, float64(rtt)/1e6; scaling it back by 1e6 can land a
// hair below a whole nanosecond, so it is rounded, not truncated —
// truncation archived some whole-microsecond RTTs 1 µs low.
func ToWarts(w *warts.Writer, vp string, ls LinkSeries) (int, error) {
	records := 0
	emit := func(s *timeseries.Series, responder netaddr.Addr, respType uint8) error {
		var werr error
		s.Each(func(base int, vals []float64) {
			for i, v := range vals {
				if werr != nil {
					return
				}
				rec := warts.Record{Type: warts.TypeTSLP, VP: vp, At: s.TimeAt(base + i),
					Target: ls.Target.Far, Responder: responder, RespType: respType}
				if timeseries.IsMissing(v) {
					rec.Lost = true
				} else {
					rec.RTT = time.Duration(math.Round(v * float64(time.Millisecond)))
				}
				if werr = w.Write(&rec); werr == nil {
					records++
				}
			}
		})
		return werr
	}
	if err := emit(ls.Near, ls.Target.Near, packet.ICMPTimeExceeded); err != nil {
		return records, fmt.Errorf("analysis: archiving warts: %w", err)
	}
	if err := emit(ls.Far, ls.Target.Far, packet.ICMPEchoReply); err != nil {
		return records, fmt.Errorf("analysis: archiving warts: %w", err)
	}
	return records, nil
}

// FromWarts reconstructs per-link TSLP series from an archived warts
// stream — the offline-analysis path: Ark monitors upload warts
// archives and the pipeline re-runs over them. TSLP records carry the
// link's far address as Target (both probes of a round are addressed
// to the far end; the near probe is merely TTL-limited to expire one
// hop earlier) and the answering end as Responder, so a record is a
// near sample when it answered with time-exceeded and a far sample
// when the far address itself echoed.
//
// Grid bounds come from campaign; records outside it are dropped.
// Samples are min-filtered into DefaultAggStep bins, the grid the live
// Collector stores, so a replay reproduces the live series bit for
// bit. Warts archives carry no per-link ordering guarantee, so ingest
// min-filters into one []float64 per link end and seals each with
// timeseries.FromValues once ingest ends: the resident set after return
// is the compressed one, which is what matters for replaying
// month-scale archives. The result maps VP name → link → series.
func FromWarts(r *warts.Reader, campaign simclock.Interval) (map[string]map[prober.LinkTarget]LinkSeries, error) {
	const step = DefaultAggStep
	n := campaign.NumSteps(step)

	type key struct {
		vp  string
		far netaddr.Addr
	}
	type link struct {
		near, far []float64
		nearAddr  netaddr.Addr
	}
	links := make(map[key]*link)
	ensure := func(k key) *link {
		l, ok := links[k]
		if !ok {
			l = &link{near: make([]float64, n), far: make([]float64, n)}
			for i := range l.near {
				l.near[i], l.far[i] = timeseries.Missing, timeseries.Missing
			}
			links[k] = l
		}
		return l
	}
	// minInto is the streaming min filter onto the grid, matching the
	// live Collector's behavior for repeated samples.
	minInto := func(grid []float64, at simclock.Time, ms float64) {
		if i := int(at.Sub(campaign.Start) / step); i < n {
			if timeseries.IsMissing(grid[i]) || ms < grid[i] {
				grid[i] = ms
			}
		}
	}

	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("analysis: replaying warts: %w", err)
		}
		if rec.Type != warts.TypeTSLP || !campaign.Contains(rec.At) {
			continue
		}
		l := ensure(key{vp: rec.VP, far: rec.Target})
		ms := float64(rec.RTT) / float64(time.Millisecond)
		if rec.RespType == packet.ICMPTimeExceeded {
			if !rec.Responder.IsZero() {
				l.nearAddr = rec.Responder
			}
			if !rec.Lost {
				minInto(l.near, rec.At, ms)
			}
		} else if !rec.Lost {
			minInto(l.far, rec.At, ms)
		}
	}

	out := make(map[string]map[prober.LinkTarget]LinkSeries)
	for k, l := range links {
		if out[k.vp] == nil {
			out[k.vp] = make(map[prober.LinkTarget]LinkSeries)
		}
		target := prober.LinkTarget{Near: l.nearAddr, Far: k.far}
		out[k.vp][target] = LinkSeries{Target: target,
			Near: timeseries.FromValues(campaign.Start, step, l.near),
			Far:  timeseries.FromValues(campaign.Start, step, l.far)}
	}
	return out, nil
}
