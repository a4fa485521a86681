package observatory

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"afrixp/internal/diurnal"
	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
)

// Schema identifies the observatory JSON API; bump on breaking field
// changes (the telemetry endpoint's afrixp-telemetry/1 convention).
const Schema = "afrixp-observatory/1"

// Mount registers the observatory API on mux: GET /links (paged
// status table), GET /links/{id} (detail), GET /alerts (since-cursor
// log, ?wait=1 long-polls), GET /stream (SSE). Mounted beside
// /metrics by telemetry.Serve.
func (s *Service) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/links", s.handleLinks)
	mux.HandleFunc("/links/", s.handleLink)
	mux.HandleFunc("/alerts", s.handleAlerts)
	mux.HandleFunc("/stream", s.handleStream)
}

// Handler returns a standalone handler serving the API at the mux
// root — what the tests and the benchmark's API reader use.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Mount(mux)
	return mux
}

// linkStatus is one /links row.
type linkStatus struct {
	ID          string  `json:"id"`
	VP          string  `json:"vp"`
	Target      string  `json:"target"`
	Case        string  `json:"case,omitempty"`
	State       string  `json:"state"`
	Evidence    float64 `json:"evidence"`
	MagnitudeMs float64 `json:"magnitude_ms"`
	Slots       int     `json:"slots"`
	Alerts      uint64  `json:"alerts"`
}

func (s *Service) statusLocked(ls *linkState) linkStatus {
	return linkStatus{
		ID:          ls.id,
		VP:          ls.vp,
		Target:      ls.target.String(),
		Case:        ls.caseName,
		State:       ls.det.State().String(),
		Evidence:    ls.det.Evidence(),
		MagnitudeMs: ls.det.MagnitudeMs(),
		Slots:       ls.cursor,
		Alerts:      ls.recentN,
	}
}

// handleLinks serves the paged status table.
func (s *Service) handleLinks(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	page := queryInt(r, "page", 1)
	per := queryInt(r, "per", 100)
	if page < 1 {
		page = 1
	}
	if per < 1 || per > 1000 {
		per = 100
	}
	total, rows, barrier := s.linksPage(page, per)
	pages := (total + per - 1) / per
	writeJSON(w, map[string]any{
		"schema":     Schema,
		"barrier":    barrier.String(),
		"barrier_ns": int64(barrier),
		"total":      total,
		"page":       page,
		"pages":      pages,
		"per":        per,
		"links":      rows,
	})
}

// linksPage copies page page (from 1) of per status rows, the link
// count and the barrier under the read lock. A page past the last is
// empty; it is bounded before the offset is multiplied out, so no page
// number can overflow the slice bounds.
func (s *Service) linksPage(page, per int) (total int, rows []linkStatus, barrier simclock.Time) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total = len(s.order)
	lo := total
	if page-1 < total/per+1 {
		lo = min((page-1)*per, total)
	}
	hi := min(lo+per, total)
	rows = make([]linkStatus, 0, hi-lo)
	for _, ls := range s.order[lo:hi] {
		rows = append(rows, s.statusLocked(ls))
	}
	return total, rows, s.barrier
}

// handleLink serves one link's detail: live status, streaming diurnal
// snapshot, day-folded profile, recent alerts, and (after Finalize)
// the batch verdict sweep.
func (s *Service) handleLink(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/links/")
	var (
		status   linkStatus
		snap     diurnal.Verdict
		profile  []float64
		recent   []Alert
		verdicts map[string]any
		barrier  simclock.Time
	)
	found := func() bool {
		s.mu.RLock()
		defer s.mu.RUnlock()
		ls, ok := s.links[id]
		if !ok {
			return false
		}
		status = s.statusLocked(ls)
		snap = ls.det.Snapshot()
		profile = ls.det.Profile(nil)
		recent, _ = appendRing(make([]Alert, 0, len(ls.recent)), ls.recent, ls.recentN, 0)
		if ls.verdicts != nil {
			verdicts = make(map[string]any, len(ls.verdicts))
			for thr, v := range ls.verdicts {
				verdicts[strconv.FormatFloat(thr, 'g', -1, 64)] = map[string]any{
					"flagged":   v.Flagged,
					"near_flat": v.NearFlat,
					"diurnal":   v.Diurnal.Diurnal,
					"symmetric": v.Symmetric,
					"congested": v.Congested,
					"class":     v.Class.String(),
				}
			}
		}
		barrier = s.barrier
		return true
	}()
	if !found {
		http.Error(w, "unknown link id", http.StatusNotFound)
		return
	}

	prof := make([]*float64, len(profile))
	for i := range profile {
		if !timeseries.IsMissing(profile[i]) {
			v := profile[i]
			prof[i] = &v
		}
	}
	fillAt(recent)
	writeJSON(w, map[string]any{
		"schema":     Schema,
		"barrier":    barrier.String(),
		"barrier_ns": int64(barrier),
		"link":       status,
		"diurnal": map[string]any{
			"diurnal":        snap.Diurnal,
			"amplitude_ms":   snap.AmplitudeMs,
			"consistency":    snap.Consistency,
			"peak_hour":      snap.PeakHour,
			"days_evaluated": snap.DaysEvaluated,
		},
		"profile_ms": prof,
		"alerts":     recent,
		"verdicts":   verdicts,
	})
}

// appendRing appends a per-link recent ring's contents in append order.
func appendRing(dst, ring []Alert, n uint64, limit int) ([]Alert, uint64) {
	if len(ring) == 0 {
		return dst, 0
	}
	first := n - uint64(len(ring))
	for i := first; i < n; i++ {
		if limit > 0 && len(dst) >= limit {
			break
		}
		dst = append(dst, ring[int(i%uint64(cap(ring)))])
	}
	return dst, first
}

// handleAlerts serves the global alert log from a since-cursor.
// ?since=SEQ returns alerts with Seq > SEQ (0 = from the oldest
// retained); ?limit=N caps the page; ?wait=1 long-polls until the
// next barrier lands when the page would be empty (fallback for
// clients that cannot hold an SSE stream).
func (s *Service) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	since := uint64(queryInt(r, "since", 0))
	limit := queryInt(r, "limit", 1000)
	wait := r.URL.Query().Get("wait") != ""

	out, oldest := s.AlertsSince(since, limit, nil)
	if len(out) == 0 && wait {
		select {
		case <-s.hub.waitCh():
			out, oldest = s.AlertsSince(since, limit, nil)
		case <-r.Context().Done():
		case <-time.After(25 * time.Second):
		}
	}
	next := since
	if len(out) > 0 {
		next = out[len(out)-1].Seq
	}
	fillAt(out)
	if out == nil {
		out = []Alert{}
	}
	writeJSON(w, map[string]any{
		"schema":  Schema,
		"barrier": s.Barrier().String(),
		"total":   s.TotalAlerts(),
		"oldest":  oldest,
		"next":    next,
		"alerts":  out,
	})
}

// streamHello is the first SSE event on /stream: where the campaign
// is and what cursor to resume /alerts from.
type streamHello struct {
	Schema    string `json:"schema"`
	Barrier   string `json:"barrier"`
	BarrierNs int64  `json:"barrier_ns"`
	Links     int    `json:"links"`
	Seq       uint64 `json:"seq"`
}

// handleStream serves the SSE live stream: a hello event, then one
// barrier event per engine barrier (heartbeat included — barriers
// with no alerts still produce an event), plus dropped events when
// this subscriber's bounded buffer overflowed.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	hb, _ := json.Marshal(s.hello())
	fmt.Fprintf(w, "event: hello\ndata: %s\n\n", hb)
	fl.Flush()

	sub := s.hub.subscribe()
	defer s.hub.unsubscribe(sub)
	var reported uint64
	for {
		select {
		case <-r.Context().Done():
			return
		case msg := <-sub.ch:
			if d := sub.dropped.Load(); d != reported {
				fmt.Fprintf(w, "event: dropped\ndata: {\"dropped\":%d}\n\n", d)
				reported = d
			}
			if _, err := fmt.Fprintf(w, "event: barrier\nid: %d\ndata: %s\n\n", msg.seq, msg.payload); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// hello reads the /stream hello event under the read lock.
func (s *Service) hello() streamHello {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return streamHello{
		Schema:    Schema,
		Barrier:   s.barrier.String(),
		BarrierNs: int64(s.barrier),
		Links:     len(s.order),
		Seq:       s.alertN,
	}
}

// barrierEvent is the /stream per-barrier payload.
type barrierEvent struct {
	Barrier   string  `json:"barrier"`
	BarrierNs int64   `json:"barrier_ns"`
	Seq       uint64  `json:"seq"`
	FedSlots  uint64  `json:"fed_slots"`
	Clear     int     `json:"clear"`
	Suspected int     `json:"suspected"`
	Congested int     `json:"congested"`
	Alerts    []Alert `json:"alerts"`
}

// publishLocked encodes and fans out one barrier update. Called by
// ObserveBarrier with s.mu held; nAlerts is how many alerts this
// barrier appended (the ring tail). With no subscribers it is a
// single atomic load — the zero-alloc steady-state path.
func (s *Service) publishLocked(t simclock.Time, nAlerts int) {
	if s.hub.active() == 0 {
		return
	}
	ev := barrierEvent{
		Barrier:   t.String(),
		BarrierNs: int64(t),
		Seq:       s.alertN,
		FedSlots:  s.fed,
		Alerts:    make([]Alert, 0, nAlerts),
	}
	for _, ls := range s.order {
		switch ls.det.State().String() {
		case "suspected":
			ev.Suspected++
		case "congested":
			ev.Congested++
		default:
			ev.Clear++
		}
	}
	for seq := s.alertN - uint64(nAlerts) + 1; seq <= s.alertN && nAlerts > 0; seq++ {
		ev.Alerts = append(ev.Alerts, s.alerts[int((seq-1)%uint64(cap(s.alerts)))])
	}
	fillAt(ev.Alerts)
	payload, err := json.Marshal(ev)
	if err != nil {
		return
	}
	s.hub.publish(s.alertN, payload)
}

// fillAt renders the human-readable virtual time on served alert
// copies — deferred from the append path, which must not allocate.
func fillAt(alerts []Alert) {
	for i := range alerts {
		alerts[i].At = simclock.Time(alerts[i].AtNs).String()
	}
}

func queryInt(r *http.Request, key string, def int) int {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
