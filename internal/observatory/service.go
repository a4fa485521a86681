// Package observatory is the campaign engine's live window: a
// streaming congestion-detection service an IXP NOC could sit on. The
// engine feeds it at batch barriers (strictly read-side — collected
// series flow in, nothing flows back); per-link streaming detectors
// (analysis.StreamDetector) walk the clear → suspected → congested
// ladder as virtual time advances; and an HTTP API (server.go) serves
// the link table, per-link detail, a since-cursor alert log, and an
// SSE/long-poll live stream through a bounded broadcast hub (hub.go).
//
// Two invariants carry over from the engine (DESIGN.md §16):
//
//   - The alert log is a pure function of the collected sample
//     sequence. Slots are fed in finalized-slot order with alert
//     timestamps taken from slot virtual times, and each barrier's
//     emissions are ordered by (slot time, link id) — so the log is
//     bit-identical across Workers × BatchSteps × Shards.
//   - End-of-campaign verdicts are the engine's own: after its batch
//     sweep (analysis.Sweeper.AnalyzeLinkSweep) the engine hands each link's
//     verdicts over (SetLinkVerdicts), and Finalize sweeps only links
//     nobody handed verdicts to. A fresh service fed the same
//     collectors and swept by Finalize must reach the same verdicts —
//     the replay the tests and the benchmark check. The streaming
//     state steers alert timing only.
package observatory

import (
	"sync"

	"afrixp/internal/analysis"
	"afrixp/internal/prober"
	"afrixp/internal/simclock"
)

// Config tunes a Service.
type Config struct {
	// AlertCap bounds the global alert ring (older alerts are dropped;
	// /alerts reports the truncation point). Default 65536.
	AlertCap int
	// LinkAlertCap bounds the per-link recent-alert ring surfaced by
	// /links/{id}. Default 32.
	LinkAlertCap int
	// SubscriberBuf is each SSE subscriber's channel depth; a consumer
	// slower than the barrier cadence loses batches (counted per
	// subscriber), never blocks the engine. Default 64.
	SubscriberBuf int
}

func (c Config) withDefaults() Config {
	if c.AlertCap <= 0 {
		c.AlertCap = 65536
	}
	if c.LinkAlertCap <= 0 {
		c.LinkAlertCap = 32
	}
	if c.SubscriberBuf <= 0 {
		c.SubscriberBuf = 64
	}
	return c
}

// Alert is one timestamped link state transition — the unit of the
// /alerts log and the /stream events. AtNs is virtual time (ns since
// the simulation epoch), not wall time.
type Alert struct {
	Seq         uint64  `json:"seq"`
	Link        string  `json:"link"`
	AtNs        int64   `json:"at_ns"`
	At          string  `json:"at"`
	From        string  `json:"from"`
	To          string  `json:"to"`
	ThresholdMs float64 `json:"threshold_ms"`
	MagnitudeMs float64 `json:"magnitude_ms"`
	Evidence    float64 `json:"evidence"`
}

// linkState is one watched link.
type linkState struct {
	id       string
	vp       string
	caseName string
	target   prober.LinkTarget
	asym     bool
	col      *analysis.Collector
	det      *analysis.StreamDetector
	cursor   int // finalized slots fed so far
	recent   []Alert
	recentN  uint64
	verdicts map[float64]analysis.Verdict // handed in, or swept by Finalize
}

// Service is the streaming observatory. All methods are safe for
// concurrent use; the engine-facing feed path (Watch, ObserveBarrier)
// is allocation-free in the steady state, which the zero-alloc
// campaign test pins with a service attached.
type Service struct {
	cfg Config

	// feedMu serializes the paths that read watched collectors:
	// ObserveBarrier reads them under mu, but Finalize sweeps (and so
	// seals) them outside mu, so API reads never wait on a sweep.
	feedMu sync.Mutex

	mu      sync.RWMutex
	links   map[string]*linkState
	order   []*linkState // sorted by id — the deterministic feed order
	alerts  []Alert      // global ring, cap cfg.AlertCap
	alertN  uint64       // total alerts ever; Seq of the newest
	barrier simclock.Time
	fed     uint64 // total finalized slots fed across links

	// Feed scratch, reused across links and barriers.
	near, far []float64
	pend      []Alert

	hub *hub
}

// New builds a service.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:    cfg,
		links:  make(map[string]*linkState),
		alerts: make([]Alert, 0, cfg.AlertCap),
		near:   make([]float64, 0, 256),
		far:    make([]float64, 0, 256),
		pend:   make([]Alert, 0, 64),
		hub:    newHub(cfg.SubscriberBuf),
	}
}

// LinkID names a watched link in the API: "vp~near~far". All three
// components are URL-safe (VP ids and addresses are plain ASCII), so
// the id needs no escaping in /links/{id}.
func LinkID(vp string, target prober.LinkTarget) string {
	return vp + "~" + target.Near.String() + "~" + target.Far.String()
}

// Watch registers a link's collector with the service. Idempotent by
// (vp, target); call again after discovery refreshes to pick up new
// links. The asymmetric flag carries the record-route verdict that
// invalidates congestion attribution (mirroring the batch pipeline).
func (s *Service) Watch(vp string, target prober.LinkTarget, col *analysis.Collector, caseName string, asymmetric bool) {
	id := LinkID(vp, target)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.links[id]; ok {
		return
	}
	ls := &linkState{
		id:       id,
		vp:       vp,
		caseName: caseName,
		target:   target,
		asym:     asymmetric,
		col:      col,
		det:      analysis.NewStreamDetector(),
		recent:   make([]Alert, 0, s.cfg.LinkAlertCap),
	}
	s.links[id] = ls
	// Insert keeping s.order sorted by id: the feed (and with it the
	// alert log) must not depend on registration order, which can vary
	// with discovery grouping.
	i := len(s.order)
	for i > 0 && s.order[i-1].id > id {
		i--
	}
	s.order = append(s.order, nil)
	copy(s.order[i+1:], s.order[i:])
	s.order[i] = ls
}

// ObserveBarrier advances every link's streaming detector to the
// finalized-slot frontier at virtual time t. The engine calls it at
// batch barriers (when the worker pool is provably idle) and once
// after the campaign loop with t = campaign end to drain the tail.
// Feeding is cursor-based and idempotent per slot, so the cadence of
// calls — which depends on BatchSteps — cannot affect the alert log.
// Allocation-free in the steady state.
func (s *Service) ObserveBarrier(t simclock.Time) {
	s.feedMu.Lock()
	defer s.feedMu.Unlock()
	s.mu.Lock()
	if t.After(s.barrier) {
		s.barrier = t
	}
	pend := s.pend[:0]
	for _, ls := range s.order {
		n := ls.col.FinalizedBefore(t)
		if n <= ls.cursor {
			continue
		}
		cnt := n - ls.cursor
		near, far := s.feedScratch(cnt)
		ls.col.CopyAgg(ls.cursor, near, far)
		start, step, _ := ls.col.AggSpan()
		for i := 0; i < cnt; i++ {
			at := start.Add(step * simclock.Duration(ls.cursor+i))
			if tr, ok := ls.det.Observe(at, near[i], far[i]); ok {
				pend = append(pend, Alert{
					Link:        ls.id,
					AtNs:        int64(tr.At),
					From:        tr.From.String(),
					To:          tr.To.String(),
					ThresholdMs: tr.ThresholdMs,
					MagnitudeMs: tr.MagnitudeMs,
					Evidence:    tr.Evidence,
				})
			}
		}
		ls.cursor = n
		s.fed += uint64(cnt)
	}
	if len(pend) > 0 {
		// Deterministic order within the barrier: (slot time, link id).
		// Barriers partition slot times into disjoint ascending ranges,
		// so the concatenation across barriers — the alert log — is the
		// global (time, link) order for any BatchSteps.
		for i := 1; i < len(pend); i++ {
			for j := i; j > 0 && alertBefore(pend[j], pend[j-1]); j-- {
				pend[j], pend[j-1] = pend[j-1], pend[j]
			}
		}
		// The human-readable At is filled at serve time (fillAt): string
		// formatting here would put an allocation on the barrier path.
		for i := range pend {
			s.alertN++
			pend[i].Seq = s.alertN
			s.appendAlert(pend[i])
		}
	}
	s.pend = pend[:0]
	s.publishLocked(t, len(pend))
	s.mu.Unlock()
	s.hub.wake()
}

func alertBefore(a, b Alert) bool {
	if a.AtNs != b.AtNs {
		return a.AtNs < b.AtNs
	}
	return a.Link < b.Link
}

// feedScratch returns cnt-length copy buffers, growing geometrically
// on the rare barrier whose span outgrows them.
func (s *Service) feedScratch(cnt int) (near, far []float64) {
	if cap(s.near) < cnt {
		grow := 2 * cap(s.near)
		if grow < cnt {
			grow = cnt
		}
		s.near = make([]float64, 0, grow)
		s.far = make([]float64, 0, grow)
	}
	return s.near[:cnt], s.far[:cnt]
}

// appendAlert commits one sequenced alert to the global and per-link
// rings. Ring positions follow from Seq, so no shifting ever happens.
func (s *Service) appendAlert(a Alert) {
	if len(s.alerts) < cap(s.alerts) {
		s.alerts = append(s.alerts, a)
	} else {
		s.alerts[int((a.Seq-1)%uint64(cap(s.alerts)))] = a
	}
	ls := s.links[a.Link]
	if cap(ls.recent) == 0 {
		return
	}
	if len(ls.recent) < cap(ls.recent) {
		ls.recent = append(ls.recent, a)
	} else {
		ls.recent[int(ls.recentN%uint64(cap(ls.recent)))] = a
	}
	ls.recentN++
}

// SetLinkVerdicts hands a watched link its per-threshold batch
// verdicts — the engine's own, computed by its analysis phase — so the
// service need not sweep the link again. The map is copied (the
// Verdict values are; the slices and series inside them are the
// sweep's immutable results and stay shared), and the service applies
// its own asymmetric-route override, which is idempotent on verdicts
// the engine already overrode. Unwatched links are ignored.
func (s *Service) SetLinkVerdicts(vp string, target prober.LinkTarget, verdicts map[float64]analysis.Verdict) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.links[LinkID(vp, target)]
	if ls == nil {
		return
	}
	m := make(map[float64]analysis.Verdict, len(verdicts))
	for thr, v := range verdicts {
		m[thr] = ls.override(v)
	}
	ls.verdicts = m
}

// override applies the record-route verdict: an asymmetric route
// invalidates the TSLP attribution, exactly as in the engine.
func (ls *linkState) override(v analysis.Verdict) analysis.Verdict {
	if ls.asym {
		v.Symmetric = false
		v.Congested = false
	}
	return v
}

// covers reports whether verdicts holds every threshold.
func covers(verdicts map[float64]analysis.Verdict, thresholds []float64) bool {
	for _, thr := range thresholds {
		if _, ok := verdicts[thr]; !ok {
			return false
		}
	}
	return true
}

// Finalize completes the end-of-campaign verdicts: every watched link
// whose handed-in verdicts (SetLinkVerdicts) miss a threshold is swept
// (analysis.Sweeper.AnalyzeLinkSweep over its sealed series — the same pure
// function over the same input as the engine's Reanalyze, so the
// verdicts are bit-identical to the engine's; DESIGN.md §16). The
// engine hands every link over first, so its Finalize sweeps nothing;
// a replayed service that nobody hands verdicts to sweeps them all.
// The sweep runs outside the read-write lock and its maps are
// installed under one short write lock, so API reads never stall
// behind it. Call it once collectors are done being written.
func (s *Service) Finalize(thresholds []float64) {
	s.feedMu.Lock()
	defer s.feedMu.Unlock()
	s.mu.RLock()
	var todo []*linkState
	for _, ls := range s.order {
		if !covers(ls.verdicts, thresholds) {
			todo = append(todo, ls)
		}
	}
	s.mu.RUnlock()
	if len(todo) == 0 {
		return
	}
	swept := make([]map[float64]analysis.Verdict, len(todo))
	sw := analysis.NewSweeper()
	for i, ls := range todo {
		verdicts := sw.AnalyzeLinkSweep(ls.col.Series(), analysis.DefaultConfig(), thresholds)
		m := make(map[float64]analysis.Verdict, len(thresholds))
		for k, thr := range thresholds {
			m[thr] = ls.override(verdicts[k])
		}
		swept[i] = m
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, ls := range todo {
		if !covers(ls.verdicts, thresholds) { // handed in meanwhile: keep those
			ls.verdicts = swept[i]
		}
	}
}

// Barrier is the latest virtual time the service has been fed to.
func (s *Service) Barrier() simclock.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.barrier
}

// FedSlots is the total number of finalized aggregated slots fed
// across all links — the feed path's non-vacuousness counter.
func (s *Service) FedSlots() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.fed
}

// TotalAlerts is the number of alerts ever emitted (the newest Seq).
func (s *Service) TotalAlerts() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.alertN
}

// NumLinks is the number of watched links.
func (s *Service) NumLinks() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.order)
}

// AlertsSince appends to dst the alerts with Seq > since that are
// still in the ring, in sequence order, and returns the slice plus the
// oldest retained sequence number (alerts older than it are gone).
func (s *Service) AlertsSince(since uint64, limit int, dst []Alert) ([]Alert, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	base := s.alertN - uint64(len(s.alerts)) // alerts held: (base, alertN]
	from := since
	if from < base {
		from = base
	}
	// A since at or past the newest alert (any uint64 may arrive from
	// the query) matches nothing; stopping here keeps from+1 from
	// wrapping to 0.
	for seq := from + 1; from < s.alertN && seq <= s.alertN; seq++ {
		if limit > 0 && len(dst) >= limit {
			break
		}
		dst = append(dst, s.alerts[int((seq-1)%uint64(cap(s.alerts)))])
	}
	return dst, base + 1
}

// LinkVerdicts returns a watched link's per-threshold batch verdicts
// (nil until they are handed in or Finalize sweeps them). The map is a
// copy.
func (s *Service) LinkVerdicts(vp string, target prober.LinkTarget) map[float64]analysis.Verdict {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ls := s.links[LinkID(vp, target)]
	if ls == nil || ls.verdicts == nil {
		return nil
	}
	out := make(map[float64]analysis.Verdict, len(ls.verdicts))
	for k, v := range ls.verdicts {
		out[k] = v
	}
	return out
}

// LinkState returns a watched link's current streaming state name
// ("clear", "suspected", "congested"), or "" if unknown.
func (s *Service) LinkState(vp string, target prober.LinkTarget) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ls := s.links[LinkID(vp, target)]
	if ls == nil {
		return ""
	}
	return ls.det.State().String()
}
