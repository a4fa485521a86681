// Package budget implements a deterministic probe-budget scheduler:
// the Anaximander-style reduction the roadmap calls for, layered
// between the step-batched campaign engine and the prober. Instead of
// probing every discovered link every round, the scheduler ranks links
// by marginal utility — recent level-shift evidence from a streaming
// CUSUM tap, loss-rate variance, and proximity to each link's diurnal
// congestion window — and assigns each link a power-of-two probing
// period under a global budget: flat links back off exponentially to
// a heartbeat floor, links with suspected level shifts densify back
// to full rate, and links whose detector verdict has been stable for
// long enough are retired early (plateau stopping) while keeping the
// floor heartbeat so late-onset congestion still wakes them.
//
// Determinism is load-bearing. The hot-path skip decision is pure
// integer arithmetic on the global step index, utility is recomputed
// only at fixed virtual-time barriers from per-link state that each
// VP's own worker wrote, and ranking ties break on registration
// order — so a budgeted campaign is IEEE-bit-identical for any
// Workers × BatchSteps, exactly like the unbudgeted engine.
package budget

import (
	"math"
	"sort"
	"time"

	"afrixp/internal/cusum"
	"afrixp/internal/simclock"
)

// Config tunes the scheduler. The zero value (Fraction 0) disables it.
type Config struct {
	// Fraction is the probe budget as a fraction of the full-rate
	// campaign, in (0,1]. Fraction 0 (the zero value) disables the
	// scheduler; Fraction ≥ 1 is clamped to 1 and runs the scheduler
	// at full rate — every link probed every round, spend parity with
	// an unscheduled campaign — so a budget sweep's 100% row takes the
	// same code path as 99.9%.
	Fraction float64
	// Seed perturbs the per-link phase hashes independently of the
	// world seed, so two budgeted campaigns with different budget
	// seeds interleave probes differently.
	Seed uint64
	// RecomputeEvery is the virtual-time cadence at which utilities
	// are re-ranked and rates reassigned; every recompute instant is a
	// batch barrier. Default 6 h.
	RecomputeEvery simclock.Duration
	// PlateauAfter is the number of consecutive recomputes a link's
	// detector verdict must stay unchanged (and flat) before the link
	// is retired to the floor and leaves the ranking pool. Default 8
	// (two days at the default cadence).
	PlateauAfter int
}

// The scheduler's fixed tuning.
const (
	// maxBackoff caps the exponential back-off ladder: a flat link's
	// period doubles per recompute up to 1<<maxBackoff rounds (the
	// heartbeat floor, every 16th round). New deepens the floor when
	// Fraction cannot be met at it.
	maxBackoff = 4
	// densifyEvidence is the CUSUM evidence level at which a link is
	// considered "suspect" and densified to full rate.
	densifyEvidence = 4
	// wakeEvidence re-activates a retired link when its heartbeat
	// samples accumulate this much evidence.
	wakeEvidence = 6
	// lossWeight scales the loss-rate-variance utility term.
	lossWeight = 4
	// diurnalWeight scales the diurnal-window-proximity utility term.
	diurnalWeight = 1
)

// Enabled reports whether the configuration runs the scheduler. Any
// positive Fraction does — including full budget (Fraction ≥ 1), which
// schedules every link every round.
func (c Config) Enabled() bool { return c.Fraction > 0 }

func (c Config) withDefaults() Config {
	if c.Fraction > 1 {
		c.Fraction = 1
	}
	if c.RecomputeEvery <= 0 {
		c.RecomputeEvery = 6 * time.Hour
	}
	if c.PlateauAfter <= 0 {
		c.PlateauAfter = 8
	}
	return c
}

// linkState is everything the scheduler knows about one link. It is
// written on the hot path only by the owning VP's worker (Observe)
// and read/rewritten only at barriers (RecomputeAt), so no field
// needs synchronization beyond the engine's existing barrier
// handoff.
type linkState struct {
	tap cusum.Stream

	// Window accumulators since the last recompute.
	rounds uint32
	lost   uint32

	// Loss-rate EWMA and variance proxy across recompute windows.
	lossRate float64
	lossVar  float64

	// Evidence-weighted circular accumulator of the hour-of-day at
	// which elevated samples arrive: the link's diurnal congestion
	// window, used for window-proximity scoring.
	sinSum float64
	cosSum float64
	wSum   float64

	utility   float64
	phaseHash uint32
	seq       uint32 // global registration order, the ranking tie-break
	period    uint32 // assigned probing period (power of two)
	mask      uint32 // period - 1, read by the hot-path Skip gate
	phase     uint32 // phaseHash & mask
	stable    int32  // consecutive recomputes with an unchanged verdict
	active    bool   // current verdict: evidence above densifyEvidence
	retired   bool   // plateau-stopped: floor heartbeat only
}

// VPLinks is one vantage point's view of the scheduler: link indices
// match the engine's sorted per-VP link slice. Methods are nil-safe
// so the engine's hot loop can call them unconditionally, like the
// faults.Outage gate.
type VPLinks struct {
	sch   *Scheduler
	links []linkState
}

// Scheduler owns the global ranking and budget assignment.
type Scheduler struct {
	cfg    Config
	next   simclock.Time
	floor  uint32
	vps    []*VPLinks
	nLinks int

	// Recompute scratch, reused so barrier work is allocation-free
	// once warm.
	rank []rankEntry

	recomputes int
	retiredNow int
	spendFrac  float64
}

type rankEntry struct {
	utility float64
	vp      int32
	li      int32
	seq     uint32
}

// New builds a scheduler for a campaign over the given interval. The
// first recompute barrier falls RecomputeEvery after campaign start.
func New(cfg Config, campaign simclock.Interval) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{cfg: cfg, next: campaign.Start.Add(cfg.RecomputeEvery)}
	s.floor = 1 << maxBackoff
	// A floor heartbeat of 1/floor per link is spent unconditionally;
	// deepen the floor until the heartbeat alone fits the budget.
	for cfg.Enabled() && 1/float64(s.floor) > cfg.Fraction && s.floor < 1<<12 {
		s.floor <<= 1
	}
	return s
}

// AddVP registers a vantage point and returns its link view.
func (s *Scheduler) AddVP() *VPLinks {
	v := &VPLinks{sch: s}
	s.vps = append(s.vps, v)
	return v
}

// Len is the number of links registered for this VP.
func (v *VPLinks) Len() int {
	if v == nil {
		return 0
	}
	return len(v.links)
}

// AddLink registers the VP's next link (index Len()) and returns its
// index. New links start at full rate: exploration is free evidence.
func (v *VPLinks) AddLink() int {
	s := v.sch
	seq := uint32(s.nLinks)
	s.nLinks++
	v.links = append(v.links, linkState{
		seq:       seq,
		period:    1,
		phaseHash: phaseHash(s.cfg.Seed, seq),
	})
	return len(v.links) - 1
}

// phaseHash spreads link phases across their periods so skipped
// rounds interleave instead of synchronizing (splitmix64 finalizer).
func phaseHash(seed uint64, seq uint32) uint32 {
	x := seed ^ (uint64(seq)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return uint32(x)
}

// Skip reports whether the budget schedule skips link li at global
// probing step stepIdx. Nil-safe, branch-and-mask only: this is the
// hot-path gate and must stay allocation-free.
func (v *VPLinks) Skip(li, stepIdx int) bool {
	if v == nil {
		return false
	}
	st := &v.links[li]
	return uint32(stepIdx)&st.mask != st.phase
}

// Observe feeds the round's far-side result for link li into the
// utility state: the CUSUM tap, the loss window, and the diurnal
// window accumulator. Called only by the owning VP's worker, only on
// rounds that were not skipped. Allocation-free.
func (v *VPLinks) Observe(li int, t simclock.Time, rttMs float64, lost bool) {
	if v == nil {
		return
	}
	st := &v.links[li]
	st.rounds++
	if lost {
		st.lost++
		return
	}
	// Elevation relative to the tap's pre-update baseline feeds the
	// diurnal accumulator: congested windows pull the circular mean
	// toward their hour of day.
	if st.tap.Samples() >= 8 {
		if d := rttMs - st.tap.Baseline(); d > 2*st.tap.Dev() && d > 0 {
			h := t.HourOfDay() * (2 * math.Pi / 24)
			sin, cos := math.Sincos(h)
			st.sinSum = diurnalDecay*st.sinSum + d*sin
			st.cosSum = diurnalDecay*st.cosSum + d*cos
			st.wSum = diurnalDecay*st.wSum + d
		} else {
			st.sinSum *= diurnalDecay
			st.cosSum *= diurnalDecay
			st.wSum *= diurnalDecay
		}
	}
	st.tap.Observe(rttMs)
}

// diurnalDecay leaks the circular accumulator with a horizon of a few
// hundred samples (~a day of 5-minute rounds), so the inferred
// congestion window tracks recent behaviour.
const diurnalDecay = 0.997

// Due reports whether a recompute barrier is due at or before t. The
// engine folds this into its quiescent predicate so recompute
// instants break batches deterministically.
func (s *Scheduler) Due(t simclock.Time) bool {
	return s != nil && t >= s.next
}

// RecomputeAt runs the barrier work at time t: fold the per-link
// windows, update verdicts and plateau state, re-rank by utility, and
// reassign periods under the budget. Must be called single-threaded
// (the engine's open step). Allocation-free once the scratch is warm.
func (s *Scheduler) RecomputeAt(t simclock.Time) {
	if s == nil || t < s.next {
		return
	}
	for s.next <= t {
		s.next = s.next.Add(s.cfg.RecomputeEvery)
	}
	s.recomputes++

	// Utility scoring evaluates diurnal proximity at the middle of
	// the upcoming window.
	hMid := t.Add(s.cfg.RecomputeEvery / 2).HourOfDay()

	if s.cfg.Fraction >= 1 {
		// Full budget: every link runs every round, period 1 across
		// the board and no back-off ladder. The utility state still
		// folds and verdicts still update so Stats reports the same
		// evidence the budgeted rows see — only assignment is
		// unconditional, keeping spend parity with an unscheduled
		// campaign.
		s.retiredNow = 0
		for _, v := range s.vps {
			for li := range v.links {
				st := &v.links[li]
				s.foldWindow(st)
				s.updateVerdict(st)
				st.utility = s.utility(st, hMid)
				if st.retired {
					s.retiredNow++
				}
				s.assign(st, 1)
			}
		}
		if s.nLinks > 0 {
			s.spendFrac = 1
		}
		return
	}

	s.rank = s.rank[:0]
	s.retiredNow = 0
	for vi, v := range s.vps {
		for li := range v.links {
			st := &v.links[li]
			s.foldWindow(st)
			s.updateVerdict(st)
			st.utility = s.utility(st, hMid)
			if st.retired {
				s.retiredNow++
				// Retired links are pinned to the floor and leave the
				// candidate pool entirely.
				s.assign(st, s.floor)
				continue
			}
			s.rank = append(s.rank, rankEntry{utility: st.utility, vp: int32(vi), li: int32(li), seq: st.seq})
		}
	}
	sort.Sort((*byUtility)(&s.rank))

	// Greedy assignment in utility order. Every link — retired or
	// not — costs at least the 1/floor heartbeat, reserved up front;
	// the remainder buys rate upgrades for the highest-utility links
	// first. Spending is in probes-per-round units, so the sum of
	// 1/period across links never exceeds Fraction × links.
	left := 0.0
	if s.cfg.Enabled() {
		left = (s.cfg.Fraction - 1/float64(s.floor)) * float64(s.nLinks)
	}
	floorCost := 1 / float64(s.floor)
	spent := float64(s.nLinks) * floorCost
	for i := range s.rank {
		e := &s.rank[i]
		st := &s.vps[e.vp].links[e.li]
		p := s.desiredPeriod(st)
		for p < s.floor && 1/float64(p)-floorCost > left {
			p <<= 1
		}
		left -= 1/float64(p) - floorCost
		spent += 1/float64(p) - floorCost
		s.assign(st, p)
	}
	if s.nLinks > 0 {
		s.spendFrac = spent / float64(s.nLinks)
	}
}

// foldWindow folds the since-last-recompute loss window into the
// cross-window EWMA rate and variance.
func (s *Scheduler) foldWindow(st *linkState) {
	if st.rounds == 0 {
		return
	}
	rate := float64(st.lost) / float64(st.rounds)
	d := rate - st.lossRate
	st.lossRate += 0.3 * d
	st.lossVar += 0.3 * (d*d - st.lossVar)
	st.rounds, st.lost = 0, 0
}

// updateVerdict applies the plateau rule: verdicts that stay
// unchanged for PlateauAfter recomputes retire flat links to the
// heartbeat floor; wakeEvidence on the heartbeat un-retires them.
func (s *Scheduler) updateVerdict(st *linkState) {
	ev := st.tap.Evidence()
	active := ev >= densifyEvidence
	if active == st.active {
		if st.stable < math.MaxInt32 {
			st.stable++
		}
	} else {
		st.active = active
		st.stable = 0
	}
	if st.retired {
		if ev >= wakeEvidence {
			st.retired = false
			st.stable = 0
		}
		return
	}
	if !st.active && st.stable >= int32(s.cfg.PlateauAfter) {
		st.retired = true
	}
}

// utility scores a link's expected marginal information.
func (s *Scheduler) utility(st *linkState, hMid float64) float64 {
	u := st.tap.Evidence()
	u += lossWeight * math.Sqrt(st.lossVar)
	if st.wSum > 1e-9 {
		// Proximity of the upcoming window to the link's inferred
		// diurnal congestion peak, weighted by how concentrated the
		// elevation mass is around that peak.
		peak := math.Atan2(st.sinSum, st.cosSum)
		conc := math.Hypot(st.sinSum, st.cosSum) / st.wSum
		prox := math.Cos(hMid*(2*math.Pi/24) - peak)
		if prox > 0 {
			u += diurnalWeight * conc * prox
		}
	}
	return u
}

// desiredPeriod is the rate ladder before budget capping: suspects run
// at full rate, flat links double their period per recompute down to
// the floor.
func (s *Scheduler) desiredPeriod(st *linkState) uint32 {
	if st.active {
		return 1
	}
	p := st.period << 1
	if p > s.floor {
		p = s.floor
	}
	if p == 0 {
		p = 1
	}
	return p
}

func (s *Scheduler) assign(st *linkState, p uint32) {
	st.period = p
	st.mask = p - 1
	st.phase = st.phaseHash & st.mask
}

type byUtility []rankEntry

func (r *byUtility) Len() int      { return len(*r) }
func (r *byUtility) Swap(i, j int) { (*r)[i], (*r)[j] = (*r)[j], (*r)[i] }
func (r *byUtility) Less(i, j int) bool {
	a, b := &(*r)[i], &(*r)[j]
	if a.utility != b.utility {
		return a.utility > b.utility
	}
	return a.seq < b.seq
}

// Stats is a snapshot of scheduler state for reporting.
type Stats struct {
	// Links is the number of registered links.
	Links int
	// Retired is how many are currently plateau-stopped.
	Retired int
	// Recomputes is how many barrier recomputes have run.
	Recomputes int
	// SpendFrac is the probes-per-round spend fraction assigned at
	// the last recompute (≤ the configured Fraction).
	SpendFrac float64
	// Floor is the heartbeat period (1<<maxBackoff, possibly
	// deepened to fit Fraction).
	Floor int
}

// SkipRecomputesTo advances the recompute-barrier cursor past t
// without running any barrier work. The engine's checkpoint replay
// uses it: a resumed campaign re-walks the pre-checkpoint steps
// without probing, so there is no window state to fold, but the
// barrier chain must stay aligned with the uninterrupted run (and
// with the quiescent predicate, which would otherwise see an overdue
// barrier at every step). Nil-safe.
func (s *Scheduler) SkipRecomputesTo(t simclock.Time) {
	if s == nil {
		return
	}
	for s.next <= t {
		s.next = s.next.Add(s.cfg.RecomputeEvery)
	}
}

// LinkCheckpoint is one link's serializable scheduler state for engine
// checkpoints (DESIGN.md §15). Identity fields (seq, phaseHash) are
// reconstructed by replayed AddLink registration; mask and phase are
// re-derived from Period on restore.
type LinkCheckpoint struct {
	Tap                  cusum.StreamState
	Rounds, Lost         uint32
	LossRate, LossVar    float64
	SinSum, CosSum, WSum float64
	Utility              float64
	Period               uint32
	Stable               int32
	Active, Retired      bool
}

// SchedulerCheckpoint is the scheduler's full serializable state.
type SchedulerCheckpoint struct {
	Next       simclock.Time
	Recomputes int
	RetiredNow int
	SpendFrac  float64
	// VPs holds per-VP link state in AddVP/AddLink registration order.
	VPs [][]LinkCheckpoint
}

// Checkpoint captures the scheduler at a batch barrier.
func (s *Scheduler) Checkpoint() *SchedulerCheckpoint {
	if s == nil {
		return nil
	}
	ck := &SchedulerCheckpoint{
		Next:       s.next,
		Recomputes: s.recomputes,
		RetiredNow: s.retiredNow,
		SpendFrac:  s.spendFrac,
		VPs:        make([][]LinkCheckpoint, len(s.vps)),
	}
	for vi, v := range s.vps {
		links := make([]LinkCheckpoint, len(v.links))
		for li := range v.links {
			st := &v.links[li]
			links[li] = LinkCheckpoint{
				Tap:      st.tap.State(),
				Rounds:   st.rounds,
				Lost:     st.lost,
				LossRate: st.lossRate,
				LossVar:  st.lossVar,
				SinSum:   st.sinSum,
				CosSum:   st.cosSum,
				WSum:     st.wSum,
				Utility:  st.utility,
				Period:   st.period,
				Stable:   st.stable,
				Active:   st.active,
				Retired:  st.retired,
			}
		}
		ck.VPs[vi] = links
	}
	return ck
}

// RestoreCheckpoint overwrites the scheduler's mutable state from a
// snapshot taken at the same barrier of an equivalent run. Every VP
// and link must already be registered (the resumed run replays the
// same discovery), with identical counts. Panics on shape mismatch —
// that means the resume ran against a different world.
func (s *Scheduler) RestoreCheckpoint(ck *SchedulerCheckpoint) {
	if s == nil || ck == nil {
		if (s == nil) != (ck == nil) {
			panic("budget: RestoreCheckpoint scheduler presence mismatch")
		}
		return
	}
	if len(ck.VPs) != len(s.vps) {
		panic("budget: RestoreCheckpoint VP count mismatch")
	}
	s.next = ck.Next
	s.recomputes = ck.Recomputes
	s.retiredNow = ck.RetiredNow
	s.spendFrac = ck.SpendFrac
	for vi, v := range s.vps {
		if len(ck.VPs[vi]) != len(v.links) {
			panic("budget: RestoreCheckpoint link count mismatch")
		}
		for li := range v.links {
			st := &v.links[li]
			lc := &ck.VPs[vi][li]
			st.tap.RestoreState(lc.Tap)
			st.rounds = lc.Rounds
			st.lost = lc.Lost
			st.lossRate = lc.LossRate
			st.lossVar = lc.LossVar
			st.sinSum = lc.SinSum
			st.cosSum = lc.CosSum
			st.wSum = lc.WSum
			st.utility = lc.Utility
			st.stable = lc.Stable
			st.active = lc.Active
			st.retired = lc.Retired
			s.assign(st, lc.Period)
		}
	}
}

// Stats snapshots the scheduler.
func (s *Scheduler) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Links:      s.nLinks,
		Retired:    s.retiredNow,
		Recomputes: s.recomputes,
		SpendFrac:  s.spendFrac,
		Floor:      int(s.floor),
	}
}
