// Package faults injects deterministic measurement-plane faults into
// a built scenario world: vantage-point outages (the paper's SIXP VP
// was offline for stretches and RINEX was decommissioned mid-study),
// ICMP blackouts and rate-limiting at case-link routers (the
// unresponsive-router losses §5.1 works around), and link flaps.
//
// Every fault is a pure function of virtual time, placed by SplitMix64
// draws seeded from the world seed, and every episode boundary is
// registered as a scenario event whose only action is counting itself
// for telemetry. The campaign engine's batch
// planner treats pending events as barriers, so fault boundaries
// split probing batches exactly like membership churn does — and
// because nothing here keeps mutable state on the sampling path,
// results stay bit-identical at any Workers × BatchSteps setting
// (DESIGN.md §10).
package faults

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"afrixp/internal/netsim"
	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
)

// Kind classifies a fault episode.
type Kind uint8

// Fault kinds.
const (
	// VPOutage takes a vantage point offline: no probes are sent, so
	// every watched link records missing samples for the episode.
	VPOutage Kind = iota
	// ICMPBlackout silences a case link's far-end router: probes
	// arrive but are never answered.
	ICMPBlackout
	// ICMPRateLimit polices a case link's near-end router with a
	// deterministic duty cycle: only a fraction of minutes inside the
	// episode are answered.
	ICMPRateLimit
	// LinkFlap takes a case link's far port down entirely — probes
	// (and background traffic) are dropped in both directions.
	LinkFlap
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case VPOutage:
		return "vp-outage"
	case ICMPBlackout:
		return "icmp-blackout"
	case ICMPRateLimit:
		return "icmp-rate-limit"
	default:
		return "link-flap"
	}
}

// Fault describes one injected episode.
type Fault struct {
	Kind   Kind
	Target string // VP ID, or "VP/CASE" for link-scoped faults
	Window simclock.Interval
}

// Config seeds and confines the fault plan. The zero value runs the
// full plan over the campaign interval handed to Inject.
type Config struct {
	// Seed perturbs the fault schedule independently of the world;
	// the effective stream is world.Seed ^ Seed ^ a package constant.
	Seed uint64
	// Window confines every fault episode. The zero interval means
	// the campaign interval handed to Inject. Tests park faults in a
	// window disjoint from the probed interval to check dormancy.
	Window simclock.Interval
}

// The fault plan's intensity: episodes per target and the range each
// episode's length is drawn from.
const (
	// vpOutages is the number of outage episodes per vantage point.
	vpOutages            = 2
	outageMin, outageMax = 6 * time.Hour, 36 * time.Hour

	// blackouts is the number of far-end ICMP blackout episodes per
	// case link.
	blackouts                = 1
	blackoutMin, blackoutMax = 2 * time.Hour, 12 * time.Hour

	// rateLimits is the number of near-end duty-cycle rate-limiting
	// episodes per case link; rateLimitDuty is the fraction of minutes
	// answered inside an episode.
	rateLimits                 = 1
	rateLimitMin, rateLimitMax = 4 * time.Hour, 12 * time.Hour
	rateLimitDuty              = 0.75

	// linkFlaps is the number of far-port flap episodes per case link.
	linkFlaps        = 2
	flapMin, flapMax = 5 * time.Minute, 45 * time.Minute
)

// Outage answers "is this vantage point down at t". The campaign hot
// loop consults it every probing step, so Down is nil-safe and
// allocation-free.
type Outage struct {
	ivs []simclock.Interval // sorted, non-overlapping
}

// Down reports whether t falls inside an outage episode.
func (o *Outage) Down(t simclock.Time) bool {
	if o == nil {
		return false
	}
	return within(o.ivs, t)
}

// Schedule is a materialized fault plan.
type Schedule struct {
	// Faults lists every injected episode, grouped by target in
	// injection order (VPs first, then per-VP case links).
	Faults []Fault

	vpOut map[string]*Outage

	// entered / exited count episode boundary events the world clock
	// has crossed. Atomic because the /metrics endpoint reads them
	// while the coordinator applies events; the counters are pure
	// accounting and feed nothing back into the schedule.
	entered, exited atomic.Uint64
}

// Entered returns how many episode begin-events have applied.
// Nil-safe (zero).
func (s *Schedule) Entered() uint64 {
	if s == nil {
		return 0
	}
	return s.entered.Load()
}

// Exited returns how many episode end-events have applied. Nil-safe.
func (s *Schedule) Exited() uint64 {
	if s == nil {
		return 0
	}
	return s.exited.Load()
}

// VPOutage returns the outage schedule for a VP ID, nil (always up)
// when the VP has none. Nil-safe on a nil schedule.
func (s *Schedule) VPOutage(id string) *Outage {
	if s == nil {
		return nil
	}
	return s.vpOut[id]
}

// ByKind returns the episodes of one kind, preserving order.
func (s *Schedule) ByKind(k Kind) []Fault {
	if s == nil {
		return nil
	}
	var out []Fault
	for _, f := range s.Faults {
		if f.Kind == k {
			out = append(out, f)
		}
	}
	return out
}

// Inject derives the fault plan from the world seed and installs it:
// ICMP silence schedules on case-link routers, flap gates on far
// ports, and one named no-op scenario event per episode boundary so
// the batch planner barriers on them. VP outages are returned in the
// schedule for the campaign engine to honor (the engine, not the
// network, owns "this VP sent nothing"). Call before the campaign
// starts advancing the world; the world clock must not have passed
// the fault window.
func Inject(w *scenario.World, campaign simclock.Interval, cfg Config) *Schedule {
	win := cfg.Window
	if win.Duration() <= 0 {
		win = campaign
	}
	seed := w.Seed ^ cfg.Seed ^ 0xFA017CAFE
	s := &Schedule{vpOut: make(map[string]*Outage)}

	// The boundary events mark episode edges so the batch planner
	// barriers on them; their only action is counting themselves for
	// telemetry, which touches no simulation state.
	record := func(k Kind, target string, ivs []simclock.Interval) {
		for _, iv := range ivs {
			s.Faults = append(s.Faults, Fault{Kind: k, Target: target, Window: iv})
			w.AddEvent(scenario.Event{At: iv.Start,
				Apply: func(*scenario.World) { s.entered.Add(1) },
				Name:  fmt.Sprintf("fault: %s %s begins", target, k)})
			w.AddEvent(scenario.Event{At: iv.End,
				Apply: func(*scenario.World) { s.exited.Add(1) },
				Name:  fmt.Sprintf("fault: %s %s ends", target, k)})
		}
	}

	for vi, vp := range w.VPs {
		stream := uint64(vi+1) << 16

		ivs := episodes(seed, stream|uint64(VPOutage), vpOutages,
			outageMin, outageMax, win)
		if len(ivs) > 0 {
			s.vpOut[vp.ID] = &Outage{ivs: ivs}
			record(VPOutage, vp.ID, ivs)
		}

		// Case-link faults, in sorted case order for determinism.
		// Only links that exist at injection time are targeted; links
		// a later membership event creates ride out the plan unfaulted.
		for ci, name := range sortedKeys(vp.CaseLinks) {
			target := vp.CaseLinks[name]
			label := vp.ID + "/" + name
			cstream := stream | uint64(ci+1)<<8

			if far, _, ok := w.Net.OwnerOfAddr(target.Far); ok {
				ivs := episodes(seed, cstream|uint64(ICMPBlackout), blackouts,
					blackoutMin, blackoutMax, win)
				far.ICMPDown = silentDuring(far.ICMPDown, ivs)
				record(ICMPBlackout, label, ivs)
			}
			if near, _, ok := w.Net.OwnerOfAddr(target.Near); ok {
				ivs := episodes(seed, cstream|uint64(ICMPRateLimit), rateLimits,
					rateLimitMin, rateLimitMax, win)
				near.ICMPDown = dutyCycle(near.ICMPDown, seed^cstream, ivs, rateLimitDuty)
				record(ICMPRateLimit, label, ivs)
			}
			if in, out, ok := w.Net.PipesAt(target.Far); ok {
				ivs := episodes(seed, cstream|uint64(LinkFlap), linkFlaps,
					flapMin, flapMax, win)
				flap(in, ivs)
				flap(out, ivs)
				w.Net.PipesChanged()
				record(LinkFlap, label, ivs)
			}
		}
	}
	return s
}

// episodes places count non-overlapping fault windows inside win by
// splitting it into count equal segments and drawing one episode per
// segment: the length uniform in [min, max] (clamped to the segment)
// and the start uniform in the segment's slack.
func episodes(seed, stream uint64, count int, min, max simclock.Duration,
	win simclock.Interval) []simclock.Interval {
	if count <= 0 || win.Duration() <= 0 {
		return nil
	}
	seg := win.Duration() / simclock.Duration(count)
	if max > seg {
		max = seg
	}
	if min > max {
		min = max
	}
	out := make([]simclock.Interval, 0, count)
	for i := 0; i < count; i++ {
		length := min + simclock.Duration(float64(max-min)*hashUnit(seed^stream, uint64(2*i)))
		if length <= 0 {
			continue
		}
		segStart := win.Start.Add(simclock.Duration(i) * seg)
		slack := simclock.Duration(float64(seg-length) * hashUnit(seed^stream, uint64(2*i+1)))
		start := segStart.Add(slack)
		out = append(out, simclock.Interval{Start: start, End: start.Add(length)})
	}
	return out
}

// within reports whether t falls inside any of the sorted,
// non-overlapping intervals. Manual binary search: this runs on the
// sampling hot path and must not allocate.
func within(ivs []simclock.Interval, t simclock.Time) bool {
	lo, hi := 0, len(ivs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ivs[mid].End <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ivs) && ivs[lo].Contains(t)
}

// silentDuring composes an ICMP-silence schedule over an existing one.
func silentDuring(prev func(simclock.Time) bool, ivs []simclock.Interval) func(simclock.Time) bool {
	if len(ivs) == 0 {
		return prev
	}
	return func(t simclock.Time) bool {
		if prev != nil && prev(t) {
			return true
		}
		return within(ivs, t)
	}
}

// dutyCycle silences the node during each episode except for a duty
// fraction of minutes, drawn per minute from the seed — a stateless
// stand-in for an ICMP token bucket. A real shared bucket would trade
// away cross-worker bit-determinism (see ProbePath.SampleCtx); a pure
// schedule polices the same probes for any worker interleaving.
func dutyCycle(prev func(simclock.Time) bool, seed uint64,
	ivs []simclock.Interval, duty float64) func(simclock.Time) bool {
	if len(ivs) == 0 {
		return prev
	}
	return func(t simclock.Time) bool {
		if prev != nil && prev(t) {
			return true
		}
		if !within(ivs, t) {
			return false
		}
		minute := uint64(t) / uint64(time.Minute)
		return hashUnit(seed, minute) >= duty
	}
}

// flap gates a pipe down during the given episodes, composing with
// any existing up-schedule (membership churn uses DownAfter gates).
// Data plane only: routes stay resolved, matching a flap shorter than
// a BGP hold timer. Resolved probe paths compile their pipes' gates, so
// the caller reports the change with Network.PipesChanged.
func flap(p *netsim.Pipe, ivs []simclock.Interval) {
	if p == nil || len(ivs) == 0 {
		return
	}
	prev := p.Up
	p.Up = func(t simclock.Time) bool {
		if prev != nil && !prev(t) {
			return false
		}
		return !within(ivs, t)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// hashUnit maps (seed, n) to a uniform [0,1) float — the same
// SplitMix64 construction netsim and trafficmodel use, so fault
// placement is reproducible without a shared RNG stream.
func hashUnit(seed, n uint64) float64 {
	z := seed + n*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}
