// Package telemetry is the campaign-wide instrumentation layer: lock-
// free counters, gauges, and fixed-bucket histograms, plus a bounded
// structured span/event log stamping every campaign phase with both
// virtual-clock and wall-clock time.
//
// The design rule is that telemetry is strictly read-side: nothing in
// this package feeds a value back into the simulation, so campaign
// results are bit-identical with telemetry on or off, at any worker
// count or batch size (TestTelemetryCampaignBitIdentical pins it).
// The second rule is that the steady-state probing step must stay at
// zero heap allocations with collection enabled: every metric is
// preallocated at construction and updated with atomic operations;
// the hottest counters (per-probe outcomes) are not even atomic —
// each vantage point's ProbeCtx counts into plain uint64s that the
// campaign coordinator republishes here at batch barriers, when the
// workers are quiescent (see netsim.ProbeStats and DESIGN.md §11).
//
// Readers (the JSON snapshot writer, the /metrics HTTP handler, the
// expvar hook) may run concurrently with a campaign: everything they
// touch is either atomic or guarded by the span-log mutex.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"afrixp/internal/simclock"
)

// Counter is a lock-free monotonic (or republished) counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Store republishes an externally-accumulated total — how the
// campaign coordinator mirrors per-worker plain counters at barriers.
func (c *Counter) Store(n uint64) { c.v.Store(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a lock-free instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram: bounds are immutable after
// construction and every bucket is a preallocated atomic counter, so
// Observe never allocates. Bucket i counts observations ≤ Bounds[i];
// the last bucket (len(Bounds)) is the overflow.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64
}

// NewHistogram builds a histogram over the given ascending bounds.
func NewHistogram(bounds ...float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending at %d", i))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
}

// NumBuckets returns the bucket count (bounds + overflow).
func (h *Histogram) NumBuckets() int { return len(h.counts) }

// StoreBucket republishes an externally-accumulated bucket total —
// the barrier-time mirror of a per-worker plain bucket array.
func (h *Histogram) StoreBucket(i int, n uint64) { h.counts[i].Store(n) }

// snapshot captures bounds and counts.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Bounds: h.bounds, Counts: make([]uint64, len(h.counts))}
	for i := range h.counts {
		n := h.counts[i].Load()
		s.Counts[i] = n
		s.Total += n
	}
	return s
}

// Span and event log capacities. The logs are preallocated at these
// caps and never grow: a campaign that out-produces them (e.g. a
// full-period run at BatchSteps=1 emits one probe-batch span per
// step) drops the excess and counts it in SpansDropped/EventsDropped
// rather than allocating without bound.
const (
	spanCap  = 4096
	eventCap = 8192
)

// Span is one recorded campaign phase: a virtual-time window plus the
// wall-clock window in which the engine executed it.
type Span struct {
	Phase     string
	Label     string
	VStart    simclock.Time
	VEnd      simclock.Time
	WallStart time.Time
	WallEnd   time.Time
}

// SpanRef identifies an open span; a negative ref is a dropped or
// nil-telemetry span and EndSpan ignores it.
type SpanRef int

// SpanNone is the ref of a span that was never opened.
const SpanNone SpanRef = -1

// EngineStats instruments the campaign engine: the batch planner and
// the persistent worker pool.
type EngineStats struct {
	// BatchesOpened counts barrier steps (batch-planner open calls);
	// QuiescentSteps counts the steps batched beyond their opener;
	// Flushes counts worker-pool dispatch rounds; RoundsDispatched
	// counts per-VP probing rounds (batch steps × vantage points).
	BatchesOpened, QuiescentSteps, Flushes, RoundsDispatched Counter
	// CapClosed counts batches the BatchSteps cap closed rather than a
	// due barrier hook (see hookForced).
	CapClosed Counter
	// BatchLen is the distribution of steps per flushed batch.
	BatchLen *Histogram

	// workerBusy accumulates per-worker busy nanoseconds. Sized once
	// by SetWorkers before the pool starts; each worker adds only to
	// its own slot.
	workerBusy []atomic.Int64

	// shards holds the campaign engine's per-shard gauges. Sized once
	// by SetShards before probing starts; the engine atomically Sets
	// each gauge at batch barriers, so the steady-state probe step
	// stays allocation-free.
	shards []ShardGauges

	// hookNames, hookCalls and hookNS time each barrier hook: runs
	// and wall nanoseconds. hookForced counts the batches each hook
	// stopped by being due (several hooks may force one barrier).
	// Sized once by SetHooks before probing starts; the engine adds to
	// one slot per hook run, allocation-free.
	hookNames                     []string
	hookCalls, hookNS, hookForced []Counter
}

// ShardGauges instruments one campaign shard: resident series bytes
// (the shard's chunk arena plus per-collector state), the number of
// links the shard owns, and probing rounds scheduled so far.
type ShardGauges struct {
	ResidentBytes Gauge
	LinksOwned    Gauge
	Rounds        Gauge
}

// SetWorkers sizes the per-worker busy-time table. Call before the
// worker pool starts; it is the only EngineStats allocation.
func (e *EngineStats) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	e.workerBusy = make([]atomic.Int64, n)
}

// AddWorkerBusy credits busy time to worker k. Nil-safe.
func (e *EngineStats) AddWorkerBusy(k int, d time.Duration) {
	if e != nil && k >= 0 && k < len(e.workerBusy) {
		e.workerBusy[k].Add(int64(d))
	}
}

// SetShards sizes the per-shard gauge table. Call before probing
// starts (it is the table's only allocation); n ≤ 0 clears it — no
// shard lines in reports.
func (e *EngineStats) SetShards(n int) {
	if n <= 0 {
		e.shards = nil
		return
	}
	e.shards = make([]ShardGauges, n)
}

// Shard returns shard k's gauges, or nil when no table is sized or k
// is out of range — callers publish through the returned pointer.
func (e *EngineStats) Shard(k int) *ShardGauges {
	if k < 0 || k >= len(e.shards) {
		return nil
	}
	return &e.shards[k]
}

// SetHooks sizes the per-hook timing table, one slot per name in
// barrier order. Call before probing starts.
func (e *EngineStats) SetHooks(names []string) {
	e.hookNames = names
	e.hookCalls = make([]Counter, len(names))
	e.hookNS = make([]Counter, len(names))
	e.hookForced = make([]Counter, len(names))
}

// AddHook credits one run of hook k taking d. Nil-safe.
func (e *EngineStats) AddHook(k int, d time.Duration) {
	if e != nil && k >= 0 && k < len(e.hookNames) {
		e.hookCalls[k].Inc()
		e.hookNS[k].Add(uint64(d))
	}
}

// AddForced counts one batch that hook k stopped by being due.
// Nil-safe.
func (e *EngineStats) AddForced(k int) {
	if e != nil && k >= 0 && k < len(e.hookNames) {
		e.hookForced[k].Inc()
	}
}

// ProbeStats mirrors the measurement plane's hot-path accounting:
// per-probe outcomes on the frozen sampling path (republished from
// per-VP plain counters at batch barriers) and the packet-level
// injection walks discovery performs.
type ProbeStats struct {
	// Probes counts frozen TSLP samples sent; Delivered the ones that
	// came back. PipeDrops, ICMPSilenced, and RateLimited split the
	// losses by cause: queue/gate drops in a pipe, an ICMP-down (or
	// blackout) responder, and control-plane policing respectively.
	Probes, Delivered, PipeDrops, ICMPSilenced, RateLimited Counter
	// QueueFrozenObs counts frozen fluid-queue observations (pipe
	// traversals that consulted a queue's recorded frontier).
	QueueFrozenObs Counter
	// InjectWalks counts packet-level Network.Inject walks (discovery
	// traceroutes, pings, record-route probes), split by outcome.
	InjectWalks, InjectDelivered, InjectLost, InjectUnreachable Counter
	// RTT is the delivered-probe RTT distribution in microseconds
	// (power-of-two buckets, mirroring netsim.ProbeStats.RTTBuckets).
	RTT *Histogram
}

// AnalysisStats instruments the threshold-sweep analysis phase.
type AnalysisStats struct {
	// Sweeps counts AnalyzeLinkSweep runs (one per link per pass).
	Sweeps Counter
	// FoldsComputed and FoldsReused count diurnal day-folds computed
	// versus served from the per-link event-window cache; the hit
	// rate is the detect-once/threshold-many win on the diurnal leg.
	FoldsComputed, FoldsReused Counter
}

// FaultStats instruments the injected fault plan.
type FaultStats struct {
	// Planned is the episode count in the schedule; Entered and
	// Exited count episode boundary events the world clock crossed.
	Planned, Entered, Exited Counter
}

// Telemetry is one campaign's instrumentation root. Create with New
// (or NewWithClock in tests), hand it to the campaign via
// experiments.Config.Telemetry / afrixp.CampaignConfig.Telemetry, and
// read it any time through Snapshot, WriteJSON, or Serve.
type Telemetry struct {
	Engine   EngineStats
	Probe    ProbeStats
	Analysis AnalysisStats
	Faults   FaultStats

	// SpansDropped / EventsDropped count log entries discarded once
	// the preallocated logs filled.
	SpansDropped, EventsDropped Counter

	now   func() time.Time
	start time.Time

	mu     sync.Mutex
	spans  []Span
	events []Event
}

// Event is one timestamped log line (a campaign progress message).
type Event struct {
	Phase string
	V     simclock.Time
	Wall  time.Time
	Msg   string
}

// rttBucketCount matches netsim.RTTBucketCount: bucket i holds RTTs
// whose microsecond count has bit length i, i.e. [2^(i-1), 2^i) µs.
const rttBucketCount = 18

// New builds a telemetry root with all metrics preallocated.
func New() *Telemetry { return NewWithClock(time.Now) }

// NewWithClock is New with an injectable wall-clock source, letting
// tests produce deterministic snapshots.
func NewWithClock(now func() time.Time) *Telemetry {
	t := &Telemetry{now: now, start: now()}
	t.Engine.BatchLen = NewHistogram(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
	bounds := make([]float64, rttBucketCount-1)
	for i := range bounds {
		bounds[i] = float64(uint64(1) << i) // ≤ 2^i µs
	}
	t.Probe.RTT = NewHistogram(bounds...)
	t.Engine.SetWorkers(1)
	return t
}

// Start returns the wall-clock instant the telemetry was created.
func (t *Telemetry) Start() time.Time { return t.start }

// BeginSpan opens a phase span at virtual time v. It returns a ref
// for EndSpan; on a nil receiver or a full span log it drops the span
// and returns a negative ref. Allocation-free once the log exists.
func (t *Telemetry) BeginSpan(phase, label string, v simclock.Time) SpanRef {
	if t == nil {
		return -1
	}
	wall := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans == nil {
		t.spans = make([]Span, 0, spanCap)
	}
	if len(t.spans) >= spanCap {
		t.SpansDropped.Inc()
		return -1
	}
	t.spans = append(t.spans, Span{Phase: phase, Label: label, VStart: v, VEnd: v, WallStart: wall, WallEnd: wall})
	return SpanRef(len(t.spans) - 1)
}

// EndSpan closes a span at virtual time v. Negative refs are ignored,
// so callers never need to branch on dropped spans.
func (t *Telemetry) EndSpan(ref SpanRef, v simclock.Time) {
	if t == nil || ref < 0 {
		return
	}
	wall := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(ref) >= len(t.spans) {
		return
	}
	t.spans[ref].VEnd = v
	t.spans[ref].WallEnd = wall
}

// AddSpan records a closed span in one call — used for windows known
// after the fact (fault episodes, whose virtual window is fixed at
// injection time). Both wall stamps are the recording instant.
func (t *Telemetry) AddSpan(phase, label string, vStart, vEnd simclock.Time) {
	ref := t.BeginSpan(phase, label, vStart)
	t.EndSpan(ref, vEnd)
}

// Eventf appends a formatted event at virtual time v and returns the
// wall time elapsed since telemetry start (for progress stamping).
func (t *Telemetry) Eventf(phase string, v simclock.Time, format string, args ...any) time.Duration {
	if t == nil {
		return 0
	}
	wall := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.events == nil {
		t.events = make([]Event, 0, eventCap)
	}
	if len(t.events) >= eventCap {
		t.EventsDropped.Inc()
		return wall.Sub(t.start)
	}
	t.events = append(t.events, Event{Phase: phase, V: v, Wall: wall, Msg: fmt.Sprintf(format, args...)})
	return wall.Sub(t.start)
}

// Spans returns a copy of the recorded spans.
func (t *Telemetry) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Events returns a copy of the recorded events.
func (t *Telemetry) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// ---------------------------------------------------------------
// Snapshot: the JSON export shared by -metrics files, the /metrics
// endpoint, the expvar hook, and the observatory report section.
// ---------------------------------------------------------------

// HistogramSnapshot is a histogram's frozen buckets.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Total  uint64    `json:"total"`
}

// WorkerSnapshot is one pool worker's busy accounting.
type WorkerSnapshot struct {
	Worker      int     `json:"worker"`
	BusyNS      int64   `json:"busy_ns"`
	Utilization float64 `json:"utilization"`
}

// ShardSnapshot is one campaign shard's gauge reading. RoundsPerSec
// divides scheduled rounds by the telemetry wall clock, a throughput
// figure comparable across shard counts.
type ShardSnapshot struct {
	Shard         int     `json:"shard"`
	ResidentBytes int64   `json:"resident_bytes"`
	LinksOwned    int64   `json:"links_owned"`
	Rounds        int64   `json:"rounds"`
	RoundsPerSec  float64 `json:"rounds_per_sec"`
}

// HookSnapshot is one barrier hook's accumulated wall time and the
// number of batches it forced closed.
type HookSnapshot struct {
	Hook   string `json:"hook"`
	Calls  uint64 `json:"calls"`
	WallNS uint64 `json:"wall_ns"`
	Forced uint64 `json:"forced"`
}

// SpanSnapshot is a span rendered for export.
type SpanSnapshot struct {
	Phase          string `json:"phase"`
	Label          string `json:"label,omitempty"`
	VStart         string `json:"v_start"`
	VEnd           string `json:"v_end"`
	VDurationNS    int64  `json:"v_duration_ns"`
	WallOffsetNS   int64  `json:"wall_offset_ns"`
	WallDurationNS int64  `json:"wall_duration_ns"`
}

// EventSnapshot is an event rendered for export.
type EventSnapshot struct {
	Phase        string `json:"phase"`
	V            string `json:"v"`
	WallOffsetNS int64  `json:"wall_offset_ns"`
	Msg          string `json:"msg"`
}

// EngineSnapshot freezes EngineStats.
type EngineSnapshot struct {
	BatchesOpened    uint64            `json:"batches_opened"`
	QuiescentSteps   uint64            `json:"quiescent_steps"`
	Flushes          uint64            `json:"flushes"`
	RoundsDispatched uint64            `json:"rounds_dispatched"`
	CapClosed        uint64            `json:"cap_closed,omitempty"`
	BatchLen         HistogramSnapshot `json:"batch_len"`
	Workers          []WorkerSnapshot  `json:"workers"`
	Shards           []ShardSnapshot   `json:"shards,omitempty"`
	Hooks            []HookSnapshot    `json:"hooks,omitempty"`
}

// ProbeSnapshot freezes ProbeStats.
type ProbeSnapshot struct {
	Probes            uint64            `json:"probes"`
	Delivered         uint64            `json:"delivered"`
	PipeDrops         uint64            `json:"pipe_drops"`
	ICMPSilenced      uint64            `json:"icmp_silenced"`
	RateLimited       uint64            `json:"rate_limited"`
	QueueFrozenObs    uint64            `json:"queue_frozen_obs"`
	InjectWalks       uint64            `json:"inject_walks"`
	InjectDelivered   uint64            `json:"inject_delivered"`
	InjectLost        uint64            `json:"inject_lost"`
	InjectUnreachable uint64            `json:"inject_unreachable"`
	RTTMicros         HistogramSnapshot `json:"rtt_micros"`
}

// AnalysisSnapshot freezes AnalysisStats.
type AnalysisSnapshot struct {
	Sweeps        uint64  `json:"sweeps"`
	FoldsComputed uint64  `json:"folds_computed"`
	FoldsReused   uint64  `json:"folds_reused"`
	FoldHitRate   float64 `json:"fold_hit_rate"`
}

// FaultsSnapshot freezes FaultStats.
type FaultsSnapshot struct {
	Planned uint64 `json:"planned"`
	Entered uint64 `json:"entered"`
	Exited  uint64 `json:"exited"`
}

// Snapshot is the full JSON export.
type Snapshot struct {
	Schema        string           `json:"schema"`
	WallStart     string           `json:"wall_start"`
	WallElapsedNS int64            `json:"wall_elapsed_ns"`
	Engine        EngineSnapshot   `json:"engine"`
	Probe         ProbeSnapshot    `json:"probe"`
	Analysis      AnalysisSnapshot `json:"analysis"`
	Faults        FaultsSnapshot   `json:"faults"`
	Spans         []SpanSnapshot   `json:"spans"`
	SpansDropped  uint64           `json:"spans_dropped"`
	Events        []EventSnapshot  `json:"events"`
	EventsDropped uint64           `json:"events_dropped"`
}

// SchemaVersion names the snapshot layout.
const SchemaVersion = "afrixp-telemetry/1"

// Snapshot freezes every metric and log entry. Safe to call from any
// goroutine, including while a campaign is running.
func (t *Telemetry) Snapshot() Snapshot {
	now := t.now()
	elapsed := now.Sub(t.start)
	s := Snapshot{
		Schema:        SchemaVersion,
		WallStart:     t.start.UTC().Format(time.RFC3339Nano),
		WallElapsedNS: int64(elapsed),
	}

	s.Engine = EngineSnapshot{
		BatchesOpened:    t.Engine.BatchesOpened.Load(),
		QuiescentSteps:   t.Engine.QuiescentSteps.Load(),
		Flushes:          t.Engine.Flushes.Load(),
		RoundsDispatched: t.Engine.RoundsDispatched.Load(),
		CapClosed:        t.Engine.CapClosed.Load(),
		BatchLen:         t.Engine.BatchLen.snapshot(),
	}
	for k := range t.Engine.workerBusy {
		busy := t.Engine.workerBusy[k].Load()
		util := 0.0
		if elapsed > 0 {
			util = float64(busy) / float64(elapsed)
		}
		s.Engine.Workers = append(s.Engine.Workers, WorkerSnapshot{Worker: k, BusyNS: busy, Utilization: util})
	}
	for k := range t.Engine.shards {
		g := &t.Engine.shards[k]
		rounds := g.Rounds.Load()
		rps := 0.0
		if elapsed > 0 {
			rps = float64(rounds) / (float64(elapsed) / float64(time.Second))
		}
		s.Engine.Shards = append(s.Engine.Shards, ShardSnapshot{
			Shard:         k,
			ResidentBytes: g.ResidentBytes.Load(),
			LinksOwned:    g.LinksOwned.Load(),
			Rounds:        rounds,
			RoundsPerSec:  rps,
		})
	}
	for k, name := range t.Engine.hookNames {
		s.Engine.Hooks = append(s.Engine.Hooks, HookSnapshot{Hook: name,
			Calls: t.Engine.hookCalls[k].Load(), WallNS: t.Engine.hookNS[k].Load(),
			Forced: t.Engine.hookForced[k].Load()})
	}

	s.Probe = ProbeSnapshot{
		Probes:            t.Probe.Probes.Load(),
		Delivered:         t.Probe.Delivered.Load(),
		PipeDrops:         t.Probe.PipeDrops.Load(),
		ICMPSilenced:      t.Probe.ICMPSilenced.Load(),
		RateLimited:       t.Probe.RateLimited.Load(),
		QueueFrozenObs:    t.Probe.QueueFrozenObs.Load(),
		InjectWalks:       t.Probe.InjectWalks.Load(),
		InjectDelivered:   t.Probe.InjectDelivered.Load(),
		InjectLost:        t.Probe.InjectLost.Load(),
		InjectUnreachable: t.Probe.InjectUnreachable.Load(),
		RTTMicros:         t.Probe.RTT.snapshot(),
	}

	s.Analysis = AnalysisSnapshot{
		Sweeps:        t.Analysis.Sweeps.Load(),
		FoldsComputed: t.Analysis.FoldsComputed.Load(),
		FoldsReused:   t.Analysis.FoldsReused.Load(),
	}
	if tot := s.Analysis.FoldsComputed + s.Analysis.FoldsReused; tot > 0 {
		s.Analysis.FoldHitRate = float64(s.Analysis.FoldsReused) / float64(tot)
	}

	s.Faults = FaultsSnapshot{
		Planned: t.Faults.Planned.Load(),
		Entered: t.Faults.Entered.Load(),
		Exited:  t.Faults.Exited.Load(),
	}

	t.mu.Lock()
	for _, sp := range t.spans {
		s.Spans = append(s.Spans, SpanSnapshot{
			Phase:          sp.Phase,
			Label:          sp.Label,
			VStart:         sp.VStart.String(),
			VEnd:           sp.VEnd.String(),
			VDurationNS:    int64(sp.VEnd.Sub(sp.VStart)),
			WallOffsetNS:   int64(sp.WallStart.Sub(t.start)),
			WallDurationNS: int64(sp.WallEnd.Sub(sp.WallStart)),
		})
	}
	for _, ev := range t.events {
		s.Events = append(s.Events, EventSnapshot{
			Phase:        ev.Phase,
			V:            ev.V.String(),
			WallOffsetNS: int64(ev.Wall.Sub(t.start)),
			Msg:          ev.Msg,
		})
	}
	t.mu.Unlock()
	s.SpansDropped = t.SpansDropped.Load()
	s.EventsDropped = t.EventsDropped.Load()
	return s
}

// WriteJSON writes the indented snapshot JSON to w.
func (t *Telemetry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(t.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: marshal snapshot: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteJSONFile writes the snapshot to a file, replacing it.
func (t *Telemetry) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteReport renders the human-readable telemetry section the
// observatory report embeds: headline counters plus per-phase spans.
func (t *Telemetry) WriteReport(w io.Writer) {
	s := t.Snapshot()
	fmt.Fprintf(w, "telemetry (%s, wall %v)\n", s.Schema, time.Duration(s.WallElapsedNS).Round(time.Millisecond))
	fmt.Fprintf(w, "  engine: %d batches opened, %d quiescent steps, %d flushes, %d rounds dispatched\n",
		s.Engine.BatchesOpened, s.Engine.QuiescentSteps, s.Engine.Flushes, s.Engine.RoundsDispatched)
	for _, wk := range s.Engine.Workers {
		fmt.Fprintf(w, "  worker %d: busy %v (utilization %.1f%%)\n",
			wk.Worker, time.Duration(wk.BusyNS).Round(time.Millisecond), 100*wk.Utilization)
	}
	for _, sh := range s.Engine.Shards {
		fmt.Fprintf(w, "  shard %d: %d links, %.1f MiB resident, %d rounds (%.0f rounds/s)\n",
			sh.Shard, sh.LinksOwned, float64(sh.ResidentBytes)/(1<<20), sh.Rounds, sh.RoundsPerSec)
	}
	fmt.Fprintf(w, "  probe: %d sent, %d delivered, %d pipe drops, %d icmp-silenced, %d rate-limited, %d frozen queue obs\n",
		s.Probe.Probes, s.Probe.Delivered, s.Probe.PipeDrops, s.Probe.ICMPSilenced, s.Probe.RateLimited, s.Probe.QueueFrozenObs)
	fmt.Fprintf(w, "  inject: %d walks (%d delivered, %d lost, %d unreachable)\n",
		s.Probe.InjectWalks, s.Probe.InjectDelivered, s.Probe.InjectLost, s.Probe.InjectUnreachable)
	fmt.Fprintf(w, "  analysis: %d sweeps, diurnal-fold cache hit rate %.1f%% (%d computed, %d reused)\n",
		s.Analysis.Sweeps, 100*s.Analysis.FoldHitRate, s.Analysis.FoldsComputed, s.Analysis.FoldsReused)
	fmt.Fprintf(w, "  faults: %d planned, %d entered, %d exited\n",
		s.Faults.Planned, s.Faults.Entered, s.Faults.Exited)
	fmt.Fprintf(w, "  spans: %d recorded (%d dropped), events: %d recorded (%d dropped)\n",
		len(s.Spans), s.SpansDropped, len(s.Events), s.EventsDropped)
}
