// Package queue models router output queues as fluid FIFO buffers.
//
// TSLP infers congestion from the standing queue that builds at a
// link's output buffer when offered load approaches or exceeds link
// capacity: RTTs across the link rise by up to the buffer's drain time,
// and packets are dropped at the rate of the overload. A fluid model —
// integrating (load − capacity) into an occupancy clamped to the buffer
// size — reproduces exactly those observables without simulating every
// background packet, which is what makes year-long campaigns feasible.
//
// The paper interprets the magnitude of a level shift as "the size of
// the router buffer"; in this model, a link saturated for longer than
// its drain time exhibits a queueing delay plateau equal to
// BufferDrain, so scenario authors set BufferDrain to place A_w.
package queue

import (
	"fmt"
	"math"
	"time"

	"afrixp/internal/simclock"
	"afrixp/internal/trafficmodel"
)

// Fluid is a fluid-approximation FIFO queue attached to a link of a
// given capacity. Occupancy is tracked in bits; delay is occupancy
// divided by capacity. The model is advanced lazily: each observation
// at time t integrates the load function from the last observation
// forward, so observations must be made in non-decreasing time order.
type Fluid struct {
	// CapacityBps is the link capacity in bits per second. It may be
	// changed between observations via SetCapacity (capacity upgrades
	// are a first-class event in the paper's case studies).
	capacityBps float64
	// bufferBits is the maximum occupancy (tail-drop beyond it).
	bufferBits float64
	// load is the offered background load in bits per second.
	load trafficmodel.Load

	// integration state
	lastTime  simclock.Time
	occupancy float64 // bits
	// lossAccum tracks, over the most recent integration step, the
	// fraction of offered traffic dropped.
	lossFrac float64

	// step is the integration granularity.
	step simclock.Duration
	// pktBits enables the near-saturation stochastic delay term.
	pktBits float64

	// Batch scratch: the frontier state recorded after each step of the
	// most recent AdvanceBatch, indexed by step. Reused across batches
	// so steady-state advancement allocates nothing.
	batchTime []simclock.Time
	batchOcc  []float64
	batchLoss []float64

	// loads is advance's scratch: a chunk of the offered loads its
	// integration steps start at, filled by one load.Fill. Only the live
	// (single-writer) advance touches it; frozen reads call load.Bps.
	loads [fillChunk]float64

	// gen changes whenever anything a frozen read integrates from
	// changes — the frontier, the batch tables, the capacity or the
	// buffer — so a Cursor taken before the change never matches.
	gen uint64
}

// Config describes a fluid queue.
type Config struct {
	// CapacityBps is the link capacity in bits/s (e.g. 100e6 for the
	// GIXA–GHANATEL transit link of §6.2.1).
	CapacityBps float64
	// BufferDrain is the time the full buffer takes to drain at
	// capacity — the standing-queue delay plateau and therefore the
	// level-shift magnitude TSLP observes.
	BufferDrain simclock.Duration
	// Load is the offered background load (bits/s) over virtual time.
	// nil means an always-idle link.
	Load trafficmodel.Load
	// Step is the integration granularity; defaults to 30 s, fine
	// enough for 5-minute TSLP sampling.
	Step simclock.Duration
	// Start positions the queue's internal clock.
	Start simclock.Time
	// PacketBits, when positive, adds an M/M/1-style mean queueing
	// delay ρ/(1−ρ)·PacketBits/Capacity below saturation (capped so
	// total delay never exceeds BufferDrain). The pure fluid model
	// shows zero delay until overload; real links build stochastic
	// queues as utilization approaches 1 — the paper's
	// QCELL–NETPAGE weekend spikes (15 ms vs the 35 ms weekday
	// plateau) are that regime. 12000 (a 1500-byte packet) is a
	// typical value; zero disables the term.
	PacketBits float64
}

// NewFluid constructs the queue. It panics on non-positive capacity,
// which is always a scenario bug.
func NewFluid(cfg Config) *Fluid {
	if cfg.CapacityBps <= 0 {
		panic(fmt.Sprintf("queue: capacity %v must be positive", cfg.CapacityBps))
	}
	if cfg.Step <= 0 {
		cfg.Step = 30 * time.Second
	}
	load := cfg.Load
	if load == nil {
		load = trafficmodel.Constant(0)
	}
	return &Fluid{
		capacityBps: cfg.CapacityBps,
		bufferBits:  cfg.BufferDrain.Seconds() * cfg.CapacityBps,
		load:        load,
		lastTime:    cfg.Start,
		step:        cfg.Step,
		pktBits:     cfg.PacketBits,
	}
}

// SetCapacity changes the link capacity at time t (advancing the model
// to t first). The buffer's drain time is preserved, so the buffer
// size in bits is rescaled — upgrading a 10 Mbps link to 1 Gbps keeps
// the same worst-case queueing delay but makes it far harder to fill.
func (q *Fluid) SetCapacity(t simclock.Time, bps float64) {
	if bps <= 0 {
		panic("queue: capacity must be positive")
	}
	q.advance(t)
	drain := q.bufferBits / q.capacityBps
	q.capacityBps = bps
	q.bufferBits = drain * bps
	if q.occupancy > q.bufferBits {
		q.occupancy = q.bufferBits
	}
	q.gen++
}

// Capacity returns the current capacity in bits/s.
func (q *Fluid) Capacity() float64 { return q.capacityBps }

// SetBufferDrain changes the buffer depth at time t (advancing the
// model to t first) — operators repurposing a link for a different
// service class effectively change its queue budget, as GHANATEL did
// when converting its transit link to peering.
func (q *Fluid) SetBufferDrain(t simclock.Time, drain simclock.Duration) {
	if drain <= 0 {
		panic("queue: buffer drain must be positive")
	}
	q.advance(t)
	q.bufferBits = drain.Seconds() * q.capacityBps
	if q.occupancy > q.bufferBits {
		q.occupancy = q.bufferBits
	}
	q.gen++
}

// fillChunk is how many offered loads advance evaluates per
// load.Fill: enough to share a day's amplitude and a minute's noise
// across many steps, few enough to keep inside the Fluid.
const fillChunk = 64

// advance integrates the fluid model up to t. Observations at or
// before the current integration frontier return the frontier state
// unchanged: probes traversing different paths can observe a shared
// queue slightly out of order (a probe that crossed a congested queue
// arrives "later" than one sent just after it), and within one
// integration step the occupancy difference is below model resolution.
//
// It runs integrate's arithmetic in integrate's order, but takes the
// loads it needs — at the origin and at the end of every full step,
// that is every step but the final one — from load.Fill, a chunk at a
// time; Fill equals load.Bps at every point bit for bit. The final
// step is integrate's own finalStep.
func (q *Fluid) advance(t simclock.Time) {
	if t <= q.lastTime {
		return
	}
	at, occ, offered, dropped, load := q.lastTime, q.occupancy, 0.0, 0.0, 0.0
	stepSec := q.step.Seconds()
	for first := true; first || t.Sub(at) > q.step; first = false {
		// The chunk's loads: the origin's (first chunk only), then one at
		// the end of each full step, counted by integrate's own test —
		// a step from p is full when t.Sub(p) > q.step.
		from, n := at.Add(q.step), 0
		if first {
			from, n = at, 1
		}
		for p := at; n < fillChunk && t.Sub(p) > q.step; p = p.Add(q.step) {
			n++
		}
		loads := q.loads[:n]
		q.load.Fill(from, q.step, loads)
		if first {
			load, loads = loads[0], loads[1:]
		}
		for _, next := range loads {
			occ, offered, dropped = q.stepBy(occ, offered, dropped, load, stepSec)
			at = at.Add(q.step)
			load = next
		}
	}
	q.occupancy, q.lossFrac = q.finalStep(occ, offered, dropped, load, t.Sub(at))
	q.lastTime = t
	q.gen++
}

// walk is a position in a fluid integration that began at some origin:
// the time reached, the occupancy there, the bits offered and dropped
// since the origin, and the offered load (bits/s) at the position.
type walk struct {
	at               simclock.Time
	occ              float64
	offered, dropped float64
	load             float64
}

// origin starts a walk at time at with occupancy occ, evaluating the
// load through the reader's memo m.
func (q *Fluid) origin(at simclock.Time, occ float64, m *trafficmodel.Memo) walk {
	return walk{at: at, occ: occ, load: trafficmodel.BpsMemo(q.load, at, m)}
}

// integrate runs the fluid stepping from w up to t > w.at and returns
// the occupancy at t plus the drop fraction over the window from w's
// origin. Steps are q.step long except a final, possibly shorter one,
// each at the load of its start. w is left at the start of that final
// step — the last grid point reached, with its load — so integrating
// the same walk again to any t' > w.at replays exactly the arithmetic
// a fresh walk from the origin would, in the same order, and returns
// the same bits. It reads only immutable configuration, so concurrent
// frozen observers may call it on walks (and memos) of their own.
func (q *Fluid) integrate(w *walk, t simclock.Time, m *trafficmodel.Memo) (float64, float64) {
	at, occ, offered, dropped, load := w.at, w.occ, w.offered, w.dropped, w.load
	stepSec := q.step.Seconds()
	for {
		if rem := t.Sub(at); rem <= q.step {
			*w = walk{at: at, occ: occ, offered: offered, dropped: dropped, load: load}
			return q.finalStep(occ, offered, dropped, load, rem)
		}
		occ, offered, dropped = q.stepBy(occ, offered, dropped, load, stepSec)
		at = at.Add(q.step)
		load = trafficmodel.BpsMemo(q.load, at, m)
	}
}

// finalStep runs an integration's last step, rem long (at most q.step),
// and returns the occupancy after it and the drop fraction over the
// whole integration.
func (q *Fluid) finalStep(occ, offered, dropped, load float64, rem simclock.Duration) (float64, float64) {
	occ, offered, dropped = q.stepBy(occ, offered, dropped, load, rem.Seconds())
	lossFrac := 0.0
	if offered > 0 {
		lossFrac = math.Min(1, dropped/offered)
	}
	return occ, lossFrac
}

// stepBy is one integration step of sec seconds at offered load bps:
// the bits offered join the occupancy, the link drains at capacity,
// and whatever overflows the buffer is dropped.
func (q *Fluid) stepBy(occ, offered, dropped, bps, sec float64) (float64, float64, float64) {
	in := bps * sec
	out := q.capacityBps * sec
	offered += in
	next := occ + in - out
	if next > q.bufferBits {
		dropped += next - q.bufferBits
		next = q.bufferBits
	}
	if next < 0 {
		next = 0
	}
	return next, offered, dropped
}

// AdvanceBatch advances the integration frontier through each step
// time in order — exactly as len(steps) successive advances would
// — while recording the frontier state after every step. The recorded
// states let ObserveFrozenCursor later reproduce, for any step in the
// batch, precisely what a read of the live frontier would have
// returned had the campaign stopped to advance the world at that step. The scratch
// tables are reused across batches, so steady-state advancement does
// not allocate.
//
// Note the recorded time is the post-advance frontier, not steps[i]:
// advance is a no-op for times at or before the frontier, and the
// replayed observation must integrate from the same origin the live
// one would have.
func (q *Fluid) AdvanceBatch(steps []simclock.Time) {
	if cap(q.batchTime) < len(steps) {
		q.batchTime = make([]simclock.Time, len(steps))
		q.batchOcc = make([]float64, len(steps))
		q.batchLoss = make([]float64, len(steps))
	}
	q.batchTime = q.batchTime[:len(steps)]
	q.batchOcc = q.batchOcc[:len(steps)]
	q.batchLoss = q.batchLoss[:len(steps)]
	for i, t := range steps {
		q.advance(t)
		q.batchTime[i] = q.lastTime
		q.batchOcc[i] = q.occupancy
		q.batchLoss[i] = q.lossFrac
	}
	q.gen++
}

// Cursor carries a frozen read's integration over to the next read of
// the same queue and step. Reads of one queue at nearby times — the
// one-second loss probes of a batch step, a probe's forward and
// reverse traversals — otherwise each re-integrate from the step's
// frontier. The cursor remembers where the last read's integration
// reached: the last grid point before its time, with the occupancy,
// offered and dropped bits and load there. A later read past that
// point resumes from it and, since the arithmetic is replayed in the
// same order, returns bit-identical results.
//
// A cursor matches only the queue, batch step and generation it was
// taken under; anything else — the zero Cursor, another queue, a new
// batch, a capacity or buffer change, a moved frontier, an earlier
// time — restarts it from the frontier. A Cursor belongs to one
// goroutine; the queue itself is only read.
type Cursor struct {
	q    *Fluid
	gen  uint64
	step int
	w    walk
	// memo carries the load's day and minute factors between the
	// reader's load evaluations; it is checked against the load and
	// the instant on every use, so it survives restarts.
	memo trafficmodel.Memo
}

// Queue returns the queue the cursor last read, or nil for the zero
// Cursor.
func (c *Cursor) Queue() *Fluid { return c.q }

// ObserveFrozenCursor returns the queueing delay and drop probability
// a packet arriving at t experiences, integrating forward from the
// frontier as it stood after batch step i of the most recent
// AdvanceBatch; a negative i observes the live frontier (the
// non-batched protocol). The integration runs in locals and the
// cursor — the queue itself is not mutated. Because the result depends
// only on (frontier, t), concurrent workers may observe any mix of
// steps from the same batch and see identical values regardless of
// ordering, which is what makes campaign results bit-identical across
// worker counts.
//
// The read resumes from c when c holds an earlier read of the same
// queue, step and generation at a time before t, and leaves c where
// this read's integration stopped. A nil c reads without resuming.
func (q *Fluid) ObserveFrozenCursor(c *Cursor, i int, t simclock.Time) (simclock.Duration, float64) {
	from, occ, lossFrac := q.lastTime, q.occupancy, q.lossFrac
	if i >= 0 {
		from, occ, lossFrac = q.batchTime[i], q.batchOcc[i], q.batchLoss[i]
	}
	var own Cursor
	if c == nil {
		c = &own
	}
	if t > from {
		if c.q != q || c.gen != q.gen || c.step != i || t <= c.w.at {
			c.q, c.gen, c.step = q, q.gen, i
			c.w = q.origin(from, occ, &c.memo)
		}
		occ, lossFrac = q.integrate(&c.w, t, &c.memo)
	}
	return q.delayFromOccupancy(occ, t, &c.memo), lossFrac
}

// delayFromOccupancy converts a buffer occupancy into the arriving
// packet's queueing delay, including the near-saturation stochastic
// term when configured.
func (q *Fluid) delayFromOccupancy(occ float64, t simclock.Time, m *trafficmodel.Memo) simclock.Duration {
	d := occ / q.capacityBps
	if q.pktBits > 0 {
		rho := trafficmodel.BpsMemo(q.load, t, m) / q.capacityBps
		if rho >= 1 {
			d = q.bufferBits / q.capacityBps
		} else if rho > 0 {
			d += rho / (1 - rho) * q.pktBits / q.capacityBps
		}
		if max := q.bufferBits / q.capacityBps; d > max {
			d = max
		}
	}
	return time.Duration(d * float64(time.Second))
}

// DelayAt returns the queueing delay a packet arriving at time t
// experiences: the fluid standing-queue drain time, plus (when
// PacketBits is set) the stochastic near-saturation term, capped at
// the buffer drain time.
func (q *Fluid) DelayAt(t simclock.Time) simclock.Duration {
	q.advance(t)
	var m trafficmodel.Memo
	return q.delayFromOccupancy(q.occupancy, t, &m)
}

// LossAt returns the probability that a packet arriving at time t is
// dropped, computed from the drop fraction over the integration window
// ending at t.
func (q *Fluid) LossAt(t simclock.Time) float64 {
	q.advance(t)
	return q.lossFrac
}

// Utilization returns offered load over capacity at time t (can
// exceed 1 during overload).
func (q *Fluid) Utilization(t simclock.Time) float64 {
	return q.load.Bps(t) / q.capacityBps
}

// TokenBucket enforces the prober's packets-per-second budget (the
// paper probed at 100 pps to avoid harming the host network). It is a
// standard token bucket over virtual time.
type TokenBucket struct {
	ratePerSec float64
	burst      float64
	tokens     float64
	last       simclock.Time
	// gap and gapTokens memoize refill's last increment: the tokens a
	// gap of that length adds. A prober's far probe trails its near
	// probe by the same gap round after round.
	gap       simclock.Duration
	gapTokens float64
}

// NewTokenBucket returns a bucket producing rate tokens per second
// with the given burst capacity, initially full.
func NewTokenBucket(rate, burst float64, start simclock.Time) *TokenBucket {
	if rate <= 0 || burst <= 0 {
		panic("queue: token bucket rate and burst must be positive")
	}
	return &TokenBucket{ratePerSec: rate, burst: burst, tokens: burst, last: start}
}

// tokenEps absorbs float accumulation error so that a bucket polled in
// many small refill increments still admits exactly its nominal rate.
const tokenEps = 1e-9

// Allow consumes a token at time t if available, reporting success.
// Requests dated before the bucket's frontier are treated as arriving
// at the frontier (a caller asking to send "now" after pacing pushed
// it into the future).
func (tb *TokenBucket) Allow(t simclock.Time) bool {
	tb.refill(t)
	return tb.spend()
}

// spend consumes a token if one is available at the frontier.
func (tb *TokenBucket) spend() bool {
	if tb.tokens < 1-tokenEps {
		return false
	}
	tb.tokens--
	if tb.tokens < 0 {
		tb.tokens = 0
	}
	return true
}

// NextAllowed returns the earliest time at or after max(t, frontier)
// at which a token will be available.
func (tb *TokenBucket) NextAllowed(t simclock.Time) simclock.Time {
	t = tb.refill(t)
	if tb.tokens >= 1-tokenEps {
		return t
	}
	return t.Add(tb.wait())
}

// wait is how long a bucket short of a token takes to refill one.
func (tb *TokenBucket) wait() simclock.Duration {
	need := 1 - tb.tokens
	return time.Duration(need / tb.ratePerSec * float64(time.Second))
}

// Take paces one packet: NextAllowed(t), then Allow at that time,
// which it returns as the packet's send time. When a token is there at
// max(t, frontier), Allow's refill would be the identity (its time is
// the frontier), so the token is spent right after the one refill.
func (tb *TokenBucket) Take(t simclock.Time) simclock.Time {
	t = tb.refill(t)
	if !tb.spend() {
		t = t.Add(tb.wait())
		tb.Allow(t)
	}
	return t
}

// State returns the bucket's mutable state (tokens, frontier) for
// engine checkpoints; rate and burst are configuration, reconstructed
// by the caller.
func (tb *TokenBucket) State() (tokens float64, last simclock.Time) {
	return tb.tokens, tb.last
}

// RestoreState overwrites the bucket's mutable state from a
// checkpoint.
func (tb *TokenBucket) RestoreState(tokens float64, last simclock.Time) {
	tb.tokens, tb.last = tokens, last
}

// refill advances the bucket to max(t, frontier) and returns that time.
// Two cases skip the float arithmetic and leave the same bits: at or
// before the frontier the refill adds 0·rate, and a full bucket stays
// full, since the cap restores exactly burst.
func (tb *TokenBucket) refill(t simclock.Time) simclock.Time {
	if t <= tb.last {
		t = tb.last
		if tb.tokens <= tb.burst { // not a restored over-cap state
			return t
		}
	} else if tb.tokens == tb.burst {
		tb.last = t
		return t
	}
	if gap := t.Sub(tb.last); gap != tb.gap {
		tb.gap, tb.gapTokens = gap, gap.Seconds()*tb.ratePerSec
	}
	tb.tokens += tb.gapTokens
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	tb.last = t
	return t
}
