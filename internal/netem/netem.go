// Package netem emulates network paths for the simulation: unidirectional
// links with propagation delay, finite transmission rate, drop-tail queues,
// random loss, and jitter, plus a mutable Shaper that plays the role of
// Linux tc in the paper's delay-injection (§4.3) and bandwidth-cap
// experiments.
//
// The emulation is event-driven on a simtime.Scheduler and models a link as
// a serializer (rate) feeding a propagation pipe (delay): exactly the fluid
// model tc-netem implements.
package netem

import (
	"fmt"
	"math"

	"telepresence/internal/simrand"
	"telepresence/internal/simtime"
	"telepresence/internal/telemetry"
)

// Frame is the unit transferred across links. Size is the virtual wire size
// in bytes and is authoritative for serialization and throughput accounting;
// Payload carries protocol bytes and may be shorter than Size when headers
// or padding are modeled but not materialized.
type Frame struct {
	Src, Dst string
	Size     int
	Payload  []byte
}

// Handler receives frames that survive a link.
type Handler func(now simtime.Time, f Frame)

// Direction tags tapped frames.
type Direction int

// Tap directions.
const (
	Ingress Direction = iota // frame entering the link (pre-queue)
	Egress                   // frame delivered at the far end
	Dropped                  // frame lost to queue overflow or random loss
)

func (d Direction) String() string {
	switch d {
	case Ingress:
		return "ingress"
	case Egress:
		return "egress"
	case Dropped:
		return "dropped"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Tap observes frames traversing a link; the capture package uses taps to
// implement the paper's Wireshark-on-the-AP methodology.
type Tap func(now simtime.Time, f Frame, dir Direction)

// Config describes a unidirectional link.
type Config struct {
	// Name identifies the link in captures and error messages.
	Name string
	// DelayMs is the one-way propagation delay in milliseconds.
	DelayMs float64
	// JitterMs adds lognormal-ish positive jitter to each frame (0 = none).
	JitterMs float64
	// RateBps is the transmission rate in bits per second (0 = infinite).
	RateBps float64
	// QueueBytes bounds the serializer's drop-tail queue (0 = a sensible
	// default of 256 KiB when the rate is finite).
	QueueBytes int
	// LossProb drops each frame independently with this probability.
	LossProb float64
}

// Link is a unidirectional emulated path. Create with NewLink; attach the
// receiver with SetHandler.
type Link struct {
	cfg     Config
	sched   *simtime.Scheduler
	rng     *simrand.Source
	handler Handler
	taps    []Tap
	shaper  *Shaper
	tr      *telemetry.Tracer

	// busyUntil is when the serializer finishes the current backlog.
	busyUntil simtime.Time
	queued    int // bytes currently in the serializer queue

	// pending records, in serialization-completion order, the queued frames
	// whose bytes still occupy the drop-tail queue. A frame leaves the queue
	// when its serialization completes (its slice of busyUntil), NOT when it
	// is delivered at the far end: bytes flying through the propagation pipe
	// do not occupy the serializer queue, exactly as in tc-netem's
	// rate-then-delay pipeline. Entries are reaped lazily (on Send and
	// QueuedBytes) so the delivery event stream is untouched. pendHead
	// indexes the first live entry; the ring is recycled in place.
	pending  []pendingTx
	pendHead int

	// free holds recycled delivery nodes; together with the scheduler's
	// pooled events this makes the per-frame path allocation-free.
	free []*delivery

	// deliverSite labels delivery events for the virtual-time profiler;
	// interned once at construction so the per-frame path stays map-free.
	deliverSite simtime.SiteID

	// lnJitter caches log(JitterMs) for the per-frame lognormal draw.
	lnJitter float64

	stats LinkStats
}

// pendingTx is one queued frame's claim on the drop-tail queue: size bytes
// are released once the virtual clock passes done.
type pendingTx struct {
	done simtime.Time
	size int
}

// reapPending releases the bytes of every queued frame whose serialization
// has completed by now. busyUntil only moves forward, so pending is sorted
// by completion time and the scan stops at the first live entry.
func (l *Link) reapPending(now simtime.Time) {
	h := l.pendHead
	for h < len(l.pending) && l.pending[h].done <= now {
		l.queued -= l.pending[h].size
		h++
	}
	if h == len(l.pending) {
		l.pending = l.pending[:0]
		h = 0
	} else if h > 64 && 2*h >= len(l.pending) {
		// Compact occasionally so the ring does not creep forever.
		n := copy(l.pending, l.pending[h:])
		l.pending = l.pending[:n]
		h = 0
	}
	l.pendHead = h
}

// delivery is the pooled in-flight state of one frame: what the link needs
// when the propagation timer fires. It replaces a per-frame closure.
type delivery struct {
	l *Link
	f Frame
}

func (l *Link) getDelivery() *delivery {
	if n := len(l.free) - 1; n >= 0 {
		d := l.free[n]
		l.free[n] = nil
		l.free = l.free[:n]
		return d
	}
	return &delivery{l: l}
}

// deliverFn is the package-level AtArg trampoline for frame delivery.
func deliverFn(a any) {
	d := a.(*delivery)
	l := d.l
	l.stats.DeliveredFrames++
	l.stats.DeliveredB += int64(d.f.Size)
	l.tap(d.f, Egress)
	if l.tr != nil {
		l.tr.NetemDeliver(l.sched.Now(), l.cfg.Name, d.f.Size)
	}
	if l.handler != nil {
		l.handler(l.sched.Now(), d.f)
	}
	d.f = Frame{}
	l.free = append(l.free, d)
}

// LinkStats counts traffic over the life of a link.
type LinkStats struct {
	SentFrames, SentBytes       int64
	DeliveredFrames, DeliveredB int64
	DroppedQueue, DroppedLoss   int64
	// DroppedB counts the bytes of the frames in DroppedQueue and
	// DroppedLoss, so DeliveredB + DroppedB never exceeds SentBytes (the
	// rest is in flight).
	DroppedB int64
	// DroppedBurst counts frames lost to the shaper's Gilbert-Elliott burst
	// model. They are counted in DroppedLoss too, so DroppedBurst never
	// exceeds it.
	DroppedBurst int64
}

// NewLink creates a link driven by sched. rng may not be nil.
func NewLink(sched *simtime.Scheduler, rng *simrand.Source, cfg Config) *Link {
	if cfg.QueueBytes == 0 {
		cfg.QueueBytes = 256 << 10
	}
	// Inverted comparisons so NaN (which fails every ordered comparison)
	// counts as invalid rather than slipping through.
	if !(cfg.DelayMs >= 0) || !(cfg.RateBps >= 0) || !(cfg.JitterMs >= 0) || cfg.QueueBytes < 0 ||
		!(cfg.LossProb >= 0 && cfg.LossProb <= 1) {
		panic(fmt.Sprintf("netem: invalid config %+v", cfg))
	}
	l := &Link{cfg: cfg, sched: sched, rng: rng, deliverSite: sched.Site("netem.deliver")}
	if cfg.JitterMs > 0 {
		l.lnJitter = math.Log(cfg.JitterMs)
	}
	return l
}

// SetHandler installs the far-end receiver.
func (l *Link) SetHandler(h Handler) { l.handler = h }

// AddTap registers an observer for frames on this link.
func (l *Link) AddTap(t Tap) { l.taps = append(l.taps, t) }

// SetTracer attaches a telemetry tracer (nil detaches). Unlike taps, the
// tracer emits typed events — enqueue/drop/deliver per frame plus
// Gilbert-Elliott state transitions — and costs exactly one pointer test
// per frame when nil.
func (l *Link) SetTracer(tr *telemetry.Tracer) { l.tr = tr }

// Stats returns a copy of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// Name returns the configured link name.
func (l *Link) Name() string { return l.cfg.Name }

// Shaper returns the tc-like impairment stage attached to this link,
// creating it on first use.
func (l *Link) Shaper() *Shaper {
	if l.shaper == nil {
		l.shaper = &Shaper{}
	}
	return l.shaper
}

func (l *Link) tap(f Frame, dir Direction) {
	for _, t := range l.taps {
		t(l.sched.Now(), f, dir)
	}
}

// drop accounts a frame Send refused for reason (the caller counts it in
// DroppedLoss or DroppedQueue): its bytes, the taps and the tracer.
func (l *Link) drop(now simtime.Time, f Frame, reason string) {
	l.stats.DroppedB += int64(f.Size)
	l.tap(f, Dropped)
	if l.tr != nil {
		l.tr.NetemDrop(now, l.cfg.Name, f.Size, reason)
	}
}

// Send enqueues a frame. It returns false if the frame was dropped at entry
// (queue overflow or random loss); delivery itself is asynchronous.
func (l *Link) Send(f Frame) bool {
	if f.Size <= 0 {
		f.Size = len(f.Payload)
	}
	if f.Size <= 0 {
		f.Size = 1
	}
	now := l.sched.Now()
	l.stats.SentFrames++
	l.stats.SentBytes += int64(f.Size)
	l.tap(f, Ingress)

	// Release queue bytes whose serialization has completed; must happen
	// before the drop-tail admission check below sees l.queued.
	l.reapPending(now)

	// Reject invalid shaper values before they skew the experiment. The
	// fast path is a few branch-predictable comparisons (shaper fields are
	// public and mutable at any time, so there is no programming point to
	// validate at instead); the descriptive error is built only on failure.
	sh := l.shaper
	if sh != nil && (!(sh.ExtraDelayMs >= 0) || !(sh.RateBps >= 0) ||
		!(sh.LossProb >= 0 && sh.LossProb <= 1) ||
		(sh.Burst != nil && !sh.Burst.valid())) {
		panic("netem: " + sh.Validate().Error())
	}

	// Shaper-imposed random loss (tc netem loss).
	if sh != nil && sh.LossProb > 0 && l.rng.Bernoulli(sh.LossProb) {
		l.stats.DroppedLoss++
		l.drop(now, f, "loss")
		return false
	}
	// Shaper-imposed burst loss (Gilbert-Elliott two-state model).
	if sh != nil && sh.Burst != nil {
		wasBad := sh.Burst.bad
		lost := sh.Burst.drop(l.rng)
		if l.tr != nil && sh.Burst.bad != wasBad {
			l.tr.NetemGEState(now, l.cfg.Name, sh.Burst.bad)
		}
		if lost {
			l.stats.DroppedLoss++
			l.stats.DroppedBurst++
			l.drop(now, f, "burst")
			return false
		}
	}
	// Intrinsic random loss.
	if l.cfg.LossProb > 0 && l.rng.Bernoulli(l.cfg.LossProb) {
		l.stats.DroppedLoss++
		l.drop(now, f, "loss")
		return false
	}

	// Effective rate: the slower of the link rate and the shaper cap. The
	// rate is sampled when the frame is accepted: a mid-backlog rate change
	// applies to subsequently sent frames only, while frames already
	// admitted keep the serialization schedule computed at admission (see
	// Shaper.RateBps for the contract).
	rate := l.cfg.RateBps
	if sh != nil && sh.RateBps > 0 && (rate == 0 || sh.RateBps < rate) {
		rate = sh.RateBps
	}

	txDone := now
	if rate == 0 && l.busyUntil > now {
		// The cap was lifted while a capped-era backlog is still in
		// service. The serializer is FIFO: an uncapped frame serializes in
		// zero time but still departs after the backlog drains — it must
		// never overtake frames admitted before it.
		txDone = l.busyUntil
	}
	if rate > 0 {
		queued := l.busyUntil > now
		if queued {
			// Serializer busy: the frame queues.
			if l.queued+f.Size > l.cfg.QueueBytes {
				l.stats.DroppedQueue++
				l.drop(now, f, "queue")
				return false
			}
			l.queued += f.Size
			txDone = l.busyUntil
		}
		ser := simtime.Duration(float64(f.Size*8) / rate * float64(simtime.Second))
		txDone = txDone.Add(ser)
		l.busyUntil = txDone
		if queued {
			// The frame's bytes leave the queue when its serialization
			// completes; reapPending releases them once the clock passes
			// txDone.
			l.pending = append(l.pending, pendingTx{done: txDone, size: f.Size})
		}
	}

	delay := simtime.Duration(l.cfg.DelayMs * float64(simtime.Millisecond))
	if sh != nil && sh.ExtraDelayMs > 0 {
		delay += simtime.Duration(sh.ExtraDelayMs * float64(simtime.Millisecond))
	}
	if l.cfg.JitterMs > 0 {
		j := l.rng.LogNormal(l.lnJitter, 0.5)
		delay += simtime.Duration(j * float64(simtime.Millisecond))
	}

	d := l.getDelivery()
	d.f = f
	l.sched.AtArg(txDone.Add(delay), l.deliverSite, deliverFn, d)
	if l.tr != nil {
		// queue is the occupancy gauge after admission; tx_ms is when the
		// serializer finishes this frame.
		l.tr.NetemEnqueue(now, l.cfg.Name, f.Size, l.queued, txDone.Milliseconds())
	}
	return true
}

// QueuedBytes reports the bytes currently occupying the serializer's
// drop-tail queue: frames admitted but whose serialization has not yet
// completed. Bytes in the propagation pipe (serialized, in flight) do not
// count.
func (l *Link) QueuedBytes() int {
	l.reapPending(l.sched.Now())
	return l.queued
}

// Shaper is the mutable impairment stage of a link — the simulation's stand-
// in for Linux tc (§4.3: "We use Linux tc to introduce extra network delays
// ranging from 0 to 1,000 ms" and "to constrain the bandwidth"). Fields may
// be changed at any time and apply to subsequently sent frames. Invalid
// field values (negative delays or rates, probabilities outside [0,1]) are
// rejected: Validate reports them, and Send panics on them, so a broken
// schedule cannot silently skew an experiment.
type Shaper struct {
	// ExtraDelayMs adds fixed one-way delay.
	ExtraDelayMs float64
	// RateBps caps throughput (0 = uncapped). The cap is sampled when a
	// frame is accepted by the serializer: changing it mid-backlog applies
	// to subsequently sent frames, while already-admitted frames keep the
	// serialization schedule computed at admission (the fluid-model
	// equivalent of tc swapping a token-bucket rate under a live qdisc).
	RateBps float64
	// LossProb drops frames independently with this probability.
	LossProb float64
	// Burst, when non-nil, applies two-state Gilbert-Elliott burst loss on
	// top of LossProb. The model's Markov state lives in the struct, so one
	// Burst instance must not be shared between links.
	Burst *GilbertElliott
}

// Clear removes all impairments.
func (s *Shaper) Clear() { *s = Shaper{} }

// Validate reports whether every shaper field is a legal impairment value.
// Comparisons are inverted so NaN counts as invalid.
func (s *Shaper) Validate() error {
	if !(s.ExtraDelayMs >= 0) {
		return fmt.Errorf("shaper: invalid ExtraDelayMs %v", s.ExtraDelayMs)
	}
	if !(s.RateBps >= 0) {
		return fmt.Errorf("shaper: invalid RateBps %v", s.RateBps)
	}
	if !(s.LossProb >= 0 && s.LossProb <= 1) {
		return fmt.Errorf("shaper: LossProb %v outside [0,1]", s.LossProb)
	}
	if s.Burst != nil {
		return s.Burst.Validate()
	}
	return nil
}

// GilbertElliott is the classic two-state Markov burst-loss model: the
// channel alternates between a Good and a Bad state, with independent loss
// probabilities in each. Per transmitted frame the chain first takes one
// transition step, then draws the loss coin of the resulting state. Mean
// burst (Bad-state dwell) length is 1/BadToGood frames; stationary loss is
// pB*LossBad + pG*LossGood with pB = GoodToBad/(GoodToBad+BadToGood).
//
// The zero value never transitions out of Good and never drops (with
// LossGood 0). The struct carries the chain's current state, so instances
// must not be shared between links.
type GilbertElliott struct {
	// GoodToBad is the per-frame probability of entering the Bad state.
	GoodToBad float64
	// BadToGood is the per-frame probability of leaving the Bad state.
	BadToGood float64
	// LossGood is the loss probability while Good (usually 0 or tiny).
	LossGood float64
	// LossBad is the loss probability while Bad (usually near 1).
	LossBad float64

	bad bool // current chain state
}

// NewGilbertElliott builds the common reduced model: loss-free Good state,
// lossBad losses while Bad.
func NewGilbertElliott(goodToBad, badToGood, lossBad float64) *GilbertElliott {
	return &GilbertElliott{GoodToBad: goodToBad, BadToGood: badToGood, LossBad: lossBad}
}

// valid is the branch-only probability-range check Send uses per frame;
// NaN fails every comparison and so counts as invalid.
func (g *GilbertElliott) valid() bool {
	return g.GoodToBad >= 0 && g.GoodToBad <= 1 &&
		g.BadToGood >= 0 && g.BadToGood <= 1 &&
		g.LossGood >= 0 && g.LossGood <= 1 &&
		g.LossBad >= 0 && g.LossBad <= 1
}

// Validate checks that all four chain parameters are probabilities (NaN is
// invalid).
func (g *GilbertElliott) Validate() error {
	for _, p := range [...]struct {
		name string
		v    float64
	}{
		{"GoodToBad", g.GoodToBad}, {"BadToGood", g.BadToGood},
		{"LossGood", g.LossGood}, {"LossBad", g.LossBad},
	} {
		if !(p.v >= 0 && p.v <= 1) {
			return fmt.Errorf("gilbert-elliott: %s %v outside [0,1]", p.name, p.v)
		}
	}
	return nil
}

// InBadState reports the chain's current state (for tests and probes).
func (g *GilbertElliott) InBadState() bool { return g.bad }

// Reset returns the chain to the Good state.
func (g *GilbertElliott) Reset() { g.bad = false }

// drop advances the chain one frame and reports whether that frame is lost.
func (g *GilbertElliott) drop(rng *simrand.Source) bool {
	if g.bad {
		if g.BadToGood > 0 && rng.Bernoulli(g.BadToGood) {
			g.bad = false
		}
	} else {
		if g.GoodToBad > 0 && rng.Bernoulli(g.GoodToBad) {
			g.bad = true
		}
	}
	p := g.LossGood
	if g.bad {
		p = g.LossBad
	}
	return p > 0 && rng.Bernoulli(p)
}

// Pipe is a bidirectional pair of links between two named endpoints.
type Pipe struct {
	AB, BA *Link
}

// NewPipe builds two symmetric links using cfg (Name gets a direction
// suffix).
func NewPipe(sched *simtime.Scheduler, rng *simrand.Source, cfg Config) *Pipe {
	ab, ba := cfg, cfg
	ab.Name = cfg.Name + "/ab"
	ba.Name = cfg.Name + "/ba"
	return &Pipe{
		AB: NewLink(sched, rng.Split(ab.Name), ab),
		BA: NewLink(sched, rng.Split(ba.Name), ba),
	}
}
