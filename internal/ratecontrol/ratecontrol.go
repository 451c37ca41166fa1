// Package ratecontrol implements sender-side congestion control for media
// sessions: the feedback half of the loop the paper's §4.3 experiments show
// missing from spatial personas. A Controller consumes receiver reports
// (internal/rtp's RTCP-style ReceiverReport) arriving over the reverse
// network path and maintains a target bitrate the sender applies to its
// encoder (video.Encoder.SetTargetBps) or, for semantic streams that cannot
// shed per-frame rate, to frame thinning (internal/vca).
//
// Three controllers are provided:
//
//   - "gcc": a GCC-style delay-gradient controller — a trendline estimator
//     over per-report one-way-delay samples detects queue growth before
//     loss occurs, and an AIMD loop (multiplicative increase, backoff to
//     beta x the measured receive rate) converges near the bottleneck.
//   - "loss": a loss-based AIMD controller, blind to delay. On a drop-tail
//     queue it only reacts after the queue overflows, which is exactly the
//     standing-latency failure the delay-based controller avoids.
//   - "fixed": the open-loop baseline. It ignores feedback and holds the
//     initial target, reproducing the paper's fixed-bitrate senders.
//
// Controllers are deterministic: they draw no randomness, and their state
// advances only on OnFeedback. Same feedback sequence in, same target
// sequence out — the property the fleet's byte-identical golden rows and
// worker-count invariance rest on.
package ratecontrol

import (
	"fmt"

	"telepresence/internal/rtp"
)

// Feedback is one receiver-report observation as seen by the sender.
type Feedback struct {
	// AtMs is the sender-clock arrival time of the report in milliseconds.
	AtMs float64
	// Report is the unmarshaled receiver report.
	Report rtp.ReceiverReport
}

// Controller maps receiver feedback to a sender-side target bitrate.
// Implementations are single-session, single-goroutine state machines.
type Controller interface {
	// OnFeedback ingests one report. Reports must arrive in AtMs order
	// (the simulation's reverse path delivers them in order).
	OnFeedback(fb Feedback)
	// TargetBps returns the current target, always within [Min, Max].
	TargetBps() float64
	// Name identifies the controller kind ("gcc", "loss", "fixed").
	Name() string
}

// Reason codes explain a controller's last decision, for telemetry traces.
// They name the decision actually taken: a backoff suppressed by the
// backoffGapMs rate limit reads as "hold".
const (
	// ReasonOpenLoop: the controller ignores feedback (fixed).
	ReasonOpenLoop = "open-loop"
	// ReasonHold: feedback processed, target unchanged.
	ReasonHold = "hold"
	// ReasonIncrease: the path is underused; the target grew.
	ReasonIncrease = "increase"
	// ReasonBackoffLoss: reported loss exceeded the backoff threshold.
	ReasonBackoffLoss = "backoff-loss"
	// ReasonBackoffDelay: the one-way-delay trendline signaled queue growth.
	ReasonBackoffDelay = "backoff-delay"
	// ReasonBackoffQueue: standing queuing delay exceeded queueDelayMs.
	ReasonBackoffQueue = "backoff-queue"
	// ReasonStarved: consecutive empty reports; emergency halving.
	ReasonStarved = "starved"
)

// Reasoner is implemented by controllers that can explain their most recent
// OnFeedback decision. All built-in controllers implement it; the session
// layer feature-tests so external Controller implementations need not.
type Reasoner interface {
	// LastReason returns the reason code of the latest OnFeedback call
	// (ReasonHold before any feedback has arrived).
	LastReason() string
}

// Config parameterizes a controller: its starting target and bounds. The
// zero value of every field selects a default (see withDefaults).
type Config struct {
	// InitialBps is the starting target (default: MaxBps).
	InitialBps float64
	// MinBps / MaxBps bound the target (defaults 150 kbps / 6 Mbps).
	MinBps, MaxBps float64
}

// DefaultMinBps is the default lower bound on a controller target; callers
// flooring derived targets (ratecontrol.ApplyOverhead in the session layer)
// share it so their floor and the controller's clamp cannot diverge.
const DefaultMinBps = 150e3

// The controllers' tuning: the published GCC values (Carlucci et al.,
// "Analysis and design of the Google congestion control for WebRTC",
// MMSys 2016) where GCC has one.
const (
	// beta is the multiplicative backoff factor applied to the measured
	// receive rate on overuse.
	beta float64 = 0.85
	// increasePerSec is the multiplicative increase rate while the path
	// is underused (+8%/s).
	increasePerSec float64 = 0.08
	// additiveBpsPerSec is the loss controller's additive increase slope.
	additiveBpsPerSec float64 = 100e3
	// lossBackoff and lossIncrease are the loss controller's bands: back
	// off above the first, grow below the second.
	lossBackoff  float64 = 0.10
	lossIncrease float64 = 0.02
	// slopeMsPerSec is the delay controller's overuse threshold on the
	// fitted one-way-delay slope.
	slopeMsPerSec float64 = 25
	// queueDelayMs is the standing-queue guard: queuing delay (OWD above
	// the running baseline) beyond this triggers backoff even when the
	// trend is flat.
	queueDelayMs float64 = 75
	// trendWindow is how many report samples the trendline fits over.
	trendWindow = 20
	// backoffGapMs is the minimum spacing between consecutive backoffs,
	// letting one rate cut take effect before the next. It is counted in
	// receiver time, as the IntervalMs the reports since the last cut
	// cover, so reverse-path jitter cannot stretch it by a whole report
	// interval.
	backoffGapMs float64 = 300
)

func (c Config) withDefaults() Config {
	if c.MinBps <= 0 {
		c.MinBps = DefaultMinBps
	}
	if c.MaxBps <= 0 {
		c.MaxBps = 6e6
	}
	if c.MaxBps < c.MinBps {
		c.MaxBps = c.MinBps
	}
	if c.InitialBps <= 0 {
		c.InitialBps = c.MaxBps
	}
	return c
}

// backoffGap rate-limits a controller's backoffs to one per backoffGapMs
// of report coverage. Measured between report arrivals, the gap would
// hinge on jitter: with 100 ms reports a cut three reports later arrives
// 300 ms after the last one give or take a fraction of a millisecond, and
// the slightly early arrival waited a fourth report.
type backoffGap struct {
	sinceMs float64 // IntervalMs covered by the reports since the last cut
	cut     bool    // a cut has happened
}

// observe counts one report's interval.
func (g *backoffGap) observe(rep rtp.ReceiverReport) { g.sinceMs += rep.IntervalMs }

// ready reports whether a backoff is allowed now. IntervalMs values are
// differences of float millisecond clocks, so three 100 ms intervals may
// sum to a hair under 300; the tolerance absorbs that.
func (g *backoffGap) ready() bool {
	return !g.cut || g.sinceMs >= backoffGapMs-1e-6
}

// reset starts the gap at a backoff.
func (g *backoffGap) reset() { g.sinceMs, g.cut = 0, true }

func (c Config) clamp(bps float64) float64 {
	if bps < c.MinBps {
		return c.MinBps
	}
	if bps > c.MaxBps {
		return c.MaxBps
	}
	return bps
}

// Kinds lists the registered controller kinds in grid order: the ccrate and
// ccramp experiments sweep the index into this list, so the order is part
// of the experiments' cell-seed contract and must stay stable.
func Kinds() []string { return []string{"fixed", "loss", "gcc"} }

// New builds a controller of the named kind.
func New(kind string, cfg Config) (Controller, error) {
	cfg = cfg.withDefaults()
	switch kind {
	case "fixed":
		return &Fixed{cfg: cfg, target: cfg.clamp(cfg.InitialBps)}, nil
	case "loss":
		return &LossAIMD{cfg: cfg, target: cfg.clamp(cfg.InitialBps)}, nil
	case "gcc":
		return NewDelayGradient(cfg), nil
	default:
		return nil, fmt.Errorf("ratecontrol: unknown controller kind %q (have %v)", kind, Kinds())
	}
}

// ApplyOverhead charges redundancy overhead (FEC parity, retransmissions —
// internal/recovery) against a controller target: with overheadRatio r of
// redundancy bytes per media byte, the media share of the target is
// target/(1+r), so media plus redundancy together stay within what the
// controller granted. A non-positive ratio leaves the target unchanged; the
// result never falls below minBps (pass 0 for no floor) — a pathological
// overhead estimate must not starve the encoder entirely.
func ApplyOverhead(targetBps, overheadRatio, minBps float64) float64 {
	if overheadRatio > 0 {
		targetBps /= 1 + overheadRatio
	}
	if targetBps < minBps {
		targetBps = minBps
	}
	return targetBps
}

// ------------------------------------------------------------------ Fixed

// Fixed is the open-loop baseline: it holds the initial target forever,
// reproducing the fixed-bitrate senders of the paper's §4.3 experiments.
type Fixed struct {
	cfg    Config
	target float64
}

// OnFeedback ignores the report (open loop).
func (f *Fixed) OnFeedback(Feedback) {}

// TargetBps returns the fixed target.
func (f *Fixed) TargetBps() float64 { return f.target }

// Name returns "fixed".
func (f *Fixed) Name() string { return "fixed" }

// LastReason always reports the open loop.
func (f *Fixed) LastReason() string { return ReasonOpenLoop }

// --------------------------------------------------------------- LossAIMD

// LossAIMD adapts on reported loss alone: back off multiplicatively when
// the interval loss fraction exceeds lossBackoff, grow additively when it
// is below lossIncrease, hold in between. Blind to delay, it tolerates any
// standing queue a drop-tail buffer can hold — the contrast the ccrate and
// ccramp experiments quantify against the delay-gradient controller.
type LossAIMD struct {
	cfg      Config
	target   float64
	lastMs   float64
	haveLast bool
	gap      backoffGap
	reason   string
}

// OnFeedback applies one AIMD step.
func (l *LossAIMD) OnFeedback(fb Feedback) {
	dtSec := 0.0
	if l.haveLast && fb.AtMs > l.lastMs {
		dtSec = (fb.AtMs - l.lastMs) / 1e3
	}
	l.lastMs = fb.AtMs
	l.haveLast = true
	l.gap.observe(fb.Report)

	l.reason = ReasonHold
	loss := fb.Report.FractionLost
	switch {
	case loss > lossBackoff:
		if l.gap.ready() {
			l.target = l.cfg.clamp(l.target * (1 - 0.5*loss))
			l.gap.reset()
			l.reason = ReasonBackoffLoss
		}
	case loss < lossIncrease:
		if next := l.cfg.clamp(l.target + additiveBpsPerSec*dtSec); next > l.target {
			l.target = next
			l.reason = ReasonIncrease
		}
	}
}

// TargetBps returns the current target.
func (l *LossAIMD) TargetBps() float64 { return l.target }

// Name returns "loss".
func (l *LossAIMD) Name() string { return "loss" }

// LastReason reports the latest decision.
func (l *LossAIMD) LastReason() string {
	if l.reason == "" {
		return ReasonHold
	}
	return l.reason
}

// ---------------------------------------------------------- DelayGradient

// DelayGradient is the GCC-style delay-based controller: a least-squares
// trendline over the per-report mean one-way delay estimates the queue's
// growth rate; a positive slope past the threshold (or a standing queue
// past queueDelayMs) signals overuse, and the target backs off to beta x
// the measured receive rate. While the path is underused the target grows
// multiplicatively, capped at 1.5x the receive rate so an app-limited
// sender cannot run the estimate away from reality.
type DelayGradient struct {
	cfg    Config
	target float64

	// Trendline window: (time sec, owd ms) samples in arrival order.
	tSec, owdMs []float64

	// baselineMs tracks the propagation floor of the observed OWD. It only
	// leaks upward (1 ms per report), so a route change that raises the
	// floor re-baselines within seconds instead of reading as a permanent
	// standing queue.
	baselineMs   float64
	haveBaseline bool

	lastMs   float64
	haveLast bool
	gap      backoffGap
	starved  int // consecutive reports with zero receive rate
	reason   string
}

// NewDelayGradient returns a delay-gradient controller with cfg's bounds.
func NewDelayGradient(cfg Config) *DelayGradient {
	cfg = cfg.withDefaults()
	return &DelayGradient{cfg: cfg, target: cfg.clamp(cfg.InitialBps)}
}

// OnFeedback ingests one report and advances the AIMD state machine.
func (d *DelayGradient) OnFeedback(fb Feedback) {
	dtSec := 0.0
	if d.haveLast && fb.AtMs > d.lastMs {
		dtSec = (fb.AtMs - d.lastMs) / 1e3
	}
	d.lastMs = fb.AtMs
	d.haveLast = true
	d.gap.observe(fb.Report)

	rep := fb.Report
	d.reason = ReasonHold
	if rep.RecvRateBps <= 0 {
		// Nothing arrived this interval. One empty report is a scheduling
		// artifact; two in a row mean the path is starved (everything is
		// queued or lost) and the only safe move is down.
		d.starved++
		if d.starved >= 2 && d.cut(d.target*0.5) {
			d.reason = ReasonStarved
		}
		return
	}
	d.starved = 0

	if rep.MeanOwdMs > 0 {
		if !d.haveBaseline || rep.MeanOwdMs < d.baselineMs {
			d.baselineMs = rep.MeanOwdMs
			d.haveBaseline = true
		} else {
			// Slow upward leak (10 ms/s of elapsed time, so the rate does
			// not depend on the report frequency): re-baselines within
			// seconds after a route change raises the propagation floor.
			d.baselineMs += 10 * dtSec
		}
		d.tSec = append(d.tSec, fb.AtMs/1e3)
		d.owdMs = append(d.owdMs, rep.MeanOwdMs)
		if n := len(d.tSec) - trendWindow; n > 0 {
			d.tSec = append(d.tSec[:0], d.tSec[n:]...)
			d.owdMs = append(d.owdMs[:0], d.owdMs[n:]...)
		}
	}

	queueMs := 0.0
	if d.haveBaseline && rep.MeanOwdMs > d.baselineMs {
		queueMs = rep.MeanOwdMs - d.baselineMs
	}
	slope := trendSlope(d.tSec, d.owdMs)

	overuse := ""
	switch {
	case rep.FractionLost > 0.25:
		// Heavy loss: the delay signal alone cannot see a policer.
		overuse = ReasonBackoffLoss
	case queueMs > queueDelayMs:
		overuse = ReasonBackoffQueue
	case len(d.tSec) >= 4 && slope > slopeMsPerSec && queueMs > 5:
		overuse = ReasonBackoffDelay
	}
	if overuse != "" {
		if d.cut(beta * rep.RecvRateBps) {
			d.reason = overuse
		}
		return
	}

	// Underuse / normal: multiplicative increase, bounded by what is
	// actually flowing so an app-limited estimate cannot run away.
	next := d.target * (1 + increasePerSec*dtSec)
	if lim := 1.5 * rep.RecvRateBps; next > lim {
		next = lim
	}
	if next > d.target {
		d.target = d.cfg.clamp(next)
		d.reason = ReasonIncrease
	}
}

// cut applies one backoff, rate-limited to one per backoffGapMs, and resets
// the trendline so the pre-cut queue growth cannot re-trigger immediately.
// It reports whether the backoff was applied.
func (d *DelayGradient) cut(toBps float64) bool {
	if !d.gap.ready() {
		return false
	}
	if toBps > d.target {
		toBps = d.target // a backoff never raises the target
	}
	d.target = d.cfg.clamp(toBps)
	d.gap.reset()
	d.tSec = d.tSec[:0]
	d.owdMs = d.owdMs[:0]
	return true
}

// TargetBps returns the current target.
func (d *DelayGradient) TargetBps() float64 { return d.target }

// Name returns "gcc".
func (d *DelayGradient) Name() string { return "gcc" }

// LastReason reports the latest decision.
func (d *DelayGradient) LastReason() string {
	if d.reason == "" {
		return ReasonHold
	}
	return d.reason
}

// QueueDelayEstimateMs reports the current standing-queue estimate (last
// OWD sample above the baseline), for tests and diagnostics.
func (d *DelayGradient) QueueDelayEstimateMs() float64 {
	if !d.haveBaseline || len(d.owdMs) == 0 {
		return 0
	}
	if last := d.owdMs[len(d.owdMs)-1]; last > d.baselineMs {
		return last - d.baselineMs
	}
	return 0
}

// trendSlope fits owd = a + b*t by least squares and returns b (ms per
// second), or 0 with fewer than two distinct samples.
func trendSlope(tSec, owdMs []float64) float64 {
	n := float64(len(tSec))
	if n < 2 {
		return 0
	}
	var sumT, sumY, sumTT, sumTY float64
	for i := range tSec {
		sumT += tSec[i]
		sumY += owdMs[i]
		sumTT += tSec[i] * tSec[i]
		sumTY += tSec[i] * owdMs[i]
	}
	den := n*sumTT - sumT*sumT
	if den <= 0 {
		return 0
	}
	return (n*sumTY - sumT*sumY) / den
}
