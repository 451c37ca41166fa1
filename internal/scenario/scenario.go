// Package scenario provides declarative timelines of network impairment:
// the simulation's answer to the paper's §4.3 methodology, where Linux tc
// injects delays "ranging from 0 to 1,000 ms" and bandwidth caps *while a
// call is running*. Instead of hand-writing experiment code that pokes a
// netem.Shaper at magic instants, callers build a Schedule — piecewise
// steps, linear ramps, and Gilbert-Elliott burst-loss segments — and bind
// it to any link's shaper; the schedule then drives the shaper from
// simtime callbacks for the life of the session.
//
// Schedules are plain data: they validate eagerly, flatten to a
// deterministic action list (inspectable in tests), and can be bound to
// any number of links — each binding gets its own burst-loss chain, so
// one schedule can parameterize a whole parameter-sweep grid (see
// internal/fleet's SweepSpec).
package scenario

import (
	"fmt"
	"sort"

	"telepresence/internal/netem"
	"telepresence/internal/simtime"
)

// Impairment is one target shaper state: the tc parameters in force from
// some instant on. The zero value means "unimpaired".
type Impairment struct {
	// ExtraDelayMs adds fixed one-way delay (tc netem delay).
	ExtraDelayMs float64
	// RateBps caps throughput (tc tbf/htb rate); 0 = uncapped.
	RateBps float64
	// LossProb drops frames independently (tc netem loss).
	LossProb float64
	// Burst, when non-nil, enables Gilbert-Elliott burst loss on top of
	// LossProb. These are parameters, not a live chain: every schedule
	// binding instantiates its own chain, so schedules stay reusable.
	Burst *BurstParams
}

// BurstParams declaratively parameterize netem's two-state Gilbert-Elliott
// chain (see netem.GilbertElliott for the model).
type BurstParams struct {
	GoodToBad float64
	BadToGood float64
	LossGood  float64
	LossBad   float64
}

// chain instantiates a fresh Markov chain from the parameters.
func (b BurstParams) chain() *netem.GilbertElliott {
	return &netem.GilbertElliott{
		GoodToBad: b.GoodToBad, BadToGood: b.BadToGood,
		LossGood: b.LossGood, LossBad: b.LossBad,
	}
}

// validate reuses netem's shaper validation so scenario and netem can never
// disagree about what a legal impairment is.
func (i Impairment) validate() error {
	sh := netem.Shaper{
		ExtraDelayMs: i.ExtraDelayMs,
		RateBps:      i.RateBps,
		LossProb:     i.LossProb,
	}
	if i.Burst != nil {
		sh.Burst = i.Burst.chain()
	}
	return sh.Validate()
}

// point is one authored timeline entry.
type point struct {
	at   simtime.Duration
	imp  Impairment
	ramp simtime.Duration // 0 = step; else linear ramp over this window
}

// Schedule is a timeline of impairment points. Build one with New and the
// StepAt/RampTo/ClearAt methods (each returns the schedule for chaining),
// or import one from a trace file (trace.go). Schedules are inert data
// until Bind attaches them to a shaper.
type Schedule struct {
	points []point
	tick   simtime.Duration
	err    error // first authoring error, surfaced by Validate/Bind
	// lastImp is the most recently authored target, used to validate that
	// ramps never interpolate across the RateBps=0 "uncapped" sentinel.
	lastImp Impairment
}

// DefaultTick is the sampling interval for ramps: a ramp re-programs the
// shaper every tick, the fluid equivalent of a tc script in a sleep loop.
const DefaultTick = 100 * simtime.Millisecond

// New returns an empty schedule with the default ramp tick.
func New() *Schedule { return &Schedule{tick: DefaultTick} }

// SetTick overrides the ramp sampling interval.
func (s *Schedule) SetTick(tick simtime.Duration) *Schedule {
	if tick <= 0 {
		s.fail(fmt.Errorf("scenario: non-positive tick %v", tick))
		return s
	}
	s.tick = tick
	return s
}

func (s *Schedule) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// StepAt sets the shaper to imp at offset at (relative to bind time).
func (s *Schedule) StepAt(at simtime.Duration, imp Impairment) *Schedule {
	return s.add(point{at: at, imp: imp})
}

// RampTo linearly interpolates the scalar impairments (delay, rate, loss)
// from their previous values to imp over the window [at, at+over], sampled
// every tick. Burst parameters do not ramp: imp.Burst takes effect at the
// ramp's start. A later point truncates an in-progress ramp, and the next
// segment then starts from the last value actually applied, not the
// never-reached target.
//
// RateBps cannot ramp to or from 0: 0 means "uncapped", and interpolating
// through the sentinel would impose a near-zero cap mid-ramp. Step to an
// explicit starting rate first (as the BandwidthRamp preset does), or use
// StepAt/ClearAt.
func (s *Schedule) RampTo(at, over simtime.Duration, imp Impairment) *Schedule {
	if over < 0 {
		s.fail(fmt.Errorf("scenario: negative ramp window %v", over))
		return s
	}
	if (s.lastImp.RateBps == 0) != (imp.RateBps == 0) {
		s.fail(fmt.Errorf(
			"scenario: ramp at %v between uncapped (RateBps 0) and %g bps would interpolate through a near-zero cap; step to an explicit rate first",
			at, s.lastImp.RateBps+imp.RateBps))
		return s
	}
	return s.add(point{at: at, imp: imp, ramp: over})
}

// ClearAt removes all impairments at offset at.
func (s *Schedule) ClearAt(at simtime.Duration) *Schedule {
	return s.StepAt(at, Impairment{})
}

func (s *Schedule) add(p point) *Schedule {
	if p.at < 0 {
		s.fail(fmt.Errorf("scenario: negative event offset %v", p.at))
		return s
	}
	if err := p.imp.validate(); err != nil {
		s.fail(fmt.Errorf("scenario: event at %v: %w", p.at, err))
		return s
	}
	if n := len(s.points); n > 0 {
		if last := s.points[n-1]; last.at > p.at {
			s.fail(fmt.Errorf("scenario: event at %v scheduled before previous event at %v",
				p.at, last.at))
			return s
		} else if last.ramp > 0 && last.at == p.at {
			// A same-instant successor would truncate the ramp before its
			// first sample fires, silently swallowing it (including its
			// burst switch). Equal-timestamp steps are a legal overwrite;
			// equal-timestamp ramp starts are an authoring error.
			s.fail(fmt.Errorf("scenario: event at %v coincides with the preceding ramp's start and would swallow it entirely", p.at))
			return s
		}
	}
	s.points = append(s.points, p)
	s.lastImp = p.imp
	return s
}

// Len reports the number of authored points.
func (s *Schedule) Len() int { return len(s.points) }

// Duration returns the offset of the last shaper change, including the end
// of a trailing ramp. Sessions shorter than this will not see the whole
// scenario.
func (s *Schedule) Duration() simtime.Duration {
	var d simtime.Duration
	for _, p := range s.points {
		if end := p.at + p.ramp; end > d {
			d = end
		}
	}
	return d
}

// Validate reports the first authoring error, or nil for a usable schedule.
func (s *Schedule) Validate() error { return s.err }

// Action is one flattened shaper write: at offset At, program the scalar
// impairments. Burst designates the burst model in force from this action
// on; ResetBurst marks authored point boundaries, where the binding
// restarts the Markov chain (interior ramp samples keep the running chain's
// state).
type Action struct {
	At         simtime.Duration
	Set        Impairment
	ResetBurst bool
}

// Actions flattens the schedule into its deterministic shaper-write list:
// steps verbatim, ramps expanded into tick-spaced interpolation samples
// (truncated at the next point). The list is what Bind schedules; tests
// assert against it directly.
func (s *Schedule) Actions() ([]Action, error) {
	if s.err != nil {
		return nil, s.err
	}
	// A zero-value Schedule (built without New) has tick 0; fall back to
	// the default rather than advancing ramp samples by nothing.
	tick := s.tick
	if tick <= 0 {
		tick = DefaultTick
	}
	var acts []Action
	prev := Impairment{} // scalar state before the first point
	for i, p := range s.points {
		next := simtime.Duration(-1)
		if i+1 < len(s.points) {
			next = s.points[i+1].at
		}
		if p.ramp == 0 {
			acts = append(acts, Action{At: p.at, Set: p.imp, ResetBurst: true})
			prev = p.imp
		} else {
			// Ramp: the burst switch and the first interpolation sample
			// land at the ramp start; scalars then glide to the target. If
			// the ramp is truncated by the next point, the segment after it
			// starts from the last sample actually applied — the authored
			// target was never in force on the link.
			from := prev
			for off := simtime.Duration(0); ; off += tick {
				// Clamp the final sample to the ramp end BEFORE the
				// truncation check: a next point after the ramp end but
				// inside the last partial tick does not truncate it.
				at := p.at + off
				last := off >= p.ramp
				f := 1.0
				if last {
					at = p.at + p.ramp
				} else {
					f = float64(off) / float64(p.ramp)
				}
				if next >= 0 && at >= next {
					break // truncated by the next point
				}
				set := Impairment{
					ExtraDelayMs: lerp(from.ExtraDelayMs, p.imp.ExtraDelayMs, f),
					RateBps:      lerp(from.RateBps, p.imp.RateBps, f),
					LossProb:     lerp(from.LossProb, p.imp.LossProb, f),
					Burst:        p.imp.Burst,
				}
				acts = append(acts, Action{At: at, Set: set, ResetBurst: off == 0})
				prev = set
				if last {
					break
				}
			}
		}
	}
	return acts, nil
}

func lerp(a, b, f float64) float64 { return a + (b-a)*f }

// Bind schedules every action onto sched (offsets relative to sched.Now()),
// driving sh for the rest of the simulation. Each binding instantiates its
// own Gilbert-Elliott chains, so a schedule may be bound to many links (or
// reused across sweep cells) without sharing Markov state.
func (s *Schedule) Bind(sched *simtime.Scheduler, sh *netem.Shaper) error {
	acts, err := s.Actions()
	if err != nil {
		return err
	}
	base := sched.Now()
	site := sched.Site("scenario.apply")
	var chain *netem.GilbertElliott
	for _, a := range acts {
		a := a
		sched.At(base.Add(a.At), site, func() {
			sh.ExtraDelayMs = a.Set.ExtraDelayMs
			sh.RateBps = a.Set.RateBps
			sh.LossProb = a.Set.LossProb
			switch {
			case a.Set.Burst == nil:
				chain = nil
			case a.ResetBurst || chain == nil:
				chain = a.Set.Burst.chain()
			}
			sh.Burst = chain
		})
	}
	return nil
}

// ---------------------------------------------------------------- Presets
//
// The §4.3-shaped timelines the core experiments (and the vpfleet sweep
// grids) are built from. Each returns a fresh schedule parameterized by the
// swept quantities.

// DelayStep models a path handover: at `at`, one-way delay steps up by
// stepMs; at `until`, the path recovers. With until <= at the impairment
// never lifts.
func DelayStep(stepMs float64, at, until simtime.Duration) *Schedule {
	s := New().StepAt(at, Impairment{ExtraDelayMs: stepMs})
	if until > at {
		s.ClearAt(until)
	}
	return s
}

// BandwidthRamp models congestion onset and recovery: the link's rate cap
// ramps from startBps down to floorBps over [at, at+fall], holds, then
// ramps back up to startBps over [releaseAt, releaseAt+rise] and clears.
func BandwidthRamp(startBps, floorBps float64, at, fall, releaseAt, rise simtime.Duration) *Schedule {
	s := New().
		StepAt(0, Impairment{RateBps: startBps}).
		RampTo(at, fall, Impairment{RateBps: floorBps})
	if releaseAt > at+fall {
		s.RampTo(releaseAt, rise, Impairment{RateBps: startBps})
		s.ClearAt(releaseAt + rise + simtime.Millisecond)
	}
	return s
}

// BurstLoss applies a Gilbert-Elliott burst-loss channel over [at, until);
// with until <= at it stays for the rest of the session.
func BurstLoss(p BurstParams, at, until simtime.Duration) *Schedule {
	s := New().StepAt(at, Impairment{Burst: &p})
	if until > at {
		s.ClearAt(until)
	}
	return s
}

// ---------------------------------------------------------- Sweep helpers

// ParamLabel renders a parameter map as the canonical "k=v,k2=v2" label
// (keys sorted), used for per-cell seed derivation: a cell's seed depends
// only on its parameter values, never on its position in a grid.
func ParamLabel(params map[string]float64) string {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%s=%g", k, params[k])
	}
	return out
}
