package vca

import (
	"fmt"

	"telepresence/internal/recovery"
	"telepresence/internal/simtime"
	"telepresence/internal/telemetry"
	"telepresence/internal/vprof"
)

// TelemetryConfig attaches a session's observers: the event tracer, the
// metrics sampler and the virtual-time profiler. Nil — the default — is
// provably inert: no events, no metrics ticker, no scheduler probe, no
// allocations on the hot paths, no randomness, and byte-identical golden
// rows (TestTelemetryOffIsInert).
//
// Observers never steer: gauges, events and probes read session state
// without mutating it, so even enabled observers leave every experiment
// row identical. Traces and the profiler's counters are deterministic
// functions of the seed, byte-identical at any fleet worker count.
type TelemetryConfig struct {
	// Trace receives the session's typed event stream as JSONL (see
	// internal/telemetry's schema). Nil disables event tracing.
	Trace *telemetry.Tracer
	// Metrics, when non-nil, is sampled every MetricsInterval of virtual
	// time: per-sender rate target vs achieved uplink rate, queue depth,
	// recovery loss EWMA, cumulative repairs, and frames outstanding in the
	// reassembler.
	Metrics *telemetry.Metrics
	// MetricsInterval is the virtual-time sampling period (default 100 ms).
	MetricsInterval simtime.Duration
	// Prof, when non-nil, is attached to the session's scheduler before
	// any subsystem schedules its first event, so it sees every event.
	// Nil leaves the scheduler's probe hook unset. Its wall-clock CPU
	// attribution never reaches golden outputs.
	Prof *vprof.Profiler
}

// metricsInterval returns the sampling period with the default applied.
func (tc *TelemetryConfig) metricsInterval() simtime.Duration {
	if tc.MetricsInterval <= 0 {
		return 100 * simtime.Millisecond
	}
	return tc.MetricsInterval
}

// setupTelemetry wires the configured tracer into every link and registers
// the metrics gauges plus their sampling ticker. Called once from
// NewSession after the media path is wired, so the gauges can read whatever
// state (controllers, recovery, reassemblers) the plan created.
func (s *Session) setupTelemetry() {
	tc := s.cfg.Telemetry
	if tc == nil {
		return
	}
	s.tr = tc.Trace
	if s.tr != nil {
		for i := range s.up {
			s.up[i].SetTracer(s.tr)
			s.down[i].SetTracer(s.tr)
		}
	}
	m := tc.Metrics
	if m == nil {
		return
	}
	n := len(s.cfg.Participants)
	// Achieved uplink rate is a windowed delta of the link's delivered
	// bytes, recomputed by the sampling ticker just before each Sample.
	achieved := make([]float64, n)
	lastB := make([]int64, n)
	var lastT simtime.Time
	for i := 0; i < n; i++ {
		i := i
		m.Register(fmt.Sprintf("target_bps/u%d", i), func() float64 {
			return s.RateTargetBps(i)
		})
		m.Register(fmt.Sprintf("achieved_up_bps/u%d", i), func() float64 {
			return achieved[i]
		})
		m.Register(fmt.Sprintf("queue_up_bytes/u%d", i), func() float64 {
			return float64(s.up[i].QueuedBytes())
		})
		m.Register(fmt.Sprintf("loss_ewma/u%d", i), func() float64 {
			if s.recSend != nil && s.recSend[i] != nil {
				return s.recSend[i].LossEwma()
			}
			return 0
		})
		m.Register(fmt.Sprintf("repaired/u%d", i), func() float64 {
			var total int64
			if s.recRecv != nil {
				for k := range s.recRecv {
					if rr := s.recRecv[k][i]; rr != nil {
						st := rr.Stats()
						total += st.RepairedRtx + st.RepairedFec
					}
				}
			}
			return float64(total)
		})
		m.Register(fmt.Sprintf("frames_outstanding/u%d", i), func() float64 {
			var total int
			if s.depacks != nil {
				for k := range s.depacks {
					if d := s.depacks[k][i]; d != nil {
						total += d.Pending()
					}
				}
			}
			return float64(total)
		})
	}
	simtime.NewTicker(s.sched, tc.metricsInterval(), s.sched.Site("vca/telemetry.metrics"), func(now simtime.Time) {
		dt := now.Sub(lastT).Seconds()
		for i := 0; i < n; i++ {
			b := s.up[i].Stats().DeliveredB
			if dt > 0 {
				achieved[i] = float64(b-lastB[i]) * 8 / dt
			}
			lastB[i] = b
		}
		lastT = now
		m.Sample(now.Milliseconds())
	})
}

// recSnap is a snapshot of one recovery receiver's repair counters, taken
// before a call that may repair or expire gaps; traceRepairDelta emits the
// difference as typed events. Diffing the engine's own counters keeps the
// trace exactly consistent with end-of-run ReceiverStats — the property the
// summarize-reproduces-UserStats acceptance test pins.
type recSnap struct {
	rtx, fec, unrep int64
}

func snapRecovery(rr *recovery.Receiver) recSnap {
	st := rr.Stats()
	return recSnap{rtx: st.RepairedRtx, fec: st.RepairedFec, unrep: st.Unrepaired}
}

// traceRepairDelta emits repair/expire events for counter movement since
// pre. Caller must hold s.tr != nil.
func (s *Session) traceRepairDelta(now simtime.Time, i, j int, rr *recovery.Receiver, pre recSnap) {
	st := rr.Stats()
	if d := st.RepairedRtx - pre.rtx; d > 0 {
		s.tr.Repair(now, i, j, "rtx", int(d))
	}
	if d := st.RepairedFec - pre.fec; d > 0 {
		s.tr.Repair(now, i, j, "fec", int(d))
	}
	if d := st.Unrepaired - pre.unrep; d > 0 {
		s.tr.Expire(now, i, j, int(d))
	}
}
