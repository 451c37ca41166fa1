package core

import (
	"telepresence/internal/recovery"
	"telepresence/internal/scenario"
	"telepresence/internal/simtime"
	"telepresence/internal/stats"
	"telepresence/internal/vca"
)

// The recovery experiments measure loss recovery (internal/recovery) under
// the PR 3 impairment families: "recovery" crosses every strategy with the
// Gilbert-Elliott burst grid (strategy x burstiness — XOR parity repairs
// scattered singles, NACK/RTX repairs bursts, hybrid should dominate), and
// "recramp" crosses strategies with the mid-call bandwidth ramp under gcc
// rate control (does reactive repair traffic blow the congestion budget?).
//
// Both follow the scenario-experiment determinism contract: registered
// once as a sweep target whose default grid is also the golden-pinned
// registry experiment, with every cell's seed derived from the run seed
// and parameter values alone via SweepCellOptions. Strategies ride a numeric axis as the index into
// recovery.Kinds() (0=none 1=nack 2=fec 3=hybrid); the order is part of
// the cell-seed contract like ratecontrol.Kinds in ccrate/ccramp.

// DefaultRecoveryStrategies returns the strategy-index grid (every kind).
func DefaultRecoveryStrategies() []float64 {
	out := make([]float64, len(recovery.Kinds()))
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

// recoverySessionConfig is the standard lossy-path session both recovery
// experiments run: a two-party Zoom call (P2P 2D video at 640x360), so the
// NACK/parity reverse path is the raw pipe. The frame rate drops to 15 fps
// (the repair dynamics depend on packets per frame and the loss process,
// not the frame cadence, and it halves the per-cell encode cost) and the
// freshness window tightens to 200 ms so a single frame-timeout stall is
// visible in UnavailableFrac — the sensitivity the strategy contrast needs.
func recoverySessionConfig(cell Options, strategy string) vca.SessionConfig {
	sc := twoPartyConfig(vca.Zoom, cell)
	sc.VideoFPS = 15
	sc.FreshnessLimit = 200 * simtime.Millisecond
	// "none" is wired but inert — byte-identical to no recovery at all
	// (TestRecoveryOffIsInert), so the baseline rows share the config path.
	sc.Recovery = &vca.RecoveryConfig{Strategy: strategy}
	return sc
}

// ---------------------------------------------------------------- recovery

// RecoveryRow is one cell of the loss-recovery experiment: a recovery
// strategy against a Gilbert-Elliott burst channel on the sender's uplink.
type RecoveryRow struct {
	Strategy  string
	GoodToBad float64
	BadToGood float64
	LossBad   float64
	// MeasuredLoss is the uplink's realized frame-loss fraction (all
	// traffic: media, audio, feedback, recovery).
	MeasuredLoss float64
	// RepairedFrac / UnrepairedFrac split the receiver's detected missing
	// media packets into repaired (RTX or FEC) and lost for good; they do
	// not sum to 1 when gaps are still within their deadline at session
	// end.
	RepairedFrac   float64
	UnrepairedFrac float64
	// RedundancyFrac is the proactive redundancy the sender added — parity
	// wire bytes as a fraction of the rate target over the session. The
	// pinned acceptance bound (TestHybridRecoveryAcceptance) keeps it at
	// or under 20%.
	RedundancyFrac float64
	// RtxFrac is the reactive repair traffic — retransmitted bytes as a
	// fraction of the rate target over the session.
	RtxFrac float64
	// RtxDelayP50Ms / RtxDelayP95Ms are repair-delay quantiles from first
	// detection to repair (RTX and FEC repairs; FEC repairs are ~0 ms).
	RtxDelayP50Ms float64
	RtxDelayP95Ms float64
	// UnavailableFrac is the residual unavailability after repair.
	UnavailableFrac float64
	MeanLatencyMs   float64
	DecodedFrac     float64
}

// recoveryCell runs one strategy x channel cell.
func recoveryCell(opts Options, params map[string]float64) (RecoveryRow, error) {
	kind, err := indexParam("recovery", "strategy", params, recovery.Kinds())
	if err != nil {
		return RecoveryRow{}, err
	}
	bp := burstParams(params)
	config := func(cell Options) vca.SessionConfig { return recoverySessionConfig(cell, kind) }
	return runSessionCell(opts, "recovery", params, config,
		func(sess *vca.Session, sc vca.SessionConfig) (func(*vca.Results) RecoveryRow, error) {
			if err := bindUplink(sess, scenario.BurstLoss(bp, 0, 0)); err != nil {
				return nil, err
			}
			return func(res *vca.Results) RecoveryRow {
				up := sess.UplinkStats(0)
				row := RecoveryRow{
					Strategy: kind, GoodToBad: bp.GoodToBad, BadToGood: bp.BadToGood, LossBad: bp.LossBad,
					MeasuredLoss:    sentFrac(up.DroppedLoss, up),
					UnavailableFrac: res.Users[1].UnavailableFrac,
					MeanLatencyMs:   res.Users[1].MeanFrameLatencyMs,
					DecodedFrac:     decodedFrac(res, 0, 1),
				}
				// Overhead against the rate target: the open-loop encoder
				// target is the budget these sessions spend.
				targetBytes := vca.SpecFor(sc.App).VideoTargetBps / 8 * sc.Duration.Seconds()
				if sst, ok := sess.RecoverySenderStats(0); ok && targetBytes > 0 {
					row.RedundancyFrac = float64(sst.ParityBytes) / targetBytes
					row.RtxFrac = float64(sst.RtxBytes) / targetBytes
				}
				if rst, ok := sess.RecoveryReceiverStats(0, 1); ok && rst.Missed > 0 {
					row.RepairedFrac = float64(rst.RepairedRtx+rst.RepairedFec) / float64(rst.Missed)
					row.UnrepairedFrac = float64(rst.Unrepaired) / float64(rst.Missed)
					if len(rst.RepairDelaysMs) > 0 {
						d := stats.NewSample(rst.RepairDelaysMs...)
						row.RtxDelayP50Ms = d.Median()
						row.RtxDelayP95Ms = d.Percentile(95)
					}
				}
				return row
			}, nil
		})
}

// ----------------------------------------------------------------- recramp

// RecRampRow is one cell of the recovery-under-congestion experiment: a
// recovery strategy riding the PR 3 bandwidth ramp with gcc rate control
// closing the loop — queue-overflow losses must be repaired without the
// repair traffic itself blowing the congestion budget (redundancy bytes
// are charged against the controller target).
type RecRampRow struct {
	Strategy  string
	StartMbps float64
	FloorMbps float64
	// FloorAchievedMbps is the uplink's delivered rate over the floor-hold
	// window [3D/8, 5D/8].
	FloorAchievedMbps float64
	// MeanTargetMbps is the applied (overhead-charged) controller target
	// averaged over feedback arrivals.
	MeanTargetMbps float64
	// OverheadFrac is the sender's redundancy ratio: (parity + RTX) bytes
	// per media byte.
	OverheadFrac    float64
	RepairedFrac    float64
	QueueDropFrac   float64
	UnavailableFrac float64
	MeanLatencyMs   float64
	DecodedFrac     float64
}

// DefaultRecRampFloorsMbps is the recramp default floor grid: a floor the
// 1.4 Mbps Zoom encoder can almost hold and one that strangles it.
func DefaultRecRampFloorsMbps() []float64 { return []float64{1.0, 0.5} }

// recrampCell runs one strategy x floor cell under the congestion ramp
// (rampSchedule).
func recrampCell(opts Options, params map[string]float64) (RecRampRow, error) {
	kind, err := indexParam("recramp", "strategy", params, recovery.Kinds())
	if err != nil {
		return RecRampRow{}, err
	}
	start, floor, err := rampParams("recramp", params)
	if err != nil {
		return RecRampRow{}, err
	}
	config := func(cell Options) vca.SessionConfig {
		sc := recoverySessionConfig(cell, kind)
		sc.RateControl = &vca.RateControlConfig{Controller: "gcc"}
		return sc
	}
	return runSessionCell(opts, "recramp", params, config,
		func(sess *vca.Session, sc vca.SessionConfig) (func(*vca.Results) RecRampRow, error) {
			if err := bindUplink(sess, rampSchedule(start, floor, sc.Duration)); err != nil {
				return nil, err
			}
			floorMbps := floorWindowMbps(sess, sc.Duration)
			return func(res *vca.Results) RecRampRow {
				up := sess.UplinkStats(0)
				row := RecRampRow{
					Strategy:          kind,
					StartMbps:         params["start_mbps"],
					FloorMbps:         params["floor_mbps"],
					FloorAchievedMbps: floorMbps(),
					MeanTargetMbps:    sess.RateTargetMeanBps(0) / 1e6,
					OverheadFrac:      sess.RecoveryOverheadRatio(0),
					QueueDropFrac:     sentFrac(up.DroppedQueue, up),
					UnavailableFrac:   res.Users[1].UnavailableFrac,
					MeanLatencyMs:     res.Users[1].MeanFrameLatencyMs,
					DecodedFrac:       decodedFrac(res, 0, 1),
				}
				if rst, ok := sess.RecoveryReceiverStats(0, 1); ok && rst.Missed > 0 {
					row.RepairedFrac = float64(rst.RepairedRtx+rst.RepairedFec) / float64(rst.Missed)
				}
				return row
			}, nil
		})
}

// ---------------------------------------------------------- registration

// Default grids: every strategy against every impairment level; the inert
// "none" rows double as the no-recovery baseline within the section.
func init() {
	strategies := Axis("strategy", DefaultRecoveryStrategies()...)
	RegisterSweep(SweepTarget{
		Name: "recovery", Desc: "loss recovery: strategy x Gilbert-Elliott burst channel (strategy: 0=none 1=nack 2=fec 3=hybrid)",
		Row: RecoveryRow{},
		Params: []SweepParam{
			{Name: "strategy", Default: 3, Desc: "recovery.Kinds() index: 0=none 1=nack 2=fec 3=hybrid"},
			{Name: "p_good_bad", Default: 0.02, Desc: "per-frame P(good->bad)"},
			{Name: "p_bad_good", Default: 0.25, Desc: "per-frame P(bad->good)"},
			{Name: "loss_bad", Default: 0.9, Desc: "loss probability in the bad state"},
		},
		Run:  func(o Options, p map[string]float64) ([]Row, error) { return rows(recoveryCell(o, p)) },
		Grid: Cross(strategies, burstLossGrid),
	})
	RegisterSweep(SweepTarget{
		Name: "recramp", Desc: "loss recovery under congestion: strategy x ramp floor with gcc rate control (strategy: 0=none 1=nack 2=fec 3=hybrid)",
		Row: RecRampRow{},
		Params: []SweepParam{
			{Name: "strategy", Default: 3, Desc: "recovery.Kinds() index: 0=none 1=nack 2=fec 3=hybrid"},
			{Name: "start_mbps", Default: 4, Desc: "uncongested rate cap"},
			{Name: "floor_mbps", Default: 1, Desc: "rate floor at peak congestion"},
		},
		Run:  func(o Options, p map[string]float64) ([]Row, error) { return rows(recrampCell(o, p)) },
		Grid: Cross(strategies, Axis("floor_mbps", DefaultRecRampFloorsMbps()...)),
	})
}
