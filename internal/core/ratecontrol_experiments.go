package core

import (
	"fmt"
	"math"

	"telepresence/internal/ratecontrol"
	"telepresence/internal/vca"
)

// The rate-control experiments close the loop the paper's §4.3 open-loop
// measurements leave dangling: the same capped/ramped uplinks, but with the
// sender running a congestion controller (internal/ratecontrol) fed by
// RTCP-style receiver reports over the reverse path (internal/vca's
// RateControl wiring). Each cell compares a controller against the
// open-loop baseline ("fixed") at the same impairment.
//
// Both experiments follow the scenario-experiment determinism contract:
// registered twice (fixed default grid for the golden suite, sweep target
// for vpfleet sweep grids), with every cell's seed derived from the run
// seed and the cell's parameter values alone via SweepCellOptions.
// Controllers are addressed by their index in ratecontrol.Kinds() so they
// can ride a numeric sweep axis; the index order is part of the cell-seed
// contract.

// controllerFromParam resolves the "controller" sweep parameter (an index
// into ratecontrol.Kinds) to its kind name.
func controllerFromParam(params map[string]float64) (string, error) {
	v := params["controller"]
	idx := int(math.Round(v))
	kinds := ratecontrol.Kinds()
	if math.Abs(v-float64(idx)) > 1e-9 || idx < 0 || idx >= len(kinds) {
		return "", fmt.Errorf("ratecontrol: controller index %g not in [0,%d] (%v)",
			v, len(kinds)-1, kinds)
	}
	return kinds[idx], nil
}

// ------------------------------------------------------------------ ccrate

// CCRateRow is one cell of the closed-loop rate-adaptation experiment: a
// 2D-video Zoom call (P2P two-party) under a static uplink cap, with the
// named controller closing the loop. Controller "fixed" is the open-loop
// baseline the paper measured.
type CCRateRow struct {
	Controller string
	// CapMbps is the static uplink cap (0 = uncapped).
	CapMbps float64
	// AchievedMbps is the uplink's delivered rate over the whole session,
	// as the AP observer sees it (media + audio + feedback).
	AchievedMbps float64
	// MeanTargetMbps is the controller target averaged over all feedback
	// arrivals.
	MeanTargetMbps float64
	// QueueDropFrac is the uplink's drop-tail overflow fraction.
	QueueDropFrac   float64
	UnavailableFrac float64
	MeanLatencyMs   float64
	DecodedFrac     float64
}

// DefaultCCRateControllers returns the controller-index grid (every kind).
func DefaultCCRateControllers() []float64 {
	out := make([]float64, len(ratecontrol.Kinds()))
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

// DefaultCCRateCaps is the ccrate registry grid in Mbps (0 = uncapped),
// straddling Zoom's 1.4 Mbps encoder target: a cap that never bites, one
// that barely bites, and two that strangle a fixed-rate sender.
func DefaultCCRateCaps() []float64 { return []float64{0, 1.2, 0.9, 0.6} }

// ccrateSessionConfig is the standard 2D-video session the closed-loop cap
// experiment impairs: a two-party Zoom call (640x360, 1.4 Mbps target),
// which plans to P2P RTP, so the feedback path is the raw reverse pipe.
func ccrateSessionConfig(cell Options, controller string) vca.SessionConfig {
	sc := twoPartyConfig(vca.Zoom, cell)
	sc.RateControl = &vca.RateControlConfig{Controller: controller}
	return sc
}

// ccrateCell runs one controller x cap cell.
func ccrateCell(opts Options, params map[string]float64) (CCRateRow, error) {
	kind, err := controllerFromParam(params)
	if err != nil {
		return CCRateRow{}, err
	}
	capMbps := params["cap_mbps"]
	if capMbps < 0 {
		return CCRateRow{}, fmt.Errorf("ccrate: negative cap_mbps %g", capMbps)
	}
	config := func(cell Options) vca.SessionConfig { return ccrateSessionConfig(cell, kind) }
	return runSessionCell(opts, "ccrate", params, config,
		func(sess *vca.Session, sc vca.SessionConfig) (func(*vca.Results) CCRateRow, error) {
			if capMbps > 0 {
				sess.UplinkShaper(0).RateBps = capMbps * 1e6
			}
			return func(res *vca.Results) CCRateRow {
				up := sess.UplinkStats(0)
				return CCRateRow{
					Controller:      kind,
					CapMbps:         capMbps,
					AchievedMbps:    float64(up.DeliveredB*8) / sc.Duration.Seconds() / 1e6,
					MeanTargetMbps:  sess.RateTargetMeanBps(0) / 1e6,
					QueueDropFrac:   sentFrac(up.DroppedQueue, up),
					UnavailableFrac: res.Users[1].UnavailableFrac,
					MeanLatencyMs:   res.Users[1].MeanFrameLatencyMs,
					DecodedFrac:     decodedFrac(res, 0, 1),
				}
			}, nil
		})
}

// ------------------------------------------------------------------ ccramp

// CCRampRow is one cell of the closed-loop congestion-ramp experiment: a
// 2D-video Teams call (server-relayed, so feedback crosses the SFU) under
// the PR 3 bandwidth-ramp schedule, with the named controller closing the
// loop.
type CCRampRow struct {
	Controller string
	StartMbps  float64
	FloorMbps  float64
	// FloorAchievedMbps is the uplink's delivered rate over the middle
	// floor-hold window [3D/8, 5D/8] — how closely the sender tracked the
	// ramp's bottom.
	FloorAchievedMbps float64
	MeanTargetMbps    float64
	QueueDropFrac     float64
	UnavailableFrac   float64
	MeanLatencyMs     float64
	DecodedFrac       float64
}

// ccrampSessionConfig is the server-relayed 2D session the ramp impairs:
// Teams between two Vision Pros (720p via SFU), so receiver reports cross
// the relay like any media frame. The session runs at 15 fps — the rate
// dynamics under the ramp depend on the bitrate target, not the frame
// cadence, and halving the frame count halves the 720p encode cost of
// every golden-suite run.
func ccrampSessionConfig(cell Options, controller string) vca.SessionConfig {
	sc := twoPartyConfig(vca.Teams, cell)
	sc.VideoFPS = 15
	sc.RateControl = &vca.RateControlConfig{Controller: controller}
	return sc
}

// ccrampCell runs one controller x floor cell under the congestion ramp
// (rampSchedule).
func ccrampCell(opts Options, params map[string]float64) (CCRampRow, error) {
	kind, err := controllerFromParam(params)
	if err != nil {
		return CCRampRow{}, err
	}
	start, floor, err := rampParams("ccramp", params)
	if err != nil {
		return CCRampRow{}, err
	}
	config := func(cell Options) vca.SessionConfig { return ccrampSessionConfig(cell, kind) }
	return runSessionCell(opts, "ccramp", params, config,
		func(sess *vca.Session, sc vca.SessionConfig) (func(*vca.Results) CCRampRow, error) {
			if err := bindUplink(sess, rampSchedule(start, floor, sc.Duration)); err != nil {
				return nil, err
			}
			floorMbps := floorWindowMbps(sess, sc.Duration)
			return func(res *vca.Results) CCRampRow {
				up := sess.UplinkStats(0)
				return CCRampRow{
					Controller:        kind,
					StartMbps:         params["start_mbps"],
					FloorMbps:         params["floor_mbps"],
					FloorAchievedMbps: floorMbps(),
					MeanTargetMbps:    sess.RateTargetMeanBps(0) / 1e6,
					QueueDropFrac:     sentFrac(up.DroppedQueue, up),
					UnavailableFrac:   res.Users[1].UnavailableFrac,
					MeanLatencyMs:     res.Users[1].MeanFrameLatencyMs,
					DecodedFrac:       decodedFrac(res, 0, 1),
				}
			}, nil
		})
}

// ---------------------------------------------------------- registration

func init() {
	ccrate := SweepTarget{
		Name: "ccrate", Desc: "closed-loop §4.3 rate adaptation: controller x static uplink cap (controller: 0=fixed 1=loss 2=gcc)",
		Row: CCRateRow{},
		Params: []SweepParam{
			{Name: "controller", Default: 2, Desc: "ratecontrol.Kinds() index: 0=fixed (open loop), 1=loss, 2=gcc"},
			{Name: "cap_mbps", Default: 1, Desc: "static uplink cap in Mbps (0 = uncapped)"},
		},
		Run: func(o Options, p map[string]float64) ([]Row, error) { return rows(ccrateCell(o, p)) },
	}
	ccramp := SweepTarget{
		Name: "ccramp", Desc: "closed-loop congestion ramp: controller x rate floor under the mid-call bandwidth ramp (controller: 0=fixed 1=loss 2=gcc)",
		Row: CCRampRow{},
		Params: []SweepParam{
			{Name: "controller", Default: 2, Desc: "ratecontrol.Kinds() index: 0=fixed (open loop), 1=loss, 2=gcc"},
			{Name: "start_mbps", Default: 4, Desc: "uncongested rate cap"},
			{Name: "floor_mbps", Default: 1, Desc: "rate floor at peak congestion"},
		},
		Run: func(o Options, p map[string]float64) ([]Row, error) { return rows(ccrampCell(o, p)) },
	}
	RegisterSweep(ccrate)
	RegisterSweep(ccramp)

	// Default grids: every controller against every impairment level, the
	// open-loop "fixed" rows doubling as the baseline within the section.
	ctrls := DefaultCCRateControllers()
	caps := DefaultCCRateCaps()
	Register(Experiment{
		Name: "ccrate", Desc: ccrate.Desc + " (default grid)",
		Row: CCRateRow{}, Reps: fixed(len(ctrls) * len(caps)),
		Run: func(o Options, rep int) ([]Row, error) {
			p := withDefaults(ccrate, map[string]float64{
				"controller": ctrls[rep/len(caps)],
				"cap_mbps":   caps[rep%len(caps)],
			})
			return rows(ccrateCell(o, p))
		},
	})
	floors := DefaultCongestionFloorsMbps()
	Register(Experiment{
		Name: "ccramp", Desc: ccramp.Desc + " (default grid)",
		Row: CCRampRow{}, Reps: fixed(len(ctrls) * len(floors)),
		Run: func(o Options, rep int) ([]Row, error) {
			p := withDefaults(ccramp, map[string]float64{
				"controller": ctrls[rep/len(floors)],
				"floor_mbps": floors[rep%len(floors)],
			})
			return rows(ccrampCell(o, p))
		},
	})
}
