package core

import (
	"telepresence/internal/scenario"
	"telepresence/internal/simrand"
	"telepresence/internal/vca"
)

// The scenario experiments run full spatial sessions under time-varying
// impairment schedules — the paper's §4.3 methodology made declarative.
// Each is registered twice: as a fixed-grid fleet experiment (one rep per
// default-grid cell, so the golden suite pins its rows) and as a sweep
// target (vpfleet sweep) whose grid axes are the schedule parameters.
//
// A cell's randomness derives from the run seed and the cell's parameter
// values alone (SweepCellOptions), so a sweep cell at the default
// parameters reproduces the registry experiment's row byte-for-byte, and
// reshaping a grid never changes any cell's rows.

// SweepCellOptions derives the per-cell options for one sweep cell: the
// cell's seed is a pure function of the run seed, the target name, and the
// canonical parameter label — never the cell's position in a grid.
func SweepCellOptions(opts Options, target string, params map[string]float64) Options {
	opts.Seed = simrand.ChildSeed(opts.Seed, "sweep/"+target+"/"+scenario.ParamLabel(params))
	return opts
}

// scenarioSessionConfig is the standard spatial session the scenario
// experiments impair: FaceTime between two Vision Pros (twoPartyConfig).
func scenarioSessionConfig(cell Options) vca.SessionConfig {
	return twoPartyConfig(vca.FaceTime, cell)
}

// --------------------------------------------------------------- handover

// HandoverRow is one cell of the handover experiment: a mid-call path
// switch modeled as a one-way delay step of StepDelayMs for the middle
// third of the session.
type HandoverRow struct {
	StepDelayMs float64
	// UnavailableFrac is the fraction of the session the receiver's persona
	// showed "poor connection".
	UnavailableFrac float64
	// MeanLatencyMs is the mean capture-to-decode frame latency.
	MeanLatencyMs float64
	// DecodedFrac is receiver decodes over sender emissions.
	DecodedFrac float64
}

// DefaultHandoverDelaysMs is the registry experiment's delay-step grid,
// inside the paper's 0-1,000 ms injection range.
func DefaultHandoverDelaysMs() []float64 { return []float64{100, 500, 1000} }

// handoverCell runs one delay-step cell.
func handoverCell(opts Options, params map[string]float64) (HandoverRow, error) {
	stepMs := params["delay_ms"]
	return runSessionCell(opts, "handover", params, scenarioSessionConfig,
		func(sess *vca.Session, sc vca.SessionConfig) (func(*vca.Results) HandoverRow, error) {
			if err := bindUplink(sess, scenario.DelayStep(stepMs, sc.Duration/3, 2*sc.Duration/3)); err != nil {
				return nil, err
			}
			return func(res *vca.Results) HandoverRow {
				return HandoverRow{
					StepDelayMs:     stepMs,
					UnavailableFrac: res.Users[1].UnavailableFrac,
					MeanLatencyMs:   res.Users[1].MeanFrameLatencyMs,
					DecodedFrac:     decodedFrac(res, 0, 1),
				}
			}, nil
		})
}

// decodedFrac is receiver j's decode count over sender i's emissions.
func decodedFrac(res *vca.Results, i, j int) float64 {
	if res.Users[i].FramesSent == 0 {
		return 0
	}
	return float64(res.Users[j].FramesDecoded) / float64(res.Users[i].FramesSent)
}

// -------------------------------------------------------------- burstloss

// BurstLossRow is one cell of the burst-loss experiment: a Gilbert-Elliott
// channel on the sender's uplink for the whole session.
type BurstLossRow struct {
	GoodToBad float64
	BadToGood float64
	LossBad   float64
	// MeasuredLoss is the uplink's realized frame-loss fraction.
	MeasuredLoss    float64
	UnavailableFrac float64
	MeanLatencyMs   float64
	DecodedFrac     float64
}

// burstLossGrid is the registry experiment's default channel grid: light,
// moderate and heavy bursting (mean burst lengths 3.3, 4 and 6.7 frames).
var burstLossGrid = []map[string]float64{
	{"p_good_bad": 0.005, "p_bad_good": 0.3, "loss_bad": 0.9},
	{"p_good_bad": 0.02, "p_bad_good": 0.25, "loss_bad": 0.9},
	{"p_good_bad": 0.05, "p_bad_good": 0.15, "loss_bad": 0.95},
}

// burstParams reads a Gilbert-Elliott channel from the cell parameters.
func burstParams(params map[string]float64) scenario.BurstParams {
	return scenario.BurstParams{
		GoodToBad: params["p_good_bad"],
		BadToGood: params["p_bad_good"],
		LossBad:   params["loss_bad"],
	}
}

// burstLossCell runs one Gilbert-Elliott cell.
func burstLossCell(opts Options, params map[string]float64) (BurstLossRow, error) {
	bp := burstParams(params)
	return runSessionCell(opts, "burstloss", params, scenarioSessionConfig,
		func(sess *vca.Session, _ vca.SessionConfig) (func(*vca.Results) BurstLossRow, error) {
			if err := bindUplink(sess, scenario.BurstLoss(bp, 0, 0)); err != nil {
				return nil, err
			}
			return func(res *vca.Results) BurstLossRow {
				up := sess.UplinkStats(0)
				return BurstLossRow{
					GoodToBad: bp.GoodToBad, BadToGood: bp.BadToGood, LossBad: bp.LossBad,
					MeasuredLoss:    sentFrac(up.DroppedLoss, up),
					UnavailableFrac: res.Users[1].UnavailableFrac,
					MeanLatencyMs:   res.Users[1].MeanFrameLatencyMs,
					DecodedFrac:     decodedFrac(res, 0, 1),
				}
			}, nil
		})
}

// ------------------------------------------------------------- congestion

// CongestionRow is one cell of the congestion experiment: the uplink's
// rate cap ramps from StartMbps down to FloorMbps and back over the middle
// of the session, modeling congestion onset and recovery.
type CongestionRow struct {
	StartMbps float64
	FloorMbps float64
	// QueueDropFrac is the uplink's drop-tail overflow fraction — nonzero
	// only while the shrinking cap makes the serializer queue bite.
	QueueDropFrac   float64
	UnavailableFrac float64
	MeanLatencyMs   float64
	DecodedFrac     float64
}

// DefaultCongestionFloorsMbps is the registry experiment's floor grid,
// straddling the spatial persona's ~1.5 Mbps uplink demand.
func DefaultCongestionFloorsMbps() []float64 { return []float64{2.0, 1.0, 0.5} }

// congestionCell runs one bandwidth-ramp cell (rampSchedule).
func congestionCell(opts Options, params map[string]float64) (CongestionRow, error) {
	start, floor, err := rampParams("congestion", params)
	if err != nil {
		return CongestionRow{}, err
	}
	return runSessionCell(opts, "congestion", params, scenarioSessionConfig,
		func(sess *vca.Session, sc vca.SessionConfig) (func(*vca.Results) CongestionRow, error) {
			if err := bindUplink(sess, rampSchedule(start, floor, sc.Duration)); err != nil {
				return nil, err
			}
			return func(res *vca.Results) CongestionRow {
				up := sess.UplinkStats(0)
				return CongestionRow{
					StartMbps: params["start_mbps"], FloorMbps: params["floor_mbps"],
					QueueDropFrac:   sentFrac(up.DroppedQueue, up),
					UnavailableFrac: res.Users[1].UnavailableFrac,
					MeanLatencyMs:   res.Users[1].MeanFrameLatencyMs,
					DecodedFrac:     decodedFrac(res, 0, 1),
				}
			}, nil
		})
}

// ---------------------------------------------------------- registration

// withDefaults overlays grid onto the target's defaults so every recognized
// parameter is present.
func withDefaults(t SweepTarget, grid map[string]float64) map[string]float64 {
	p := t.DefaultParams()
	//vplint:allow maporder(keyed map-into-map overlay; each key is written once, so order cannot matter)
	for k, v := range grid {
		p[k] = v
	}
	return p
}

func init() {
	handover := SweepTarget{
		Name: "handover", Desc: "§4.3 scenario: mid-call one-way delay step (path handover)",
		Row: HandoverRow{},
		Params: []SweepParam{
			{Name: "delay_ms", Default: 500, Desc: "injected one-way delay during the step"},
		},
		Run: func(o Options, p map[string]float64) ([]Row, error) { return rows(handoverCell(o, p)) },
	}
	burst := SweepTarget{
		Name: "burstloss", Desc: "§4.3 scenario: Gilbert-Elliott burst loss on the uplink",
		Row: BurstLossRow{},
		Params: []SweepParam{
			{Name: "p_good_bad", Default: 0.02, Desc: "per-frame P(good->bad)"},
			{Name: "p_bad_good", Default: 0.25, Desc: "per-frame P(bad->good)"},
			{Name: "loss_bad", Default: 0.9, Desc: "loss probability in the bad state"},
		},
		Run: func(o Options, p map[string]float64) ([]Row, error) { return rows(burstLossCell(o, p)) },
	}
	congestion := SweepTarget{
		Name: "congestion", Desc: "§4.3 scenario: mid-call bandwidth ramp to a floor and back",
		Row: CongestionRow{},
		Params: []SweepParam{
			{Name: "start_mbps", Default: 4, Desc: "uncongested rate cap"},
			{Name: "floor_mbps", Default: 1, Desc: "rate floor at peak congestion"},
		},
		Run: func(o Options, p map[string]float64) ([]Row, error) { return rows(congestionCell(o, p)) },
	}
	RegisterSweep(handover)
	RegisterSweep(burst)
	RegisterSweep(congestion)

	Register(Experiment{
		Name: "handover", Desc: handover.Desc + " (default grid)",
		Row: HandoverRow{}, Reps: fixed(len(DefaultHandoverDelaysMs())),
		Run: func(o Options, rep int) ([]Row, error) {
			p := withDefaults(handover, map[string]float64{"delay_ms": DefaultHandoverDelaysMs()[rep]})
			return rows(handoverCell(o, p))
		},
	})
	Register(Experiment{
		Name: "burstloss", Desc: burst.Desc + " (default grid)",
		Row: BurstLossRow{}, Reps: fixed(len(burstLossGrid)),
		Run: func(o Options, rep int) ([]Row, error) {
			return rows(burstLossCell(o, withDefaults(burst, burstLossGrid[rep])))
		},
	})
	Register(Experiment{
		Name: "congestion", Desc: congestion.Desc + " (default grid)",
		Row: CongestionRow{}, Reps: fixed(len(DefaultCongestionFloorsMbps())),
		Run: func(o Options, rep int) ([]Row, error) {
			p := withDefaults(congestion, map[string]float64{"floor_mbps": DefaultCongestionFloorsMbps()[rep]})
			return rows(congestionCell(o, p))
		},
	})
}
