package core

import (
	"fmt"
	"math"

	"telepresence/internal/geo"
	"telepresence/internal/simtime"
	"telepresence/internal/vca"
)

// The session sweep target runs one configurable call: any app, two to
// five users, any device for the second user, and an optional uplink cap
// and extra delay on the first user's links (the paper's tc knobs). It has
// no default grid, so it adds no registry experiment and no golden rows;
// `vpfleet sweep session -axis users=3 -axis cap_mbps=0.7` runs it with
// the fleet's trace, metrics, profiler and journal attached.

// SessionRow is one user of one session cell.
type SessionRow struct {
	App       string
	Media     string
	Transport string
	// Topology is "P2P" or "server(<location>)".
	Topology string
	User     string
	// UplinkMbps and DownlinkMbps are the means of the 1 s throughput
	// samples an observer at the user's AP measures.
	UplinkMbps        float64
	DownlinkMbps      float64
	Protocol          string
	FramesSent        int
	FramesDecoded     int
	FramesUndecodable int
	MeanLatencyMs     float64
	UnavailableFrac   float64
}

// sessionLocations places user i of a session cell.
var sessionLocations = []geo.Location{geo.Ashburn, geo.NewYork, geo.Chicago, geo.Austin, geo.Miami}

// sessionCell runs one session cell and returns one row per user.
func sessionCell(opts Options, params map[string]float64) ([]SessionRow, error) {
	app, err := indexParam("session", "app", params, vca.Apps())
	if err != nil {
		return nil, err
	}
	peer, err := indexParam("session", "peer_device", params, vca.Devices())
	if err != nil {
		return nil, err
	}
	users, err := intParam("session", "users", params, 2, len(sessionLocations))
	if err != nil {
		return nil, err
	}
	capMbps, delayMs, durS := params["cap_mbps"], params["delay_ms"], params["duration_s"]
	if !(capMbps >= 0) || !(delayMs >= 0) {
		return nil, fmt.Errorf("session: cap_mbps %g and delay_ms %g must be non-negative", capMbps, delayMs)
	}
	dur := durS * float64(simtime.Second)
	if !(dur > 0 && dur < math.MaxInt64) {
		return nil, fmt.Errorf("session: duration_s %g not a positive duration", durS)
	}
	config := func(cell Options) vca.SessionConfig {
		parts := make([]vca.Participant, users)
		for i := range parts {
			dev := vca.VisionPro
			if i == 1 {
				dev = peer
			}
			parts[i] = vca.Participant{ID: fmt.Sprintf("u%d", i+1), Loc: sessionLocations[i], Device: dev}
		}
		sc := vca.DefaultSessionConfig(app, parts)
		sc.Duration = simtime.Duration(dur)
		sc.Seed = cell.Seed
		return sc
	}
	return runSessionCell(opts, "session", params, config,
		func(sess *vca.Session, _ vca.SessionConfig) (func(*vca.Results) []SessionRow, error) {
			if capMbps > 0 {
				sess.UplinkShaper(0).RateBps = capMbps * 1e6
			}
			if delayMs > 0 {
				sess.UplinkShaper(0).ExtraDelayMs = delayMs
				sess.DownlinkShaper(0).ExtraDelayMs = delayMs
			}
			return func(res *vca.Results) []SessionRow {
				plan := res.Plan
				topology := "P2P"
				if !plan.P2P {
					topology = fmt.Sprintf("server(%v)", plan.Server)
				}
				out := make([]SessionRow, len(res.Users))
				for i, u := range res.Users {
					out[i] = SessionRow{
						App: plan.App.String(), Media: plan.Media.String(),
						Transport: plan.Transport.String(), Topology: topology,
						User: u.ID, UplinkMbps: u.Uplink.Mean(), DownlinkMbps: u.Downlink.Mean(),
						Protocol: u.Protocol.String(), FramesSent: u.FramesSent,
						FramesDecoded: u.FramesDecoded, FramesUndecodable: u.FramesUndecodable,
						MeanLatencyMs: u.MeanFrameLatencyMs, UnavailableFrac: u.UnavailableFrac,
					}
				}
				return out
			}, nil
		})
}

func init() {
	RegisterSweep(SweepTarget{
		Name: "session", Desc: "one configurable call, one row per user (app: 0=FaceTime 1=Zoom 2=Webex 3=Teams)",
		Row: SessionRow{},
		Params: []SweepParam{
			{Name: "app", Default: 0, Desc: "vca.Apps() index: 0=FaceTime 1=Zoom 2=Webex 3=Teams"},
			{Name: "users", Default: 2, Desc: "participants (2-5), at Ashburn, New York, Chicago, Austin, Miami"},
			{Name: "peer_device", Default: 0, Desc: "vca.Devices() index for user 2: 0=VisionPro 1=MacBook 2=iPad 3=iPhone"},
			{Name: "cap_mbps", Default: 0, Desc: "uplink cap on user 1 in Mbps (0 = none)"},
			{Name: "delay_ms", Default: 0, Desc: "extra one-way delay on user 1's links in ms"},
			{Name: "duration_s", Default: 10, Desc: "simulated seconds"},
		},
		Run: func(o Options, p map[string]float64) ([]Row, error) { return rowSlice(sessionCell(o, p)) },
	})
}
