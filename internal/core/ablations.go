package core

import (
	"fmt"

	"telepresence/internal/geo"
	"telepresence/internal/keypoints"
	"telepresence/internal/netem"
	"telepresence/internal/semantic"
	"telepresence/internal/simrand"
	"telepresence/internal/simtime"
	"telepresence/internal/stats"
	"telepresence/internal/vca"
)

// ----------------------------------------------------- Implications 1

// ServerPolicy names a server-allocation strategy in the multi-server
// ablation.
type ServerPolicy int

// Policies compared by the servers experiment (Implications 1).
const (
	// PolicyInitiator is what every measured VCA does: one server,
	// closest to the session initiator (§4.1).
	PolicyInitiator ServerPolicy = iota
	// PolicyCentral is the "put it in the middle of the US" strategy the
	// paper discusses (Texas).
	PolicyCentral
	// PolicyGeoDistributed is the paper's Implications-1 proposal: each
	// client attaches to its nearest server; servers interconnect over a
	// low-inflation private backbone.
	PolicyGeoDistributed
)

func (p ServerPolicy) String() string {
	switch p {
	case PolicyInitiator:
		return "initiator-nearest"
	case PolicyCentral:
		return "central-US"
	case PolicyGeoDistributed:
		return "geo-distributed"
	default:
		return fmt.Sprintf("ServerPolicy(%d)", int(p))
	}
}

// MultiServerRow is one policy's outcome over all client pairs.
type MultiServerRow struct {
	Policy ServerPolicy
	// MaxOneWayMs is the worst client-to-client one-way media latency.
	MaxOneWayMs float64
	// MeanOneWayMs is the mean over all ordered pairs.
	MeanOneWayMs float64
	// FracUnder100 is the fraction of pairs meeting the 100 ms immersive
	// QoE threshold the paper cites (§4.1, Implications 1).
	FracUnder100 float64
}

// multiServerPolicies lists the compared policies in report order.
var multiServerPolicies = []ServerPolicy{PolicyInitiator, PolicyCentral, PolicyGeoDistributed}

// multiServerPolicy quantifies Implications 1 for one server-allocation
// policy: client-to-client one-way latency for every ordered pair of the
// nine vantage points, using FaceTime's fleet. The geo-distributed backbone
// uses a 1.1 route inflation (dedicated fiber) versus the public
// Internet's 1.8. Policies are independent (and deterministic) work units.
func multiServerPolicy(opts Options, policy ServerPolicy) (MultiServerRow, error) {
	if _, err := opts.Normalize(); err != nil {
		return MultiServerRow{}, err
	}
	model := geo.DefaultPathModel()
	backbone := model
	backbone.Inflation = 1.1
	backbone.AccessMs = 0 // server-to-server: no last mile
	spec := vca.SpecFor(vca.FaceTime)
	clients := geo.VantagePoints()

	oneWay := func(m geo.PathModel, a, b geo.Location) float64 {
		return m.BaseRTTMs(a, b) / 2
	}

	row := MultiServerRow{Policy: policy, MaxOneWayMs: 0}
	var sum float64
	var n, under int
	for i, c1 := range clients {
		for j, c2 := range clients {
			if i == j {
				continue
			}
			var lat float64
			switch policy {
			case PolicyInitiator:
				// c1 initiates; both attach to c1's nearest server.
				srv := spec.AllocateServer(c1)
				lat = oneWay(model, c1, srv) + oneWay(model, srv, c2)
			case PolicyCentral:
				lat = oneWay(model, c1, geo.ServerTX) + oneWay(model, geo.ServerTX, c2)
			case PolicyGeoDistributed:
				s1, _ := geo.Nearest(c1, spec.Servers)
				s2, _ := geo.Nearest(c2, spec.Servers)
				lat = oneWay(model, c1, s1) + oneWay(backbone, s1, s2) + oneWay(model, s2, c2)
			}
			sum += lat
			n++
			if lat < 100 {
				under++
			}
			if lat > row.MaxOneWayMs {
				row.MaxOneWayMs = lat
			}
		}
	}
	row.MeanOneWayMs = sum / float64(n)
	row.FracUnder100 = float64(under) / float64(n)
	return row, nil
}

// ----------------------------------------------------- Implications 3

// ViewportDeliveryRow compares delivery bandwidth with and without the
// Implications-3 proposal: stop sending a persona that is outside the
// receiver's viewport.
type ViewportDeliveryRow struct {
	// OutOfViewFrac is the fraction of time the persona was outside the
	// receiver's viewport in this run.
	OutOfViewFrac float64
	// BaselineMbps is FaceTime's behaviour: delivery is viewport-blind.
	BaselineMbps float64
	// GatedMbps is with viewport-aware delivery (sender pauses on
	// feedback, with one-way-delay reaction lag).
	GatedMbps float64
	// SavingsFrac is 1 - Gated/Baseline.
	SavingsFrac float64
}

// ViewportDeliveryAblation implements the paper's proposed bandwidth
// optimization: the receiver reports viewport enter/leave events upstream;
// the sender gates the semantic stream (keeping a 2 Hz heartbeat so pose
// recovery is instant). The paper measured that FaceTime does NOT do this
// (§4.4); this experiment shows what it would save.
func ViewportDeliveryAblation(opts Options) (ViewportDeliveryRow, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return ViewportDeliveryRow{}, err
	}
	sched := simtime.NewScheduler()
	rng := simrand.New(opts.Seed)
	oneWay := geo.DefaultPathModel().BaseRTTMs(geo.Ashburn, geo.NewYork) / 2
	pipe := netem.NewPipe(sched, rng.Split("pipe"), netem.Config{Name: "vp", DelayMs: oneWay})

	gen := keypoints.NewGenerator(rng.Split("kp"), 0.5)
	enc := semantic.NewEncoder()

	// Receiver-side viewport state: the remote persona drifts in and out
	// of view as the local user looks around. Dwell times ~ exponential.
	inView := true
	var outNs, lastFlip int64
	flipLeft := rng.Exponential(4)

	// Sender-side gate, driven by (delayed) feedback.
	senderGate := true
	pipe.BA.SetHandler(func(_ simtime.Time, f netem.Frame) {
		senderGate = f.Payload[0] == 1
	})

	var baselineBytes, gatedBytes int64
	heartbeatLeft := 0.0
	const dt = 1 / keypoints.FPS
	frame := simtime.Second / simtime.Duration(keypoints.FPS)
	simtime.NewTicker(sched, frame, sched.Site("core/viewport.frame"), func(now simtime.Time) {
		// Viewport process.
		flipLeft -= dt
		if flipLeft <= 0 {
			if inView {
				flipLeft = rng.Exponential(2) // out-of-view dwell
			} else {
				flipLeft = rng.Exponential(4) // in-view dwell
			}
			inView = !inView
			if !inView {
				lastFlip = int64(now)
			} else {
				outNs += int64(now) - lastFlip
			}
			// Feedback packet upstream.
			state := byte(0)
			if inView {
				state = 1
			}
			pipe.BA.Send(netem.Frame{Size: 40, Payload: []byte{state}})
		}
		// Media.
		kf := gen.Next()
		wire := enc.Encode(&kf)
		size := len(wire) + 28
		baselineBytes += int64(size)
		heartbeatLeft -= dt
		if senderGate {
			gatedBytes += int64(size)
		} else if heartbeatLeft <= 0 {
			gatedBytes += int64(size) // keepalive pose refresh
			heartbeatLeft = 0.5
		}
		pipe.AB.Send(netem.Frame{Size: size, Payload: wire})
	})

	dur := opts.SessionDuration
	if dur < 20*simtime.Second {
		dur = 20 * simtime.Second // viewport dwells are seconds-long
	}
	sched.RunFor(dur)
	if !inView {
		outNs += int64(sched.Now()) - lastFlip
	}
	sec := float64(dur) / float64(simtime.Second)
	base := float64(baselineBytes) * 8 / sec / 1e6
	gated := float64(gatedBytes) * 8 / sec / 1e6
	return ViewportDeliveryRow{
		OutOfViewFrac: float64(outNs) / float64(dur),
		BaselineMbps:  base,
		GatedMbps:     gated,
		SavingsFrac:   1 - gated/base,
	}, nil
}

// ----------------------------------------------------------------- QoE

// QoESweepRow is one passively-inferred QoE estimate (see §5: "analyzing IP
// headers and packet transmission patterns may help better understand the
// delivered content").
type QoESweepRow struct {
	App vca.App
	// TrueFPS is the configured media frame rate.
	TrueFPS float64
	// InferredFPS is estimated purely from packet timing at the AP.
	InferredFPS float64
	// MeanFrameBytes is the inferred media frame size.
	MeanFrameBytes float64
}

// qoeApps are the sessions the passive sweep fingerprints.
var qoeApps = []vca.App{vca.FaceTime, vca.Zoom}

// qoeApp runs a two-user session of one app and infers frame rate and
// frame size from the encrypted packet stream alone, validating the
// paper's suggested passive-measurement direction. Each app seeds its own
// session and is an independent work unit.
func qoeApp(opts Options, i int) (QoESweepRow, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return QoESweepRow{}, err
	}
	app := qoeApps[i]
	sc := vca.DefaultSessionConfig(app, []vca.Participant{
		{ID: "u1", Loc: geo.Ashburn, Device: vca.VisionPro},
		{ID: "u2", Loc: geo.NewYork, Device: vca.VisionPro},
	})
	sc.Duration = opts.SessionDuration
	sc.Seed = opts.Seed + int64(i)
	// Passive QoE genuinely needs per-packet timing: opt in to record
	// retention (the default capture mode streams aggregates only).
	sc.RetainPackets = true
	sess, err := vca.NewSession(sc)
	if err != nil {
		return QoESweepRow{}, err
	}
	sess.Run()
	est := estimateQoE(sess, sc)
	trueFPS := sc.VideoFPS
	if sess.Plan().Media == vca.MediaSpatialPersona {
		trueFPS = keypoints.FPS
	}
	return QoESweepRow{
		App: app, TrueFPS: trueFPS,
		InferredFPS:    est.fps,
		MeanFrameBytes: est.frameBytes,
	}, nil
}

type qoeEstimate struct {
	fps        float64
	frameBytes float64
}

// estimateQoE clusters the uplink packet stream into frame bursts by
// inter-arrival gap and derives FPS and frame size — headers only.
func estimateQoE(sess *vca.Session, sc vca.SessionConfig) qoeEstimate {
	recs := sess.UplinkRecords(0)
	if len(recs) < 10 {
		return qoeEstimate{}
	}
	// Media packets dominate; drop tiny packets (ACKs/audio) first.
	sizes := &stats.Sample{}
	for _, r := range recs {
		sizes.Add(float64(r.Size))
	}
	// Media packets sit at the top of the size distribution; audio and
	// ACKs below. Cut at 60% of the 90th-percentile size.
	cut := sizes.Percentile(90) * 0.6
	var times []simtime.Time
	var bytes []int
	for _, r := range recs {
		if float64(r.Size) >= cut {
			times = append(times, r.At)
			bytes = append(bytes, r.Size)
		}
	}
	if len(times) < 10 {
		return qoeEstimate{}
	}
	// Burst split: a gap above 40% of the median frame interval starts a
	// new frame. First pass with a coarse guess, refined once.
	gapThresh := 3 * simtime.Millisecond
	var frames int
	var frameBytes []float64
	cur := float64(bytes[0])
	for i := 1; i < len(times); i++ {
		if times[i].Sub(times[i-1]) > gapThresh {
			frames++
			frameBytes = append(frameBytes, cur)
			cur = 0
		}
		cur += float64(bytes[i])
	}
	frames++
	frameBytes = append(frameBytes, cur)
	span := times[len(times)-1].Sub(times[0]).Seconds()
	if span <= 0 {
		return qoeEstimate{}
	}
	fb := stats.NewSample(frameBytes...)
	return qoeEstimate{fps: float64(frames) / span, frameBytes: fb.Mean()}
}
