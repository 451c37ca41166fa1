package core

import (
	"telepresence/internal/geo"
	"telepresence/internal/keypoints"
	"telepresence/internal/netem"
	"telepresence/internal/persona"
	"telepresence/internal/semantic"
	"telepresence/internal/simrand"
	"telepresence/internal/simtime"
)

// DisplayLatencyRow is one point of the §4.3 display-latency experiment:
// the gap between rendering newly visible real-world content and the remote
// persona after an abrupt viewport change, under injected network delay.
type DisplayLatencyRow struct {
	InjectedDelayMs float64
	// SemanticDiffMs is the gap with semantic delivery: reconstruction is
	// local, so the gap stays within a frame time regardless of delay.
	SemanticDiffMs float64
	// PrerenderedDiffMs is the gap if the sender pre-rendered the persona
	// for the receiver's viewport: a viewport change costs a round trip.
	PrerenderedDiffMs float64
}

// frameAlign quantizes t up to the next 90 FPS display refresh.
func frameAlign(t simtime.Time) simtime.Time {
	frame := simtime.Time(simtime.Second) / 90
	return ((t + frame - 1) / frame) * frame
}

// DefaultInjectedDelaysMs is the registry's delay sweep, matching the
// paper's 0-1000 ms injection range.
func DefaultInjectedDelaysMs() []float64 { return []float64{0, 100, 250, 500, 1000} }

// displayLatencyCase reproduces the §4.3 experiment at one injected
// delay. U1 watches U2's persona over a link with injected one-way delay;
// at a fixed instant U1 flips the viewport to reveal a new side of the
// persona. Real-world passthrough renders on the next 90 FPS refresh. The
// semantic pipeline re-poses the locally reconstructed mesh, so it also
// hits the next refresh; the pre-rendered-video pipeline must request the
// new view from the sender. Every point builds its own scheduler and
// derives all randomness from opts.Seed, so points are independent work
// units.
func displayLatencyCase(opts Options, inj float64) (DisplayLatencyRow, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return DisplayLatencyRow{}, err
	}
	sched := simtime.NewScheduler()
	rng := simrand.New(opts.Seed)
	base := geo.DefaultPathModel().BaseRTTMs(geo.Ashburn, geo.NewYork) / 2
	pipe := netem.NewPipe(sched, rng.Split("dl"), netem.Config{
		Name: "dl", DelayMs: base,
	})
	pipe.AB.Shaper().ExtraDelayMs = inj // tc on the U2 -> U1 direction
	pipe.BA.Shaper().ExtraDelayMs = inj

	// Semantic pipeline: continuous keypoint stream feeding a local
	// reconstructor at U1.
	asset, err := persona.NewAsset(rng.Split("asset"), persona.Config{
		Name: "u2", TargetTriangles: 500, BuildLODs: false, BindK: 2,
	})
	if err != nil {
		return DisplayLatencyRow{}, err
	}
	rec := persona.NewReconstructor(asset)
	gen := keypoints.NewGenerator(rng.Split("kp"), keypoints.DefaultMotionConfig())
	enc := semantic.NewEncoder(semantic.ModeFloat32)
	pipe.AB.SetHandler(func(_ simtime.Time, f netem.Frame) {
		_ = rec.Feed(f.Payload)
	})
	frame := simtime.Time(simtime.Second) / 90
	simtime.NewTicker(sched, simtime.Duration(frame), sched.Site("core/latency.keypoints"), func(simtime.Time) {
		kf := gen.Next()
		pipe.AB.Send(netem.Frame{Payload: enc.Encode(&kf)})
	})

	// Warm up for two seconds so the reconstructor holds a pose.
	warm := simtime.Time(2 * simtime.Second)
	flipAt := warm + simtime.Time(500*simtime.Millisecond)
	row := DisplayLatencyRow{InjectedDelayMs: inj}

	// Pre-rendered pipeline state: U1's request travels BA, the new
	// view returns on AB.
	var prerenderedAt simtime.Time
	renderSite := sched.Site("core/latency.render")
	pipe.BA.SetHandler(func(now simtime.Time, f netem.Frame) {
		// Sender receives the viewport request, renders (one frame
		// budget), ships the new view back.
		sched.At(sched.Now().Add(simtime.Duration(frame)), renderSite, func() {
			pipe.AB.Send(netem.Frame{Size: 20000, Payload: []byte("VIEW")})
		})
	})
	handlerInstalled := false

	sched.At(flipAt, sched.Site("core/latency.flip"), func() {
		// Real-world passthrough: visible at the next refresh.
		realWorldAt := frameAlign(flipAt)
		// Semantic: pose is local; renders at the same refresh if a
		// pose exists, else it would wait for the network.
		semanticAt := realWorldAt
		if !rec.HavePose() {
			semanticAt = simtime.Never
		}
		row.SemanticDiffMs = semanticAt.Sub(realWorldAt).Seconds() * 1000
		// Pre-rendered: issue the viewport request now.
		if !handlerInstalled {
			handlerInstalled = true
			pipe.AB.SetHandler(func(now simtime.Time, f netem.Frame) {
				if string(f.Payload) == "VIEW" && prerenderedAt == 0 {
					prerenderedAt = frameAlign(now)
				}
			})
		}
		pipe.BA.Send(netem.Frame{Size: 100, Payload: []byte("REQ")})
	})
	sched.RunUntil(flipAt + simtime.Time(10*simtime.Second))
	realWorldAt := frameAlign(flipAt)
	if prerenderedAt > 0 {
		row.PrerenderedDiffMs = prerenderedAt.Sub(realWorldAt).Seconds() * 1000
	}
	return row, nil
}
