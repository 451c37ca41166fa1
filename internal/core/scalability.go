package core

import (
	"fmt"
	"math"

	"telepresence/internal/geo"
	"telepresence/internal/mesh"
	"telepresence/internal/render"
	"telepresence/internal/simrand"
	"telepresence/internal/simtime"
	"telepresence/internal/stats"
	"telepresence/internal/vca"
	"telepresence/internal/video"
)

// Fig6Row is one bar group of Figure 6: a visibility-optimization scenario.
type Fig6Row struct {
	Mode      string // BL, V, F, D
	Triangles int
	GPUMs     float64
	CPUMs     float64
	// UplinkMbps demonstrates that the optimization does NOT change
	// transmission (§4.4).
	UplinkMbps float64
}

// fig6Scenarios are the four §4.4 visibility scenarios.
var fig6Scenarios = []struct {
	mode string
	pos  mesh.Vec3
}{
	{"BL", mesh.Vec3{Z: 0.5}},
	{"V", mesh.Vec3{Z: -0.5}},
	{"F", mesh.Vec3{X: 0.321, Z: 0.383}},
	{"D", mesh.Vec3{Z: 3.5}},
}

// fig6Case evaluates one §4.4 scenario (baseline half-meter stare,
// viewport-culled, foveated-peripheral or distance-reduced): rendered
// triangles and GPU/CPU per-frame cost for the persona placement, plus one
// spatial session for the uplink bandwidth. The sender knows nothing about
// the receiver's optimizations, so uplink is invariant.
func fig6Case(opts Options, i int) (Fig6Row, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return Fig6Row{}, err
	}
	sc := fig6Scenarios[i]
	r := render.NewRenderer(render.DefaultCostModel(), render.FaceTimeOptimizations(), nil)
	cam := render.Camera{Forward: mesh.Vec3{Z: 1}, Gaze: mesh.Vec3{Z: 1}}
	p := &render.Persona{ID: "u2", Pos: sc.pos}
	fc := r.RenderFrame(cam, []*render.Persona{p})
	sess, err := vca.NewSession(func() vca.SessionConfig {
		c := vca.DefaultSessionConfig(vca.FaceTime, []vca.Participant{
			{ID: "u1", Loc: geo.Ashburn, Device: vca.VisionPro},
			{ID: "u2", Loc: geo.NewYork, Device: vca.VisionPro},
		})
		c.Duration = opts.SessionDuration
		c.Seed = opts.Seed + int64(i)
		return c
	}())
	if err != nil {
		return Fig6Row{}, err
	}
	res := sess.Run()
	return Fig6Row{
		Mode:       sc.mode,
		Triangles:  fc.Triangles,
		GPUMs:      fc.GPUMs,
		CPUMs:      fc.CPUMs,
		UplinkMbps: res.Users[1].Uplink.Mean(),
	}, nil
}

// Fig7Row is one user-count column of Figure 7.
type Fig7Row struct {
	Users            int
	TriMean          float64
	TriP5            float64
	TriP95           float64
	CPUMean          float64
	GPUMean          float64
	GPUP95           float64
	DownMbps         float64
	DeadlineMissFrac float64
}

// fig7Locations spreads participants over the US like the paper's testbed.
var fig7Locations = []geo.Location{
	geo.Ashburn, geo.NewYork, geo.Chicago, geo.Austin, geo.Miami,
}

// fig7Session runs the n-user all-Vision-Pro FaceTime session that both
// fig7Users and remoteRenderUsers measure. Sharing the construction (and
// in particular the seed derivation) keeps their downlink columns
// comparable.
func fig7Session(opts Options, n int) (*vca.Results, error) {
	parts := make([]vca.Participant, n)
	for i := 0; i < n; i++ {
		parts[i] = vca.Participant{ID: fmt.Sprintf("u%d", i+1), Loc: fig7Locations[i], Device: vca.VisionPro}
	}
	sc := vca.DefaultSessionConfig(vca.FaceTime, parts)
	sc.Duration = opts.SessionDuration
	sc.Seed = opts.Seed + int64(n)
	sess, err := vca.NewSession(sc)
	if err != nil {
		return nil, err
	}
	return sess.Run(), nil
}

// fig7Users measures one user count (n = 2..MaxSpatialUsers); each count
// seeds its own session and render loop, forming an independent work unit.
func fig7Users(opts Options, n int) (Fig7Row, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return Fig7Row{}, err
	}
	res, err := fig7Session(opts, n)
	if err != nil {
		return Fig7Row{}, err
	}

	rl := renderLoop(opts.Seed+int64(n*7), n, opts.SessionDuration)
	return Fig7Row{
		Users:            n,
		TriMean:          rl.tris.Mean(),
		TriP5:            rl.tris.Percentile(5),
		TriP95:           rl.tris.Percentile(95),
		CPUMean:          rl.cpu.Mean(),
		GPUMean:          rl.gpu.Mean(),
		GPUP95:           rl.gpu.Percentile(95),
		DownMbps:         res.Users[0].Downlink.Mean(),
		DeadlineMissFrac: rl.missFrac,
	}, nil
}

// Fig7 runs the scalability analysis: 2-5 Vision Pro users in one FaceTime
// session. Throughput comes from the session simulation; rendering load
// comes from a seated-meeting scene replayed at 90 FPS with wandering gaze.
func Fig7(opts Options) ([]Fig7Row, error) {
	return collect(vca.MaxSpatialUsers-1, func(i int) (Fig7Row, error) { return fig7Users(opts, i+2) })
}

type renderLoopResult struct {
	tris, cpu, gpu *stats.Sample
	missFrac       float64
}

// renderLoop replays a seated meeting: n-1 remote personas in an arc at
// conversational distance, the local user's gaze dwelling on one speaker at
// a time with natural wander, the head turning toward the gaze.
func renderLoop(seed int64, nUsers int, dur simtime.Duration) renderLoopResult {
	rng := simrand.New(seed)
	r := render.NewRenderer(render.DefaultCostModel(), render.FaceTimeOptimizations(), rng.Split("noise"))
	nP := nUsers - 1
	personas := make([]*render.Persona, nP)
	// Personas seated across an arc with a fixed ~20 degree gap between
	// neighbors (conversational spacing at ~1.1 m): with five users the
	// edge seats sit ~30 degrees out, so looking at one end pushes the far
	// end out of the viewport entirely — the source of the flat 5th
	// percentile in Figure 7a.
	const gap = 22 * math.Pi / 180
	for i := range personas {
		ang := (float64(i) - float64(nP-1)/2) * gap
		dist := 1.1 + 0.15*float64(i%2)
		personas[i] = &render.Persona{
			ID:  fmt.Sprintf("p%d", i),
			Pos: mesh.Vec3{X: dist * math.Sin(ang), Z: dist * math.Cos(ang)},
		}
	}
	cam := render.Camera{Forward: mesh.Vec3{Z: 1}, Gaze: mesh.Vec3{Z: 1}}

	frames := int(dur / (simtime.Duration(simtime.Second) / 90))
	if frames < 900 {
		frames = 900
	}
	attended := 0
	dwellLeft := rng.Exponential(2.0)
	res := renderLoopResult{tris: &stats.Sample{}, cpu: &stats.Sample{}, gpu: &stats.Sample{}}
	misses := 0
	const dt = 1.0 / 90
	gazeWander := simrand.NewOU(rng.Split("gw"), 0, 2.5, 0.08)
	for f := 0; f < frames; f++ {
		dwellLeft -= dt
		if dwellLeft <= 0 {
			attended = rng.Intn(nP)
			dwellLeft = rng.Exponential(2.0)
		}
		target := personas[attended].Pos
		// Gaze: at the attended persona plus saccadic wander.
		w := gazeWander.Step(dt)
		gx, gz := target.X+w, target.Z
		gl := math.Hypot(gx, gz)
		cam.Gaze = mesh.Vec3{X: gx / gl, Z: gz / gl}
		// Head turns toward the gaze with a ~300 ms time constant.
		alpha := dt / 0.3
		fx := cam.Forward.X + (cam.Gaze.X-cam.Forward.X)*alpha
		fz := cam.Forward.Z + (cam.Gaze.Z-cam.Forward.Z)*alpha
		fl := math.Hypot(fx, fz)
		cam.Forward = mesh.Vec3{X: fx / fl, Z: fz / fl}

		fc := r.RenderFrame(cam, personas)
		res.tris.Add(float64(fc.Triangles))
		res.cpu.Add(fc.CPUMs)
		res.gpu.Add(fc.GPUMs)
		if fc.MissedDeadline {
			misses++
		}
	}
	res.missFrac = float64(misses) / float64(frames)
	return res
}

// RemoteRenderRow compares per-user downlink for persona fan-out versus the
// Implications-4 alternative: the server renders all personas into one
// video stream, decoupling bandwidth from user count.
type RemoteRenderRow struct {
	Users            int
	FanoutMbps       float64
	RemoteRenderMbps float64
}

// remoteRenderUsers compares fan-out and remote-render downlink for one
// user count; an independent work unit like fig7Users.
func remoteRenderUsers(opts Options, n int) (RemoteRenderRow, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return RemoteRenderRow{}, err
	}
	// The remote-render stream: the server composites every persona into
	// one fixed-resolution video; its bitrate is set by the encoder's
	// rate controller, independent of n.
	remote := func(seed int64) (float64, error) {
		enc, err := video.NewEncoder(video.DefaultConfig(960, 540, 2.0e6))
		if err != nil {
			return 0, err
		}
		frames := int(opts.SessionDuration/simtime.Second) * 30
		if frames < 90 {
			frames = 90
		}
		src, err := video.NewSource(video.NewScene(simrand.New(seed), 960, 540, 30), enc, frames)
		if err != nil {
			return 0, err
		}
		var bytes int
		for i := 0; i < frames; i++ {
			ef := src.Next()
			bytes += len(ef.Data) + 40*((len(ef.Data)/1200)+1) // RTP+IP overhead
		}
		return float64(bytes) * 8 / (float64(frames) / 30) / 1e6, nil
	}
	// The remote-render stream shares no state with the fan-out session,
	// so it is coded on its own goroutine while the session runs.
	type remoteResult struct {
		mbps float64
		err  error
	}
	rrc := make(chan remoteResult, 1)
	go func() {
		mbps, err := remote(opts.Seed + int64(n))
		rrc <- remoteResult{mbps, err}
	}()
	res, err := fig7Session(opts, n)
	rr := <-rrc
	if err != nil {
		return RemoteRenderRow{}, err
	}
	if rr.err != nil {
		return RemoteRenderRow{}, rr.err
	}
	return RemoteRenderRow{
		Users:            n,
		FanoutMbps:       res.Users[0].Downlink.Mean(),
		RemoteRenderMbps: rr.mbps,
	}, nil
}

// RemoteRenderAblation implements the paper's proposed fix for the
// scalability bottleneck and quantifies it.
func RemoteRenderAblation(opts Options) ([]RemoteRenderRow, error) {
	return collect(vca.MaxSpatialUsers-1, func(i int) (RemoteRenderRow, error) { return remoteRenderUsers(opts, i+2) })
}
