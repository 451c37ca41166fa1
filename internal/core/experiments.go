// Package core assembles the substrates into the paper's experiments: one
// registry experiment per figure and per §4.3 analysis, each emitting the
// rows the paper plots. internal/claims checks those rows against the
// paper's numbers (`vpfleet claims`).
package core

import (
	"fmt"
	"sort"

	"telepresence/internal/geo"
	"telepresence/internal/keypoints"
	"telepresence/internal/mesh"
	"telepresence/internal/meshcodec"
	"telepresence/internal/semantic"
	"telepresence/internal/simrand"
	"telepresence/internal/simtime"
	"telepresence/internal/stats"
	"telepresence/internal/vca"
)

// Options tunes experiment scale. Quick mode shrinks durations and
// repetition counts so the full suite runs in seconds; full mode approaches
// the paper's 120-second, five-repetition methodology.
type Options struct {
	Seed int64
	// SessionDuration is the simulated length of each throughput session.
	SessionDuration simtime.Duration
	// Reps is how many times each experiment repeats (paper: >=5).
	Reps int
	// TraceDir, when non-empty, makes every scenario cell write its session
	// event trace (internal/telemetry JSONL) to
	// <TraceDir>/<target>__<label>.trace.jsonl. Traces observe but never
	// steer: rows are byte-identical with or without tracing.
	TraceDir string
	// MetricsDir, when non-empty, makes every scenario cell write its
	// sampled metrics timeseries to <MetricsDir>/<target>__<label>.metrics.csv.
	MetricsDir string
	// ProfDir, when non-empty, makes every scenario cell attach a
	// virtual-time profiler (internal/vprof) and write
	// <ProfDir>/<target>__<label>.vprof.jsonl (deterministic site counters)
	// plus <target>__<label>.vprof.pb.gz (pprof, includes wall CPU).
	// Profiles observe but never steer: rows are byte-identical with or
	// without profiling.
	ProfDir string
}

// Quick returns fast options for tests and CI.
func Quick(seed int64) Options {
	return Options{Seed: seed, SessionDuration: 6 * simtime.Second, Reps: 2}
}

// Full returns paper-scale options.
func Full(seed int64) Options {
	return Options{Seed: seed, SessionDuration: 120 * simtime.Second, Reps: 5}
}

// Validate rejects nonsensical option values. Zero values are legal (they
// select defaults); negative values are configuration errors and are
// surfaced rather than silently replaced.
func (o Options) Validate() error {
	if o.SessionDuration < 0 {
		return fmt.Errorf("core: negative SessionDuration %v", o.SessionDuration)
	}
	if o.Reps < 0 {
		return fmt.Errorf("core: negative Reps %d", o.Reps)
	}
	return nil
}

// Normalize validates o and fills defaults for unset (zero) fields: a
// 6-second session and 2 repetitions, the Quick scale.
func (o Options) Normalize() (Options, error) {
	if err := o.Validate(); err != nil {
		return o, err
	}
	if o.SessionDuration == 0 {
		o.SessionDuration = 6 * simtime.Second
	}
	if o.Reps == 0 {
		o.Reps = 2
	}
	return o, nil
}

// Fingerprint is a stable digest of every result-affecting option — the
// checkpoint journal's "params-hash". Two runs whose fingerprints (and unit
// identities) match produce byte-identical rows, so journaled work is
// reusable exactly when fingerprints agree; resuming with a different seed
// or scale simply misses and re-runs. Observability settings (TraceDir,
// MetricsDir, ProfDir) never steer results and are excluded.
func (o Options) Fingerprint() string {
	return fmt.Sprintf("seed=%d,dur=%d,reps=%d", o.Seed, int64(o.SessionDuration), o.Reps)
}

// ---------------------------------------------------------------- Figure 4

// Fig4Row is one CDF line of Figure 4.
type Fig4Row struct {
	Label  string
	Sample *stats.Sample
}

// fig4Rep measures one repetition of the Figure 4 matrix: ten RTT samples
// per vantage toward every server, under a rep-derived child seed, so
// repetitions are independent and can run on any worker in any order.
func fig4Rep(opts Options, rep int) ([]Fig4Row, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	rng := simrand.Child(opts.Seed, fmt.Sprintf("fig4/rep%d", rep))
	series := vca.Fig4Series(rng, 10)
	labels := make([]string, 0, len(series))
	for l := range series {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	out := make([]Fig4Row, 0, len(labels))
	for _, l := range labels {
		out = append(out, Fig4Row{Label: l, Sample: series[l]})
	}
	return out, nil
}

// anycastApp runs the §4.1 anycast check against one provider's servers;
// rep indexes into vca.Apps().
func anycastApp(opts Options, rep int) ([]vca.AnycastVerdict, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	app := vca.Apps()[rep]
	probe := vca.NewRTTProbe()
	var out []vca.AnycastVerdict
	for _, srv := range vca.SpecFor(app).Servers {
		rng := simrand.Child(opts.Seed, "anycast/"+app.String()+srv.Name)
		m := probe.MinRTTMatrix(app, srv, rng, 5*opts.Reps)
		out = append(out, vca.DetectAnycast(srv, m))
	}
	return out, nil
}

// ------------------------------------------------------------ §4.1 matrix

// ProtocolCase is one row of the §4.1 protocol/topology matrix.
type ProtocolCase struct {
	Desc      string
	App       vca.App
	Devices   []vca.Device
	Media     vca.MediaKind
	Transport vca.Transport
	P2P       bool
}

// ProtocolMatrix evaluates the §4.1 decision matrix over the paper's device
// mixes and returns observed plans.
func ProtocolMatrix() []ProtocolCase {
	mixes := []struct {
		desc    string
		app     vca.App
		devices []vca.Device
	}{
		{"FaceTime VP+VP", vca.FaceTime, []vca.Device{vca.VisionPro, vca.VisionPro}},
		{"FaceTime VP+MacBook", vca.FaceTime, []vca.Device{vca.VisionPro, vca.MacBook}},
		{"FaceTime VP+iPad", vca.FaceTime, []vca.Device{vca.VisionPro, vca.IPad}},
		{"FaceTime VP+iPhone", vca.FaceTime, []vca.Device{vca.VisionPro, vca.IPhone}},
		{"Zoom VP+VP", vca.Zoom, []vca.Device{vca.VisionPro, vca.VisionPro}},
		{"Zoom VP+VP+VP", vca.Zoom, []vca.Device{vca.VisionPro, vca.VisionPro, vca.VisionPro}},
		{"Webex VP+VP", vca.Webex, []vca.Device{vca.VisionPro, vca.VisionPro}},
		{"Teams VP+VP", vca.Teams, []vca.Device{vca.VisionPro, vca.VisionPro}},
	}
	locs := []geo.Location{geo.Ashburn, geo.NewYork, geo.Chicago}
	var out []ProtocolCase
	for _, m := range mixes {
		parts := make([]vca.Participant, len(m.devices))
		for i, d := range m.devices {
			parts[i] = vca.Participant{ID: fmt.Sprintf("u%d", i+1), Loc: locs[i%len(locs)], Device: d}
		}
		plan, err := vca.PlanSession(m.app, parts, 0)
		if err != nil {
			continue
		}
		out = append(out, ProtocolCase{
			Desc: m.desc, App: m.app, Devices: m.devices,
			Media: plan.Media, Transport: plan.Transport, P2P: plan.P2P,
		})
	}
	return out
}

// ---------------------------------------------------------------- Figure 5

// Fig5Row is one box of Figure 5: per-app two-user uplink throughput.
type Fig5Row struct {
	Label string // F, F*, Z, W, T as in the paper
	Box   stats.Box
}

// fig5Cases are the five measured app/peer mixes, in the paper's order.
var fig5Cases = []struct {
	label  string
	app    vca.App
	peerTy vca.Device
}{
	{"F", vca.FaceTime, vca.VisionPro},
	{"F*", vca.FaceTime, vca.MacBook},
	{"Z", vca.Zoom, vca.VisionPro},
	{"W", vca.Webex, vca.VisionPro},
	{"T", vca.Teams, vca.VisionPro},
}

// fig5Case measures two-user uplink throughput for one app/peer mix:
// FaceTime spatial (F), FaceTime 2D persona (F*, Vision Pro with a MacBook
// peer), Zoom, Webex or Teams. It runs all repetitions of the mix; each
// case draws from its own seed range, so cases are independent work units.
func fig5Case(opts Options, ci int) (Fig5Row, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return Fig5Row{}, err
	}
	c := fig5Cases[ci]
	agg := &stats.Sample{}
	for rep := 0; rep < opts.Reps; rep++ {
		sc := vca.DefaultSessionConfig(c.app, []vca.Participant{
			{ID: "u1", Loc: geo.Ashburn, Device: vca.VisionPro},
			{ID: "u2", Loc: geo.NewYork, Device: c.peerTy},
		})
		sc.Duration = opts.SessionDuration
		sc.Seed = opts.Seed + int64(ci*100+rep)
		sess, err := vca.NewSession(sc)
		if err != nil {
			return Fig5Row{}, fmt.Errorf("fig5 %s: %w", c.label, err)
		}
		res := sess.Run()
		agg.Add(res.Users[0].Uplink.Values()...)
	}
	return Fig5Row{Label: c.label, Box: agg.BoxStats()}, nil
}

// ------------------------------------------------------- §4.3 estimations

// MeshStreamingResult is the direct-3D-streaming estimate of §4.3.
type MeshStreamingResult struct {
	// MbpsSample holds one bitrate estimate per head mesh.
	MbpsSample *stats.Sample
	// Triangles records each head's triangle count.
	Triangles []int
}

// MeshHeadRow is one head's Draco-class streaming estimate, the unit row
// the fleet scheduler shards MeshStreaming into.
type MeshHeadRow struct {
	Head      int
	Triangles int
	Mbps      float64
}

// meshHead generates, compresses and prices one head under a head-derived
// child seed, so the ten heads are independent work units.
func meshHead(opts Options, head int) (MeshHeadRow, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return MeshHeadRow{}, err
	}
	rng := simrand.Child(opts.Seed, fmt.Sprintf("mesh/head%d", head))
	tris := 70000 + rng.Intn(20001)
	m := mesh.GenerateHead(rng.Split("geom"), mesh.HeadConfig{
		TargetTriangles: tris, Radius: 0.1, Variation: 1,
	})
	enc, err := meshcodec.Encode(m, meshcodec.DefaultQuantBits)
	if err != nil {
		return MeshHeadRow{}, err
	}
	return MeshHeadRow{
		Head:      head,
		Triangles: m.TriangleCount(),
		Mbps:      meshcodec.StreamBitrateBps(len(enc), 90) / 1e6,
	}, nil
}

// MeshStreaming reproduces the Draco estimate: ten human-head meshes with
// 70-90K triangles, compressed and streamed at 90 FPS.
func MeshStreaming(opts Options) (*MeshStreamingResult, error) {
	res := &MeshStreamingResult{MbpsSample: &stats.Sample{}}
	for i := 0; i < 10; i++ {
		row, err := meshHead(opts, i)
		if err != nil {
			return nil, err
		}
		res.Triangles = append(res.Triangles, row.Triangles)
		res.MbpsSample.Add(row.Mbps)
	}
	return res, nil
}

// KeypointStreamingResult is the semantic-communication estimate of §4.3.
type KeypointStreamingResult struct {
	// MbpsSample holds one bitrate estimate per repetition.
	MbpsSample *stats.Sample
	// Keypoints is the transmitted keypoint count (74 in the paper).
	Keypoints int
}

// KeypointRow is one repetition's semantic-streaming estimate, the unit row
// the fleet scheduler shards KeypointStreaming into.
type KeypointRow struct {
	Rep       int
	Keypoints int
	Mbps      float64
}

// keypointRep prices one repetition: 2,000 captured frames of 74 keypoints,
// compressed and streamed at 90 FPS, under the rep's own seed.
func keypointRep(opts Options, rep int) (KeypointRow, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return KeypointRow{}, err
	}
	gen := keypoints.NewGenerator(simrand.New(opts.Seed+int64(rep)), keypoints.DefaultMotionConfig())
	enc := semantic.NewEncoder(semantic.ModeFloat32)
	var total int
	const frames = 2000
	for i := 0; i < frames; i++ {
		f := gen.Next()
		total += len(enc.Encode(&f))
	}
	return KeypointRow{
		Rep:       rep,
		Keypoints: keypoints.TrackedTotal,
		Mbps:      semantic.BitrateBps(float64(total)/frames, 90) / 1e6,
	}, nil
}

// KeypointStreaming reproduces the paper's estimate: 2,000 captured frames
// of 74 keypoints, compressed (lzma-like) and streamed at 90 FPS.
func KeypointStreaming(opts Options) (*KeypointStreamingResult, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	res := &KeypointStreamingResult{
		MbpsSample: &stats.Sample{},
		Keypoints:  keypoints.TrackedTotal,
	}
	for rep := 0; rep < opts.Reps; rep++ {
		row, err := keypointRep(opts, rep)
		if err != nil {
			return nil, err
		}
		res.MbpsSample.Add(row.Mbps)
	}
	return res, nil
}

// RateAdaptationRow is one point of the §4.3 bandwidth-cap sweep.
type RateAdaptationRow struct {
	CapMbps float64
	// UnavailableFrac is how much of the session the receiver's persona
	// was in "poor connection" state.
	UnavailableFrac float64
	// MeanLatencyMs is the mean frame age at decode.
	MeanLatencyMs float64
}

// DefaultRateCaps is the registry's bandwidth-cap sweep (Mbps; 0 = no cap).
func DefaultRateCaps() []float64 { return []float64{0, 2.0, 1.0, 0.7} }

// rateCase runs one capped session; i seeds the session so each cap is an
// independent work unit.
func rateCase(opts Options, i int, capMbps float64) (RateAdaptationRow, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return RateAdaptationRow{}, err
	}
	sc := vca.DefaultSessionConfig(vca.FaceTime, []vca.Participant{
		{ID: "u1", Loc: geo.Ashburn, Device: vca.VisionPro},
		{ID: "u2", Loc: geo.NewYork, Device: vca.VisionPro},
	})
	sc.Duration = opts.SessionDuration
	if sc.Duration < 12*simtime.Second {
		sc.Duration = 12 * simtime.Second // queues need time to bite
	}
	sc.Seed = opts.Seed + int64(i)
	sess, err := vca.NewSession(sc)
	if err != nil {
		return RateAdaptationRow{}, err
	}
	if capMbps > 0 {
		sess.UplinkShaper(0).RateBps = capMbps * 1e6
	}
	res := sess.Run()
	return RateAdaptationRow{
		CapMbps:         capMbps,
		UnavailableFrac: res.Users[1].UnavailableFrac,
		MeanLatencyMs:   res.Users[1].MeanFrameLatencyMs,
	}, nil
}

// RateAdaptation sweeps uplink caps over a spatial session and reports
// persona availability: semantic streams cannot shed rate, so availability
// collapses once the cap bites (§4.3).
func RateAdaptation(opts Options, capsMbps []float64) ([]RateAdaptationRow, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return collect(len(capsMbps), func(i int) (RateAdaptationRow, error) { return rateCase(opts, i, capsMbps[i]) })
}
