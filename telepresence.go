// Package telepresence is the public API of the immersive-telepresence
// simulation framework reproducing "A First Look at Immersive Telepresence
// on Apple Vision Pro" (IMC 2024).
//
// The package exposes three layers:
//
//   - Sessions: build and run simulated telepresence calls on any of the
//     four modeled applications (FaceTime, Zoom, Webex, Teams), with
//     tc-style impairments, scenario timelines, packet captures and
//     per-user statistics, traced or metered through TelemetryConfig.
//   - Experiments: one registry experiment per figure/analysis in the
//     paper, run through the fleet below, plus direct runners for library
//     use (Fig7, MeshStreaming, KeypointStreaming, RateAdaptation,
//     RemoteRenderAblation).
//   - Fleet: a registry of every experiment plus a deterministic parallel
//     scheduler. Every run is one grid of units: FleetRunStream runs
//     registry experiments (units are repetitions) and FleetRunSweepStream
//     runs a sweep target's parameter grid (units are cells), through one
//     driver that shards units across a worker pool, streams rows in order
//     to pluggable sinks (JSONL, CSV, in-memory), and returns one result
//     per unit for one manifest schema (NewFleetManifest).
//
// The facade exports only what its callers use. A name is exported here
// only if (a) an example program, this package's tests, cmd/vpfleet,
// README.md or DESIGN.md names it; (b) it belongs to the same enum or set
// as a kept name (every app, device, media kind, transport and vantage
// city); or (c) it is the parameter or result type of a kept function
// (SessionConfig, Plan, Schedule, Tracer, SweepTarget and the rows of the
// direct runners). Every other experiment row is read back as JSONL from
// the fleet's sinks.
//
// Everything is deterministic given a seed; nothing touches the wall clock
// or the real network.
package telepresence

import (
	"telepresence/internal/core"
	"telepresence/internal/fleet"
	"telepresence/internal/geo"
	"telepresence/internal/ratecontrol"
	"telepresence/internal/render"
	"telepresence/internal/scenario"
	"telepresence/internal/simtime"
	"telepresence/internal/telemetry"
	"telepresence/internal/vca"
	"telepresence/internal/vprof"
)

// Version identifies the release of this framework.
const Version = "1.0.0"

// Application and device models (§3.1, Figure 3).
type (
	// App identifies one of the four measured videoconferencing apps.
	App = vca.App
	// Device is a participant's hardware.
	Device = vca.Device
	// Participant is one session member.
	Participant = vca.Participant
	// Plan is a session's §4.1 connectivity/media decision.
	Plan = vca.Plan
	// MediaKind distinguishes spatial personas from 2D video.
	MediaKind = vca.MediaKind
	// Transport is QUIC or RTP.
	Transport = vca.Transport
)

// Applications and devices.
const (
	FaceTime = vca.FaceTime
	Zoom     = vca.Zoom
	Webex    = vca.Webex
	Teams    = vca.Teams

	VisionPro = vca.VisionPro
	MacBook   = vca.MacBook
	IPad      = vca.IPad
	IPhone    = vca.IPhone

	MediaSpatialPersona = vca.MediaSpatialPersona
	Media2DVideo        = vca.Media2DVideo
	TransportQUIC       = vca.TransportQUIC
	TransportRTP        = vca.TransportRTP
)

// MaxSpatialUsers is FaceTime's spatial-persona cap (five, §4.5).
const MaxSpatialUsers = vca.MaxSpatialUsers

// Sessions.
type (
	// Session is a fully wired simulated call.
	Session = vca.Session
	// SessionConfig parameterizes a session: app, participants (the
	// first initiates), seed, duration, 2D frame rate, freshness window,
	// packet retention and the optional rate-control, recovery and
	// telemetry attachments. Spatial personas run at 90 FPS.
	SessionConfig = vca.SessionConfig
	// SessionResults is a session's measurement outcome.
	SessionResults = vca.Results
	// RateControlConfig closes the congestion-control feedback loop on a
	// session (SessionConfig.RateControl); its one setting is the
	// controller kind. Nil keeps the paper's open-loop behavior.
	RateControlConfig = vca.RateControlConfig
)

// RateControllerKinds lists the controller kinds in the ccrate/ccramp grid
// order: "fixed" (open loop), "loss", "gcc".
var RateControllerKinds = ratecontrol.Kinds

// RecoveryConfig wires a loss-recovery strategy (NACK/RTX, XOR-parity FEC
// or adaptive hybrid redundancy) into a session's RTP media path
// (SessionConfig.Recovery); the strategy is its one setting.
type RecoveryConfig = vca.RecoveryConfig

// Telemetry (internal/telemetry): virtual-time session tracing, metrics
// timeseries and the profiler, the session's one observer attachment
// (SessionConfig.Telemetry). Nil is provably inert; enabled observers
// never steer, so rows stay byte-identical.
type (
	// TelemetryConfig attaches a tracer, a metrics registry (sampled
	// every 100 ms of virtual time) and/or a profiler to a session.
	TelemetryConfig = vca.TelemetryConfig
	// Tracer serializes typed session events as deterministic JSONL.
	Tracer = telemetry.Tracer
	// TraceMetrics is a registry of gauges sampled on a virtual-time tick.
	TraceMetrics = telemetry.Metrics
	// TraceMetricsFormat selects the metrics export encoding.
	TraceMetricsFormat = telemetry.Format
	// TraceSummary is the per-stream reconstruction of one trace file.
	TraceSummary = telemetry.Summary
)

// Metrics export encodings.
const (
	TraceMetricsCSV   = telemetry.FormatCSV
	TraceMetricsJSONL = telemetry.FormatJSONL
)

// Telemetry entry points.
var (
	// NewTracer wraps w in an event tracer.
	NewTracer = telemetry.NewTracer
	// NewTraceMetrics wraps w in a sampled-metrics registry.
	NewTraceMetrics = telemetry.NewMetrics
	// SummarizeTrace validates and aggregates one JSONL trace stream.
	SummarizeTrace = telemetry.Summarize
	// TraceSchemaDoc renders the event schema as a sorted listing.
	TraceSchemaDoc = telemetry.SchemaDoc
)

// Virtual-time profiling (internal/vprof): a run with Options.ProfDir set
// writes each unit's per-site scheduler attribution; these read, merge and
// rank it. The profiler observes but never steers, so rows stay
// byte-identical. Deterministic counters export as byte-stable JSONL; pprof
// exports additionally carry wall-CPU attribution and open with
// `go tool pprof`.
type (
	// VProfReport is a profile snapshot: per-site counters over a virtual
	// duration.
	VProfReport = vprof.Report
	// FleetHotSite is one entry of a manifest's hot_sites ranking.
	FleetHotSite = fleet.HotSite
)

// Virtual-time profiling entry points.
var (
	// ParseVProfReport reads a deterministic JSONL site report.
	ParseVProfReport = vprof.ParseReport
	// ParseVProfPprof reads a (gzipped or raw) pprof profile back into a
	// report.
	ParseVProfPprof = vprof.ParsePprof
	// MergeVProfReports sums reports site-by-site, keyed on site name.
	MergeVProfReports = vprof.Merge
	// FleetMergeProfiles merges a run's per-unit profiles into run-level
	// artifacts and returns the manifest hot-site ranking.
	FleetMergeProfiles = fleet.MergeProfiles
)

// Run-level merged profile artifact names.
const (
	FleetMergedProfJSONL = fleet.MergedProfJSONL
	FleetMergedProfPprof = fleet.MergedProfPprof
)

// NewSession plans (per the paper's §4.1 matrix) and wires a session.
func NewSession(cfg SessionConfig) (*Session, error) { return vca.NewSession(cfg) }

// DefaultSessionConfig returns a ready-to-run configuration.
func DefaultSessionConfig(app App, parts []Participant) SessionConfig {
	return vca.DefaultSessionConfig(app, parts)
}

// PlanSession evaluates the §4.1 decision matrix without running anything.
func PlanSession(app App, parts []Participant, initiator int) (Plan, error) {
	return vca.PlanSession(app, parts, initiator)
}

// Geography (§4.1): vantage points and server locations.
var (
	VantagePoints = geo.VantagePoints
	Seattle       = geo.Seattle
	SanFrancisco  = geo.SanFrancisco
	LosAngeles    = geo.LosAngeles
	Denver        = geo.Denver
	Chicago       = geo.Chicago
	Austin        = geo.Austin
	NewYork       = geo.NewYork
	Ashburn       = geo.Ashburn
	Miami         = geo.Miami
)

// Experiments: options and runners.
type (
	// Options scales experiments (Quick for CI, Full for paper scale).
	Options = core.Options
	// Rows of the direct runners below.
	Fig7Row                 = core.Fig7Row
	RateAdaptationRow       = core.RateAdaptationRow
	RemoteRenderRow         = core.RemoteRenderRow
	MeshStreamingResult     = core.MeshStreamingResult
	KeypointStreamingResult = core.KeypointStreamingResult
	// HandoverRow is one handover-scenario row.
	HandoverRow = core.HandoverRow
)

// Quick returns CI-scale experiment options.
func Quick(seed int64) Options { return core.Quick(seed) }

// Full returns paper-scale experiment options (120 s sessions, 5 reps).
func Full(seed int64) Options { return core.Full(seed) }

// Experiment runners; see DESIGN.md for the per-experiment index.
var (
	Fig7                 = core.Fig7
	MeshStreaming        = core.MeshStreaming
	KeypointStreaming    = core.KeypointStreaming
	RateAdaptation       = core.RateAdaptation
	RemoteRenderAblation = core.RemoteRenderAblation
)

// Fleet orchestration: the experiment registry and the deterministic
// parallel scheduler. See DESIGN.md for the architecture.
type (
	// Experiment is one registry entry: a named, rep-shardable runner.
	Experiment = core.Experiment
	// ExperimentRow is one emitted row (a concrete row struct).
	ExperimentRow = core.Row
	// FleetConfig bounds the scheduler's worker pool.
	FleetConfig = fleet.Config
	// FleetManifest is a run's or sweep's provenance record: sections of
	// units, each unit by key and label (schema telepresence-fleet/4).
	FleetManifest = fleet.Manifest
	// Sink consumes one experiment's merged rows.
	Sink = fleet.Sink
	// EntrySink is a sink that can replay checkpointed journal entries
	// (required for resuming; the JSONL and CSV sinks implement it).
	EntrySink = fleet.EntrySink

	// Fault tolerance (see DESIGN.md "Fault tolerance"):
	// FleetJournal is a per-run checkpoint directory of completed units.
	FleetJournal = fleet.Journal
	// FleetJournalEntry is one checkpointed unit's pre-encoded rows.
	FleetJournalEntry = fleet.JournalEntry
)

// Scenario engine: declarative timelines of network impairment (steps,
// ramps, Gilbert-Elliott burst loss) that drive a session's shapers from
// virtual-time callbacks, plus trace import. Bind a schedule with
// Schedule.Bind(session.Scheduler(), session.UplinkShaper(i)) before Run.
type (
	// Schedule is a declarative impairment timeline.
	Schedule = scenario.Schedule
	// Impairment is one target shaper state on a timeline.
	Impairment = scenario.Impairment
	// BurstParams parameterize Gilbert-Elliott burst loss declaratively.
	BurstParams = scenario.BurstParams
)

// Scenario construction and trace import.
var (
	// NewSchedule returns an empty impairment timeline.
	NewSchedule = scenario.New
	// BurstLossSchedule is the preset Gilbert-Elliott burst-loss timeline.
	BurstLossSchedule = scenario.BurstLoss
	// ParseMahimahiTrace imports a mahimahi/VideoTransDemo-style
	// packet-opportunity trace as a piecewise rate schedule.
	ParseMahimahiTrace = scenario.ParseMahimahi
)

// Parameter sweeps: cartesian grids over a sweep target's schedule
// parameters, sharded like experiment reps (see FleetRunSweepStream).
type (
	// SweepTarget is a parameterized experiment registered for sweeps.
	SweepTarget = core.SweepTarget
	// SweepAxis is one swept parameter with its grid values.
	SweepAxis = fleet.Axis
	// SweepSpec is a cartesian grid over one sweep target.
	SweepSpec = fleet.SweepSpec
)

// Fleet entry points.
var (
	// Experiments lists every registered experiment, sorted by name.
	Experiments = core.Experiments
	// LookupExperiment finds a registered experiment by name.
	LookupExperiment = core.Lookup
	// RegisterExperiment adds a runner to the registry (for downstream
	// extensions; names must be unique).
	RegisterExperiment = core.Register
	// SelectExperiments resolves names ("all" = everything).
	SelectExperiments = fleet.Select
	// FleetRunStream shards the experiments' reps across a worker pool and
	// streams rows per completed rep to per-experiment sinks, in rep order
	// (byte-identical for any worker count, bounded memory, checkpoint
	// resume). Collect rows in memory with NewMemorySink.
	FleetRunStream = fleet.RunStream
	// OpenFleetJournal opens (creating if needed) a checkpoint directory.
	OpenFleetJournal = fleet.OpenJournal
	// ErrFleetInterrupted marks a gracefully drained (resumable) run;
	// test with errors.Is.
	ErrFleetInterrupted = fleet.ErrInterrupted
	// NewFleetManifest builds the provenance record of a finished run or
	// sweep from its unit results.
	NewFleetManifest = fleet.NewManifest
	// Sink constructors.
	NewJSONLSink  = fleet.NewJSONLSink
	NewCSVSink    = fleet.NewCSVSink
	NewMemorySink = fleet.NewMemorySink

	// Sweep entry points: the sweep-target registry and the grid runner.
	SweepTargets      = core.SweepTargets
	LookupSweepTarget = core.LookupSweep
	// FleetRunSweepStream shards a sweep grid's cells across a worker pool
	// and streams rows per completed cell to one sink, in grid order
	// (byte-identical for any worker count, bounded memory, checkpoint
	// resume).
	FleetRunSweepStream = fleet.RunSweepStream
)

// RenderDeadlineMs is the 90 FPS frame budget (~11.1 ms, §3.2).
const RenderDeadlineMs = render.DeadlineMs

// Simulated-duration units (schedule offsets, session lengths), re-exported
// so callers need not import simtime.
const (
	// Second is one simulated second.
	Second = simtime.Second
	// Millisecond is one simulated millisecond.
	Millisecond = simtime.Millisecond
)
