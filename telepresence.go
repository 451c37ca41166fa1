// Package telepresence is the public API of the immersive-telepresence
// simulation framework reproducing "A First Look at Immersive Telepresence
// on Apple Vision Pro" (IMC 2024).
//
// The package exposes four layers:
//
//   - Sessions: build and run simulated telepresence calls on any of the
//     four modeled applications (FaceTime, Zoom, Webex, Teams), with
//     tc-style impairments, packet captures and per-user statistics.
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
//   - Building blocks, re-exported for direct use: the semantic codec, the
//     mesh codec, the renderer cost model, and the geography/RTT model.
//
// Everything is deterministic given a seed; nothing touches the wall clock
// or the real network.
package telepresence

import (
	"telepresence/internal/core"
	"telepresence/internal/fleet"
	"telepresence/internal/geo"
	"telepresence/internal/ratecontrol"
	"telepresence/internal/recovery"
	"telepresence/internal/render"
	"telepresence/internal/scenario"
	"telepresence/internal/semantic"
	"telepresence/internal/simtime"
	"telepresence/internal/stats"
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
	// SessionConfig parameterizes a session.
	SessionConfig = vca.SessionConfig
	// SessionResults is a session's measurement outcome.
	SessionResults = vca.Results
	// UserStats is one participant's measurements.
	UserStats = vca.UserStats
	// RateControlConfig closes the congestion-control feedback loop on a
	// session (SessionConfig.RateControl); nil keeps the paper's
	// open-loop behavior.
	RateControlConfig = vca.RateControlConfig
	// RateController is the sender-side congestion-control contract.
	RateController = ratecontrol.Controller
	// RateControllerConfig parameterizes a standalone controller.
	RateControllerConfig = ratecontrol.Config
)

// Rate-control entry points (internal/ratecontrol).
var (
	// RateControllerKinds lists the controller kinds in the ccrate/ccramp
	// grid order: "fixed" (open loop), "loss", "gcc".
	RateControllerKinds = ratecontrol.Kinds
	// NewRateController builds a controller by kind.
	NewRateController = ratecontrol.New
)

// Loss recovery (internal/recovery): NACK/RTX, XOR-parity FEC and adaptive
// hybrid redundancy on the RTP media path (SessionConfig.Recovery).
type (
	// RecoveryConfig wires a loss-recovery strategy into a session.
	RecoveryConfig = vca.RecoveryConfig
	// RecoverySenderStats counts parity, retransmissions and cache work.
	RecoverySenderStats = recovery.SenderStats
	// RecoveryReceiverStats counts gaps, repairs and repair delays.
	RecoveryReceiverStats = recovery.ReceiverStats
)

// RecoveryKinds lists the strategy kinds in the recovery/recramp grid
// order: "none", "nack", "fec", "hybrid".
var RecoveryKinds = recovery.Kinds

// DefaultFrameTimeout is the depacketizer's default incomplete-frame
// timeout, configurable per session via SessionConfig.FrameTimeout.
const DefaultFrameTimeout = vca.DefaultFrameTimeout

// Telemetry (internal/telemetry): virtual-time session tracing, metrics
// timeseries and the profiler, the session's one observer attachment
// (SessionConfig.Telemetry). Nil is provably inert; enabled observers
// never steer, so rows stay byte-identical.
type (
	// TelemetryConfig attaches a tracer, a metrics registry and/or a
	// profiler to a session.
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
	// ValidateTraceLine checks one trace line against the event schema.
	ValidateTraceLine = telemetry.ValidateLine
	// TraceSchemaDoc renders the event schema as a sorted listing.
	TraceSchemaDoc = telemetry.SchemaDoc
)

// Virtual-time profiling (internal/vprof): per-site scheduler attribution
// (TelemetryConfig.Prof, Options.ProfDir). A nil profiler is provably inert;
// an attached one observes but never steers, so rows stay byte-identical.
// Deterministic counters export as byte-stable JSONL; pprof exports
// additionally carry wall-CPU attribution and open with `go tool pprof`.
type (
	// VProfiler attributes scheduler events to named sites
	// (TelemetryConfig.Prof).
	VProfiler = vprof.Profiler
	// VProfReport is a profile snapshot: per-site counters over a virtual
	// duration.
	VProfReport = vprof.Report
	// VProfSiteReport is one scheduling site's aggregated profile.
	VProfSiteReport = vprof.SiteReport
	// FleetHotSite is one entry of a manifest's hot_sites ranking.
	FleetHotSite = fleet.HotSite
)

// Virtual-time profiling entry points.
var (
	// NewVProfiler returns an idle profiler; attach via TelemetryConfig.Prof.
	NewVProfiler = vprof.New
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

// Profile artifact names: per-cell suffixes and the run-level merges.
const (
	ProfJSONLSuffix      = core.ProfJSONLSuffix
	ProfPprofSuffix      = core.ProfPprofSuffix
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
	// Experiment row types, one per figure.
	Fig4Row                 = core.Fig4Row
	Fig5Row                 = core.Fig5Row
	Fig6Row                 = core.Fig6Row
	Fig7Row                 = core.Fig7Row
	ProtocolCase            = core.ProtocolCase
	DisplayLatencyRow       = core.DisplayLatencyRow
	RateAdaptationRow       = core.RateAdaptationRow
	RemoteRenderRow         = core.RemoteRenderRow
	MeshStreamingResult     = core.MeshStreamingResult
	KeypointStreamingResult = core.KeypointStreamingResult
	AnycastVerdict          = vca.AnycastVerdict
	MultiServerRow          = core.MultiServerRow
	ServerPolicy            = core.ServerPolicy
	ViewportDeliveryRow     = core.ViewportDeliveryRow
	QoESweepRow             = core.QoESweepRow
	// Scenario-experiment rows (time-varying impairment schedules).
	HandoverRow   = core.HandoverRow
	BurstLossRow  = core.BurstLossRow
	CongestionRow = core.CongestionRow
	// Closed-loop congestion-control rows (internal/ratecontrol).
	CCRateRow = core.CCRateRow
	CCRampRow = core.CCRampRow
	// Loss-recovery rows (internal/recovery).
	RecoveryRow = core.RecoveryRow
	RecRampRow  = core.RecRampRow
)

// Server policies for the Implications-1 ablation.
const (
	PolicyInitiator      = core.PolicyInitiator
	PolicyCentral        = core.PolicyCentral
	PolicyGeoDistributed = core.PolicyGeoDistributed
)

// Default sweeps used by the registry's scenario experiments.
var (
	DefaultHandoverDelaysMs     = core.DefaultHandoverDelaysMs
	DefaultCongestionFloorsMbps = core.DefaultCongestionFloorsMbps
	DefaultCCRateCaps           = core.DefaultCCRateCaps
	DefaultCCRateControllers    = core.DefaultCCRateControllers
	DefaultRecoveryStrategies   = core.DefaultRecoveryStrategies
	DefaultRecRampFloorsMbps    = core.DefaultRecRampFloorsMbps
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
	// RepRunner runs one independent repetition of an experiment.
	RepRunner = core.RepRunner
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
	// MemorySink collects rows in memory (for tests and pipelines).
	MemorySink = fleet.MemorySink

	// Fault tolerance (see DESIGN.md "Fault tolerance"):
	// RetryPolicy re-runs failing or hung units with backoff and a
	// per-attempt watchdog (FleetConfig.Retry).
	RetryPolicy = fleet.RetryPolicy
	// FaultPlan is the deterministic chaos harness (FleetConfig.Chaos).
	FaultPlan = fleet.FaultPlan
	// FleetJournal is a per-run checkpoint directory of completed units.
	FleetJournal = fleet.Journal
	// FleetJournalEntry is one checkpointed unit's pre-encoded rows.
	FleetJournalEntry = fleet.JournalEntry
	// UnitFailure is one failed rep/cell in a manifest's failures section.
	UnitFailure = fleet.UnitFailure

	// Live observability (see DESIGN.md "Live observability"):
	// FleetMonitor receives unit-lifecycle events from a running fleet
	// (FleetConfig.Monitor). Monitors observe but never steer; a nil
	// monitor is provably inert. internal/fleetobs builds the HTTP and
	// terminal views on this.
	FleetMonitor = fleet.Monitor
	// FleetMonitorEvent is one engine notification.
	FleetMonitorEvent = fleet.MonitorEvent
	// FleetEventKind enumerates the notification kinds.
	FleetEventKind = fleet.EventKind

	// Per-unit fleet row types (aggregated runners emit these per rep).
	MeshHeadRow = core.MeshHeadRow
	KeypointRow = core.KeypointRow
)

// Fleet monitor event kinds (FleetMonitorEvent.Kind).
const (
	FleetEventRunStarted     = fleet.EventRunStarted
	FleetEventUnitDispatched = fleet.EventUnitDispatched
	FleetEventAttemptStarted = fleet.EventAttemptStarted
	FleetEventUnitRetried    = fleet.EventUnitRetried
	FleetEventUnitPanicked   = fleet.EventUnitPanicked
	FleetEventUnitTimedOut   = fleet.EventUnitTimedOut
	FleetEventJournalHit     = fleet.EventJournalHit
	FleetEventUnitDone       = fleet.EventUnitDone
	FleetEventRowsEmitted    = fleet.EventRowsEmitted
	FleetEventWindow         = fleet.EventWindow
	FleetEventInterrupted    = fleet.EventInterrupted
	FleetEventRunDone        = fleet.EventRunDone
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
	// ScheduleAction is one flattened shaper write of a schedule.
	ScheduleAction = scenario.Action
)

// Scenario construction and trace import.
var (
	// NewSchedule returns an empty impairment timeline.
	NewSchedule = scenario.New
	// Preset §4.3-shaped timelines.
	DelayStepSchedule     = scenario.DelayStep
	BandwidthRampSchedule = scenario.BandwidthRamp
	BurstLossSchedule     = scenario.BurstLoss
	// ParseTraceCSV imports a "time_s,delay_ms,rate_kbps,loss" timeline.
	ParseTraceCSV = scenario.ParseCSV
	// ParseMahimahiTrace imports a mahimahi/VideoTransDemo-style
	// packet-opportunity trace as a piecewise rate schedule.
	ParseMahimahiTrace = scenario.ParseMahimahi
)

// Parameter sweeps: cartesian grids over a sweep target's schedule
// parameters, sharded like experiment reps (see FleetRunSweepStream).
type (
	// SweepTarget is a parameterized experiment registered for sweeps.
	SweepTarget = core.SweepTarget
	// SweepParam is one recognized target parameter with its default.
	SweepParam = core.SweepParam
	// CellRunner executes one sweep cell.
	CellRunner = core.CellRunner
	// SweepAxis is one swept parameter with its grid values.
	SweepAxis = fleet.Axis
	// SweepSpec is a cartesian grid over one sweep target.
	SweepSpec = fleet.SweepSpec
	// SweepCell is one enumerated grid point.
	SweepCell = fleet.SweepCell
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
	// ParseFaultPlan parses a vpfleet -chaos spec into a FaultPlan.
	ParseFaultPlan = fleet.ParseFaultPlan
	// NewFleetManifest builds the provenance record of a finished run or
	// sweep from its unit results.
	NewFleetManifest = fleet.NewManifest
	// Sink constructors.
	NewJSONLSink  = fleet.NewJSONLSink
	NewCSVSink    = fleet.NewCSVSink
	NewMemorySink = fleet.NewMemorySink

	// Sweep entry points: the sweep-target registry and the grid runner.
	SweepTargets        = core.SweepTargets
	LookupSweepTarget   = core.LookupSweep
	RegisterSweepTarget = core.RegisterSweep
	// SweepCellOptions derives a cell's options from the run seed and the
	// cell's parameter values (for custom CellRunner implementations).
	SweepCellOptions = core.SweepCellOptions
	// FleetRunSweepStream shards a sweep grid's cells across a worker pool
	// and streams rows per completed cell to one sink, in grid order
	// (byte-identical for any worker count, bounded memory, checkpoint
	// resume).
	FleetRunSweepStream = fleet.RunSweepStream
)

// Statistics helpers (re-exported for consumers of experiment rows).
type (
	// Sample is an accumulating set of observations.
	Sample = stats.Sample
	// Box is the five-number summary used by the paper's plots.
	Box = stats.Box
)

// Rendering model (§4.4, §4.5).
type (
	// CostModel holds the calibrated GPU/CPU constants.
	CostModel = render.CostModel
	// Optimizations selects visibility-aware optimizations.
	Optimizations = render.Optimizations
)

// Rendering helpers.
var (
	DefaultCostModel      = render.DefaultCostModel
	FaceTimeOptimizations = render.FaceTimeOptimizations
)

// RenderDeadlineMs is the 90 FPS frame budget (~11.1 ms, §3.2).
const RenderDeadlineMs = render.DeadlineMs

// Semantic codec modes (§4.3).
const (
	// SemanticFloat32 is the paper-faithful raw-float encoding.
	SemanticFloat32 = semantic.ModeFloat32
	// SemanticQuantized is the quantized-delta ablation encoding.
	SemanticQuantized = semantic.ModeQuantized
)

// Simulated-duration units (schedule offsets, session lengths), re-exported
// so callers need not import simtime.
const (
	// Second is one simulated second.
	Second = simtime.Second
	// Millisecond is one simulated millisecond.
	Millisecond = simtime.Millisecond
)
