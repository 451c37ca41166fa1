package vca

import (
	"fmt"

	"telepresence/internal/analysis"
	"telepresence/internal/capture"
	"telepresence/internal/geo"
	"telepresence/internal/keypoints"
	"telepresence/internal/netem"
	"telepresence/internal/quic"
	"telepresence/internal/ratecontrol"
	"telepresence/internal/recovery"
	"telepresence/internal/rtp"
	"telepresence/internal/semantic"
	"telepresence/internal/simrand"
	"telepresence/internal/simtime"
	"telepresence/internal/stats"
	"telepresence/internal/telemetry"
	"telepresence/internal/video"
)

// SessionConfig describes one telepresence session to simulate.
type SessionConfig struct {
	App          App
	Participants []Participant
	// Initiator indexes Participants; server allocation follows it.
	Initiator int
	Seed      int64
	// Duration is the simulated session length (the paper uses >=120 s;
	// tests use less).
	Duration simtime.Duration
	// SpatialFPS is the persona frame rate (90 on Vision Pro).
	SpatialFPS float64
	// VideoFPS is the 2D-persona frame rate.
	VideoFPS float64
	// PathModel converts geography to delays.
	PathModel geo.PathModel
	// FreshnessLimit is how stale the newest decoded persona frame may be
	// before the UI shows "poor connection" (persona unavailable).
	FreshnessLimit simtime.Duration
	// LatencyLimit is the end-to-end media age beyond which a delivered
	// frame no longer counts as live (queueing delay under a bandwidth
	// cap drives frames past this and the persona goes unavailable).
	LatencyLimit simtime.Duration
	// SemanticMode selects the spatial-persona encoding (default:
	// paper-faithful float32).
	SemanticMode semantic.Mode
	// RetainPackets keeps full per-packet capture records (O(packets)
	// memory). The default streaming mode aggregates throughput and
	// protocol counts online at the AP tap; enable retention only for
	// analyses that need packet-level records (UplinkRecords etc.).
	RetainPackets bool
	// RateControl, when non-nil, closes the feedback loop: every receiver
	// periodically sends RTCP-style receiver reports back across the
	// reverse network path, and every sender runs a
	// ratecontrol.Controller that retargets its encoder (2D video) or
	// thins its frame stream (spatial persona) from that feedback. Nil —
	// the default — keeps the paper's open-loop behavior: no reports are
	// sent, no controller state exists, and sessions are byte-identical
	// to builds without the subsystem.
	RateControl *RateControlConfig
	// Recovery, when non-nil, adds loss recovery to the RTP media path
	// (internal/recovery): receiver-driven NACK/RTX, XOR-parity FEC, or
	// both, with NACKs and parity riding the same links as media and
	// receiver reports. Nil — the default — schedules no recovery events
	// and draws no randomness, so sessions are byte-identical to builds
	// without the subsystem (TestRecoveryOffIsInert, golden suite).
	// Spatial sessions reject active recovery: their QUIC streams already
	// retransmit, so there is nothing for the RTP-level machinery to do.
	Recovery *RecoveryConfig
	// FrameTimeout is how long the receiver's depacketizer holds an
	// incomplete RTP frame before abandoning it (DefaultFrameTimeout when
	// zero). Under Recovery with NACK the effective timeout is raised to
	// cover the NACK deadline plus two scan intervals, so a NACK'd frame
	// is never garbage-collected before its retry budget expires.
	FrameTimeout simtime.Duration
	// Telemetry, when non-nil, attaches the session's observers: a typed
	// virtual-time event trace, a sampled metrics timeseries and the
	// virtual-time profiler, any of them optional. It is the session's one
	// observer attachment. Nil — the default — emits no events, starts no
	// tickers, leaves the scheduler's probe hook unset, draws no randomness
	// and adds zero allocations to the hot paths, so sessions are
	// byte-identical to builds without observers. Observers never steer:
	// even when enabled, every experiment row stays identical.
	Telemetry *TelemetryConfig
}

// DefaultFrameTimeout is the default depacketizer incomplete-frame timeout:
// how long a receiver waits for a missing packet before conceding the frame
// and letting later frames deliver. 200 ms holds a frame across a NACK
// round trip with retries yet stays under the 250 ms default LatencyLimit,
// so a frame that completes just before the timeout still counts as live.
const DefaultFrameTimeout = 200 * simtime.Millisecond

// RateControlConfig wires a congestion controller into a session.
type RateControlConfig struct {
	// Controller selects the ratecontrol kind: "gcc" (delay-gradient),
	// "loss" (loss-based AIMD) or "fixed" (open-loop baseline). Default
	// "gcc".
	Controller string
	// Interval is the receiver-report period (default 100 ms).
	Interval simtime.Duration
	// MinBps / MaxBps bound the controller target. MaxBps defaults to the
	// sender's nominal media rate (the encoder target for 2D video, 4 Mbps
	// for spatial personas), so a closed-loop session never demands more
	// than its open-loop twin; MinBps defaults to 150 kbps.
	MinBps, MaxBps float64
}

// controllerKind returns the configured kind with the default applied.
func (rc *RateControlConfig) controllerKind() string {
	if rc.Controller == "" {
		return "gcc"
	}
	return rc.Controller
}

// interval returns the report period with the default applied.
func (rc *RateControlConfig) interval() simtime.Duration {
	if rc.Interval <= 0 {
		return 100 * simtime.Millisecond
	}
	return rc.Interval
}

// controllerConfig builds the ratecontrol.Config for a sender whose
// open-loop media rate is nominalBps.
func (rc *RateControlConfig) controllerConfig(nominalBps float64) ratecontrol.Config {
	cfg := ratecontrol.Config{
		InitialBps: nominalBps,
		MinBps:     rc.MinBps,
		MaxBps:     rc.MaxBps,
	}
	if cfg.MaxBps <= 0 {
		cfg.MaxBps = nominalBps
	}
	return cfg
}

// RecoveryConfig wires a loss-recovery strategy into a session's RTP media
// path. Zero-valued fields select the internal/recovery defaults.
type RecoveryConfig struct {
	// Strategy selects the recovery kind: "nack" (receiver-driven
	// NACK/RTX), "fec" (XOR parity groups), "hybrid" (FEC with NACK
	// fallback and loss-adaptive redundancy) or "none" (wired but inert —
	// the experiments' baseline). Default "hybrid".
	Strategy string
	// Interval is the receiver's NACK/deadline scan period (default
	// 25 ms). Each tick sends at most one burst of NACKs per remote
	// stream.
	Interval simtime.Duration
	// NackRetries / NackDeadline bound the per-seq retry budget; zero
	// selects the recovery defaults (3 retries, 160 ms).
	NackRetries  int
	NackDeadline simtime.Duration
	// FECGroupLen is the XOR parity group size for "fec", and the start
	// size for "hybrid" (default 6). MinGroupLen/MaxGroupLen bound
	// hybrid's loss-adaptive group length (defaults 6 and 12).
	FECGroupLen              int
	MinGroupLen, MaxGroupLen int
}

// strategy returns the configured kind with the default applied.
func (rc *RecoveryConfig) strategy() string {
	if rc.Strategy == "" {
		return "hybrid"
	}
	return rc.Strategy
}

// interval returns the scan period with the default applied.
func (rc *RecoveryConfig) interval() simtime.Duration {
	if rc.Interval <= 0 {
		return 25 * simtime.Millisecond
	}
	return rc.Interval
}

// engineConfig maps the session knobs onto internal/recovery's config.
func (rc *RecoveryConfig) engineConfig() recovery.Config {
	cfg := recovery.Config{
		NackRetries: rc.NackRetries,
		GroupLen:    rc.FECGroupLen,
		MinGroupLen: rc.MinGroupLen,
		MaxGroupLen: rc.MaxGroupLen,
	}
	if rc.NackDeadline > 0 {
		cfg.NackDeadlineMs = float64(rc.NackDeadline) / float64(simtime.Millisecond)
	}
	return cfg
}

// DefaultSessionConfig returns a ready-to-run two-user configuration.
func DefaultSessionConfig(app App, parts []Participant) SessionConfig {
	return SessionConfig{
		App:            app,
		Participants:   parts,
		Duration:       10 * simtime.Second,
		SpatialFPS:     90,
		VideoFPS:       30,
		PathModel:      geo.DefaultPathModel(),
		FreshnessLimit: 500 * simtime.Millisecond,
	}
}

// UserStats is the per-participant measurement outcome.
type UserStats struct {
	ID string
	// Uplink and Downlink are 1-second throughput samples in Mbps, as an
	// observer at the user's AP measures them.
	Uplink, Downlink *stats.Sample
	// Protocol is the majority classification of this user's traffic.
	Protocol analysis.Protocol
	// FramesSent counts media frames emitted.
	FramesSent int
	// FramesDecoded counts media frames successfully decoded from all
	// remote senders.
	FramesDecoded int
	// FramesUndecodable counts frames that arrived but failed the
	// all-or-nothing semantic check.
	FramesUndecodable int
	// FramesThinned counts captured frames the sender's rate controller
	// declined to transmit (spatial-persona sessions under RateControl:
	// semantic frames cannot shrink, so the controller sheds rate by
	// lowering the persona frame rate instead).
	FramesThinned int
	// PacketsRepaired counts media packets this user's receivers restored
	// via loss recovery (retransmission or FEC reconstruction), summed
	// over all remote streams; zero unless SessionConfig.Recovery is set.
	PacketsRepaired int
	// PacketsUnrepaired counts media packets that stayed lost despite
	// recovery (deadline or retry budget exhausted).
	PacketsUnrepaired int
	// UnavailableFrac is the fraction of session time the spatial persona
	// was unavailable ("poor connection").
	UnavailableFrac float64
	// MeanFrameLatencyMs is the capture-to-decode latency of delivered
	// media frames.
	MeanFrameLatencyMs float64
}

// Results is the outcome of a session run.
type Results struct {
	Plan  Plan
	Users []UserStats
}

// Session is a fully wired simulated telepresence call.
type Session struct {
	cfg   SessionConfig
	plan  Plan
	sched *simtime.Scheduler
	rng   *simrand.Source

	// Per participant: access pipes (to server, or directly to the peer
	// in P2P mode).
	up, down []*netem.Link
	caps     []*capture.Capture

	// Spatial state.
	quicUp   []*quic.Conn   // user -> server (or peer in theory; spatial is never P2P)
	quicDown [][]*quic.Conn // [sender][receiver] server -> receiver conns
	decoders [][]*semantic.Decoder

	// Video state.
	encoders []*video.Encoder
	scenes   []*video.Scene
	packers  []*rtp.Packetizer
	depacks  [][]*rtp.Depacketizer
	gates    [][]video.Gate // [sender][receiver] receive check state
	sums     [][]frameSums  // [sender][receiver] checksums of frames sent

	stats      []UserStats
	lastDecode []simtime.Time // per receiver: time of last decoded frame
	staleNs    []int64        // per receiver: accumulated unavailable time
	latSum     []float64
	latN       []int

	relayFree []*relayJob    // pooled SFU forwarding jobs
	relaySite simtime.SiteID // profiler label for SFU forwarding events

	// Rate-control state, nil/empty unless SessionConfig.RateControl is
	// set (the closed loop draws nothing — no events, no rng, no frames —
	// when disabled).
	ctrls    []ratecontrol.Controller // per sender
	builders [][]*rtp.ReportBuilder   // [sender][receiver] receive stats
	ctrlSum  []float64                // per sender: sum of applied targets
	ctrlN    []int                    // per sender: feedback count
	thinAcc  []float64                // per spatial sender: frame-budget accumulator
	nominal  []float64                // per spatial sender: measured nominal bps

	// Loss-recovery state, nil/empty unless SessionConfig.Recovery selects
	// an active strategy (same inertness contract as rate control).
	recPlan recovery.Plan
	recSend []*recovery.Sender     // per sender
	recRecv [][]*recovery.Receiver // [sender][receiver]
	nackScr rtp.Nack               // reused NACK parse scratch
	dueScr  []uint16               // reused due-seq scratch
	gcTicks uint32                 // frame-timeout horizon in 90 kHz RTP ticks

	// tr is the event tracer, nil unless SessionConfig.Telemetry carries
	// one (the inertness contract: a nil tracer costs one pointer test per
	// emission site and nothing else).
	tr *telemetry.Tracer

	// frameHook, when set (only by tests), sees every 2D frame the
	// reassembler completes with the receive check's verdict.
	frameHook func(i, j int, frame []byte, err error)
}

// relayJob carries one uplink packet from the SFU ingress to its delayed
// fan-out without a per-packet closure or payload copy.
type relayJob struct {
	s    *Session
	from int
	size int
	pkt  []byte
}

func (s *Session) getRelayJob() *relayJob {
	if n := len(s.relayFree) - 1; n >= 0 {
		j := s.relayFree[n]
		s.relayFree[n] = nil
		s.relayFree = s.relayFree[:n]
		return j
	}
	return &relayJob{s: s}
}

// relayFn forwards a processed uplink packet to every other participant's
// downlink, then recycles the job.
func relayFn(a any) {
	j := a.(*relayJob)
	s := j.s
	for k := 0; k < len(s.down); k++ {
		if k == j.from {
			continue
		}
		s.down[k].Send(netem.Frame{Size: j.size, Payload: j.pkt})
	}
	j.pkt = nil
	s.relayFree = append(s.relayFree, j)
}

// NewSession plans and wires a session.
func NewSession(cfg SessionConfig) (*Session, error) {
	plan, err := PlanSession(cfg.App, cfg.Participants, cfg.Initiator)
	if err != nil {
		return nil, err
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("vca: non-positive duration")
	}
	if cfg.SpatialFPS <= 0 {
		cfg.SpatialFPS = 90
	}
	if cfg.VideoFPS <= 0 {
		cfg.VideoFPS = 30
	}
	if cfg.FreshnessLimit <= 0 {
		cfg.FreshnessLimit = 500 * simtime.Millisecond
	}
	if cfg.LatencyLimit <= 0 {
		cfg.LatencyLimit = 250 * simtime.Millisecond
	}
	if cfg.FrameTimeout <= 0 {
		cfg.FrameTimeout = DefaultFrameTimeout
	}
	var recPlan recovery.Plan
	if cfg.Recovery != nil {
		recPlan, err = recovery.PlanFor(cfg.Recovery.strategy())
		if err != nil {
			return nil, err
		}
		if recPlan.Active() && plan.Media == MediaSpatialPersona {
			return nil, fmt.Errorf("vca: recovery strategy %q on a spatial session: QUIC streams already retransmit, RTP-level recovery has nothing to repair", cfg.Recovery.strategy())
		}
	}
	s := &Session{
		cfg:   cfg,
		plan:  plan,
		sched: simtime.NewScheduler(),
		rng:   simrand.New(cfg.Seed),
	}
	if tc := cfg.Telemetry; tc != nil && tc.Prof != nil {
		// Attach before any subsystem schedules, so the profiler observes
		// the whole run; the tracer and metrics wire in after the media
		// path (setupTelemetry). Profilers observe but never steer: event
		// order, rows, and traces are byte-identical with or without one.
		tc.Prof.Attach(s.sched)
	}
	s.relaySite = s.sched.Site("vca/sfu.relay")
	s.recPlan = recPlan
	n := len(cfg.Participants)
	s.up = make([]*netem.Link, n)
	s.down = make([]*netem.Link, n)
	s.caps = make([]*capture.Capture, n)
	s.stats = make([]UserStats, n)
	s.lastDecode = make([]simtime.Time, n)
	s.staleNs = make([]int64, n)
	s.latSum = make([]float64, n)
	s.latN = make([]int, n)

	spec := SpecFor(cfg.App)
	// mkCap builds the per-user AP capture: streaming aggregation with the
	// protocol classifier at the tap; full records only on request.
	mkCap := func(i int, links ...*netem.Link) {
		c := capture.New(cfg.Participants[i].ID)
		c.SetClassifier(analysis.ClassIndex)
		c.SetRetain(cfg.RetainPackets)
		c.Attach(links...)
		s.caps[i] = c
	}
	mkPipe := func(i int, a, b geo.Location, extraMs float64) {
		oneWay := cfg.PathModel.BaseRTTMs(a, b)/2 + extraMs
		p := netem.NewPipe(s.sched, s.rng.Split(fmt.Sprintf("pipe%d", i)), netem.Config{
			Name:     fmt.Sprintf("ap-%s", cfg.Participants[i].ID),
			DelayMs:  oneWay,
			JitterMs: 0.3,
		})
		s.up[i], s.down[i] = p.AB, p.BA
		mkCap(i, p.AB, p.BA)
	}
	if plan.P2P {
		// One pipe between the two users; each user's "uplink" is their
		// sending direction.
		oneWay := cfg.PathModel.BaseRTTMs(cfg.Participants[0].Loc, cfg.Participants[1].Loc) / 2
		p := netem.NewPipe(s.sched, s.rng.Split("p2p"), netem.Config{
			Name: "p2p", DelayMs: oneWay, JitterMs: 0.3,
		})
		s.up[0], s.down[0] = p.AB, p.BA
		s.up[1], s.down[1] = p.BA, p.AB
		mkCap(0, p.AB, p.BA)
		mkCap(1, p.BA, p.AB)
	} else {
		for i := range cfg.Participants {
			mkPipe(i, cfg.Participants[i].Loc, plan.Server, spec.ServerProcMs/2)
		}
	}

	switch plan.Media {
	case MediaSpatialPersona:
		if err := s.wireSpatial(); err != nil {
			return nil, err
		}
	case Media2DVideo:
		if err := s.wireVideo(); err != nil {
			return nil, err
		}
	}
	s.setupTelemetry()
	return s, nil
}

// Plan returns the session's connectivity decision.
func (s *Session) Plan() Plan { return s.plan }

// Scheduler exposes the session's discrete-event scheduler so callers can
// bind impairment schedules (internal/scenario) or plant custom mid-call
// events before Run. The scheduler is the session's single thread of
// execution: do not drive it directly while Run is in progress.
func (s *Session) Scheduler() *simtime.Scheduler { return s.sched }

// UplinkStats returns a copy of the link counters of user i's uplink
// (drops, deliveries, queue overflow) — the sender-side ground truth the
// scenario experiments report alongside receiver-side QoE.
func (s *Session) UplinkStats(i int) netem.LinkStats { return s.up[i].Stats() }

// DownlinkStats returns a copy of the link counters of user i's downlink.
func (s *Session) DownlinkStats(i int) netem.LinkStats { return s.down[i].Stats() }

// UplinkShaper exposes the tc-equivalent impairment stage on user i's
// uplink (§4.3's delay and bandwidth-cap experiments).
func (s *Session) UplinkShaper(i int) *netem.Shaper { return s.up[i].Shaper() }

// DownlinkShaper exposes the shaper on user i's downlink.
func (s *Session) DownlinkShaper(i int) *netem.Shaper { return s.down[i].Shaper() }

// Capture returns the AP capture of user i.
func (s *Session) Capture(i int) *capture.Capture { return s.caps[i] }

// RateController returns sender i's congestion controller, or nil when the
// session runs open loop (SessionConfig.RateControl unset).
func (s *Session) RateController(i int) ratecontrol.Controller {
	if s.ctrls == nil {
		return nil
	}
	return s.ctrls[i]
}

// RateTargetBps returns sender i's current controller target, or 0 when
// the session runs open loop.
func (s *Session) RateTargetBps(i int) float64 {
	if c := s.RateController(i); c != nil {
		return c.TargetBps()
	}
	return 0
}

// RateTargetMeanBps returns the mean of sender i's controller target
// sampled at every feedback arrival, or 0 before any feedback. The ccrate
// and ccramp experiment rows report it next to the achieved rate.
func (s *Session) RateTargetMeanBps(i int) float64 {
	if s.ctrlN == nil || s.ctrlN[i] == 0 {
		return 0
	}
	return s.ctrlSum[i] / float64(s.ctrlN[i])
}

// RecoverySenderStats returns sender i's loss-recovery counters (cache,
// parity, retransmissions); ok is false when the session runs without an
// active recovery strategy.
func (s *Session) RecoverySenderStats(i int) (recovery.SenderStats, bool) {
	if s.recSend == nil || s.recSend[i] == nil {
		return recovery.SenderStats{}, false
	}
	return s.recSend[i].Stats(), true
}

// RecoveryReceiverStats returns receiver j's loss-recovery counters for
// sender i's stream (gaps, repairs, repair delays); ok is false when the
// session runs without an active recovery strategy.
func (s *Session) RecoveryReceiverStats(i, j int) (recovery.ReceiverStats, bool) {
	if s.recRecv == nil || s.recRecv[i] == nil || s.recRecv[i][j] == nil {
		return recovery.ReceiverStats{}, false
	}
	return s.recRecv[i][j].Stats(), true
}

// RecoveryOverheadRatio returns sender i's redundancy overhead (parity plus
// retransmission bytes per media byte), or 0 without active recovery.
func (s *Session) RecoveryOverheadRatio(i int) float64 {
	if s.recSend == nil || s.recSend[i] == nil {
		return 0
	}
	return s.recSend[i].OverheadRatio()
}

// setupFeedback builds the per-stream report builders: the receiver half of
// the feedback loop, needed by rate control and by hybrid recovery's
// redundancy adaptation alike.
func (s *Session) setupFeedback() {
	if s.builders != nil {
		return
	}
	n := len(s.cfg.Participants)
	s.builders = make([][]*rtp.ReportBuilder, n)
	for i := 0; i < n; i++ {
		s.builders[i] = make([]*rtp.ReportBuilder, n)
		for j := 0; j < n; j++ {
			if j != i {
				s.builders[i][j] = rtp.NewReportBuilder(rtp.VideoSSRC(i))
			}
		}
	}
}

// reportInterval is the receiver-report period: the rate-control setting
// when present, its default otherwise (recovery-only sessions still need
// report flow for redundancy adaptation).
func (s *Session) reportInterval() simtime.Duration {
	if rc := s.cfg.RateControl; rc != nil {
		return rc.interval()
	}
	return 100 * simtime.Millisecond
}

// setupRateControl builds the per-sender controllers and per-stream report
// builders; nominalBps is the open-loop media rate controllers start from.
func (s *Session) setupRateControl(nominalBps float64) error {
	rc := s.cfg.RateControl
	n := len(s.cfg.Participants)
	s.ctrls = make([]ratecontrol.Controller, n)
	s.ctrlSum = make([]float64, n)
	s.ctrlN = make([]int, n)
	s.setupFeedback()
	for i := 0; i < n; i++ {
		c, err := ratecontrol.New(rc.controllerKind(), rc.controllerConfig(nominalBps))
		if err != nil {
			return err
		}
		s.ctrls[i] = c
	}
	return nil
}

// onFeedback delivers one receiver report to sender i: hybrid recovery
// adapts its redundancy from the reported loss, and the rate controller —
// when present — retargets the sender's encoder (2D video; spatial senders
// read the target at the next frame tick and thin instead). With both
// subsystems active the redundancy bytes are charged against the controller
// target (ratecontrol.ApplyOverhead): media plus parity plus RTX together
// stay within what the controller granted.
func (s *Session) onFeedback(i int, rep *rtp.ReceiverReport, now simtime.Time) {
	if s.tr != nil {
		s.tr.RateReport(now, i, rep.FractionLost, rep.MeanOwdMs, rep.RecvRateBps)
	}
	if s.recSend != nil && s.recSend[i] != nil {
		s.recSend[i].OnReportLoss(rep.FractionLost)
	}
	if s.ctrls == nil || s.ctrls[i] == nil {
		return
	}
	c := s.ctrls[i]
	c.OnFeedback(ratecontrol.Feedback{AtMs: now.Milliseconds(), Report: *rep})
	target := c.TargetBps()
	raw := target
	if s.recSend != nil && s.recSend[i] != nil {
		min := s.cfg.RateControl.MinBps
		if min <= 0 {
			min = ratecontrol.DefaultMinBps
		}
		target = ratecontrol.ApplyOverhead(target, s.recSend[i].BudgetOverheadRatio(), min)
	}
	if s.tr != nil {
		reason := ratecontrol.ReasonHold
		if r, ok := c.(ratecontrol.Reasoner); ok {
			reason = r.LastReason()
		}
		s.tr.RateTarget(now, i, raw, target, reason)
	}
	if s.encoders != nil && s.encoders[i] != nil {
		s.encoders[i].SetTargetBps(target)
	}
	s.ctrlSum[i] += target
	s.ctrlN[i]++
}

// handleReportFrame demuxes one wire payload that may be a marshaled
// receiver report addressed to participant me. It reports whether the
// payload was consumed (it was a report — valid or not, reports never fall
// through to media parsing).
func (s *Session) handleReportFrame(me int, payload []byte, now simtime.Time) bool {
	if s.builders == nil || !rtp.IsReport(payload) {
		return false
	}
	var rep rtp.ReceiverReport
	if err := rep.Unmarshal(payload); err != nil {
		return true
	}
	if sender, audio, ok := rtp.SenderOf(rep.SSRC); ok && !audio && sender == me {
		s.onFeedback(me, &rep, now)
	}
	return true
}

// handleRecoveryFrame demuxes one wire payload that may be a recovery
// packet as seen by participant me: a NACK for a stream me sends (answered
// from the retransmit cache over me's own uplink) or a parity packet for a
// stream me receives (handed to the stream's receiver, which may
// reconstruct the missing packet). Like reports, recovery packets never
// fall through to media parsing.
func (s *Session) handleRecoveryFrame(me int, payload []byte, now simtime.Time) bool {
	if s.recRecv == nil {
		return false
	}
	if rtp.IsNack(payload) {
		if err := s.nackScr.Unmarshal(payload); err != nil {
			return true
		}
		sender, audio, ok := rtp.SenderOf(s.nackScr.SSRC)
		if ok && !audio && sender == me && s.recSend[me] != nil {
			var preRtx, preMiss int64
			if s.tr != nil {
				st := s.recSend[me].Stats()
				preRtx, preMiss = st.RtxPackets, st.CacheMisses
			}
			for _, pkt := range s.recSend[me].OnNack(&s.nackScr) {
				// Cached packets are immutable once handed out, so the
				// retransmission can share them with the network layer.
				s.up[me].Send(netem.Frame{Size: len(pkt) + 28, Payload: pkt})
			}
			if s.tr != nil {
				st := s.recSend[me].Stats()
				s.tr.NackAnswered(now, me, int(st.RtxPackets-preRtx), int(st.CacheMisses-preMiss))
			}
		}
		return true
	}
	if rtp.IsParity(payload) {
		sender, audio, ok := rtp.SenderOf(rtp.ParitySSRC(payload))
		if ok && !audio && sender != me && sender < len(s.recRecv) && s.recRecv[sender][me] != nil {
			rr := s.recRecv[sender][me]
			var pre recSnap
			if s.tr != nil {
				pre = snapRecovery(rr)
			}
			if rec := rr.OnParity(payload, now.Milliseconds()); rec != nil {
				s.pushMedia(sender, me, rec, now)
			}
			if s.tr != nil {
				s.traceRepairDelta(now, sender, me, rr, pre)
			}
		}
		return true
	}
	return false
}

// UplinkRecords returns the delivered frames of user i's uplink only — the
// direction a passive observer attributes to this user's sending. Requires
// SessionConfig.RetainPackets; the default streaming capture keeps no
// per-packet records and yields nil here.
func (s *Session) UplinkRecords(i int) []capture.Record {
	return s.caps[i].Filter(func(r capture.Record) bool {
		return r.Dir == netem.Egress && r.Link == s.up[i].Name()
	})
}

// DownlinkRecords returns the delivered frames of user i's downlink only.
// Requires SessionConfig.RetainPackets, like UplinkRecords.
func (s *Session) DownlinkRecords(i int) []capture.Record {
	return s.caps[i].Filter(func(r capture.Record) bool {
		return r.Dir == netem.Egress && r.Link == s.down[i].Name()
	})
}

// wireSpatial sets up the all-Vision-Pro FaceTime path: semantic frames
// over QUIC, always relayed by the server (§4.1). Connection IDs follow a
// scheme: user i's uplink conn is 100+i (server side 200+i); the server's
// downlink conn for sender i toward receiver j is 1000+i*16+j (user side
// 2000+i*16+j), so receivers know which sender each frame came from.
func (s *Session) wireSpatial() error {
	n := len(s.cfg.Participants)
	if s.cfg.RateControl != nil {
		// 4 Mbps is the default target ceiling for spatial senders: above
		// the ~1.5 Mbps nominal stream, so an unimpaired closed-loop
		// session behaves exactly like its open-loop twin (thinning ratio
		// clamps at 1).
		if err := s.setupRateControl(4e6); err != nil {
			return err
		}
	}
	s.quicUp = make([]*quic.Conn, n)
	s.quicDown = make([][]*quic.Conn, n)
	s.decoders = make([][]*semantic.Decoder, n)
	for i := 0; i < n; i++ {
		s.quicDown[i] = make([]*quic.Conn, n)
		s.decoders[i] = make([]*semantic.Decoder, n)
	}
	upDemux := make([]*quic.Demux, n)   // server side of up[i]
	downDemux := make([]*quic.Demux, n) // user side of down[i]
	for i := 0; i < n; i++ {
		upDemux[i] = quic.NewDemux()
		downDemux[i] = quic.NewDemux()
		i := i
		s.up[i].SetHandler(func(now simtime.Time, f netem.Frame) { upDemux[i].Handler(now, f) })
		s.down[i].SetHandler(func(now simtime.Time, f netem.Frame) { downDemux[i].Handler(now, f) })
	}

	for i := 0; i < n; i++ {
		i := i
		// User i's uplink conn and its server-side peer.
		up := quic.NewConn(s.sched, s.up[i], quic.Config{
			ConnID: uint64(100 + i), PeerID: uint64(200 + i), Key: 0x5A, IsClient: true,
		})
		s.quicUp[i] = up
		downDemux[i].Add(up) // ACKs from the server arrive on down[i]
		srv := quic.NewConn(s.sched, s.down[i], quic.Config{
			ConnID: uint64(200 + i), PeerID: uint64(100 + i), Key: 0x5A,
		})
		upDemux[i].Add(srv)
		srv.OnMessage(func(m quic.Message) {
			for j := 0; j < n; j++ {
				if j != i {
					s.quicDown[i][j].SendMessage(m.Data)
				}
			}
		})
	}
	// Per (sender i, receiver j): server->receiver conn pair.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			i, j := i, j
			srvSide := quic.NewConn(s.sched, s.down[j], quic.Config{
				ConnID: uint64(1000 + i*16 + j), PeerID: uint64(2000 + i*16 + j), Key: 0x5A, IsClient: true,
			})
			s.quicDown[i][j] = srvSide
			upDemux[j].Add(srvSide) // receiver ACKs travel on up[j]
			userSide := quic.NewConn(s.sched, s.up[j], quic.Config{
				ConnID: uint64(2000 + i*16 + j), PeerID: uint64(1000 + i*16 + j), Key: 0x5A,
			})
			downDemux[j].Add(userSide)
			s.decoders[i][j] = semantic.NewDecoder()
			userSide.OnMessage(func(m quic.Message) {
				s.onSpatialFrame(i, j, m.Data, s.sched.Now())
			})
		}
	}

	// Senders: keypoint generators at SpatialFPS plus 24 kbps audio. The
	// stamp and audio buffers are per-sender scratch: SendMessage copies
	// into pooled connection buffers, so reuse here is safe and the steady
	// state allocates nothing but the encoder's wire frame.
	//
	// Under RateControl the sender thins: semantic frames are
	// all-or-nothing (§4.3 — they cannot shed bits per frame), so the only
	// rate the controller can shed is frame rate. A deterministic budget
	// accumulator keeps every k-th frame so the sent rate tracks the
	// controller target, floored at 1/9 of nominal (a 10 fps persona at
	// the default 90) so the stream never starves feedback entirely.
	rc := s.cfg.RateControl
	if rc != nil {
		s.thinAcc = make([]float64, n)
		s.nominal = make([]float64, n)
		for i := range s.thinAcc {
			s.thinAcc[i] = 1 // always send the first frame
		}
	}
	interval := simtime.Duration(float64(simtime.Second) / s.cfg.SpatialFPS)
	for i := 0; i < n; i++ {
		i := i
		gen := keypoints.NewGenerator(s.rng.Split(fmt.Sprintf("kp%d", i)), keypoints.MotionConfig{
			FPS: s.cfg.SpatialFPS, Expressiveness: 1, SpeakingFraction: 1 / float64(n),
			SensorNoise: 0.0004,
		})
		enc := semantic.NewEncoder(s.cfg.SemanticMode)
		var stamped []byte
		simtime.NewTicker(s.sched, interval, s.sched.Site("vca/quic.frame"), func(now simtime.Time) {
			f := gen.Next() // motion advances even for thinned frames
			if rc != nil {
				keep := 1.0
				if nom := s.nominal[i]; nom > 0 {
					keep = s.ctrls[i].TargetBps() / nom
					if keep > 1 {
						keep = 1
					}
					if keep < 1.0/9 {
						keep = 1.0 / 9
					}
				}
				s.thinAcc[i] += keep
				if s.thinAcc[i] < 1 {
					s.stats[i].FramesThinned++
					if s.tr != nil {
						s.tr.FrameThinned(now, i)
					}
					return
				}
				s.thinAcc[i]--
			}
			s.stats[i].FramesSent++
			wire := enc.Encode(&f)
			if cap(stamped) < 8+len(wire) {
				stamped = make([]byte, 8+len(wire))
			}
			stamped = stamped[:8+len(wire)]
			putTime(stamped, now)
			copy(stamped[8:], wire)
			if rc != nil {
				// Nominal = full-frame-rate wire cost of the stream, the
				// denominator of the thinning ratio.
				s.nominal[i] = float64(len(stamped)*8) * s.cfg.SpatialFPS
			}
			if s.tr != nil {
				s.tr.FrameSent(now, i, len(stamped))
			}
			s.quicUp[i].SendMessage(stamped)
		})
		// Audio: 60-byte frames every 20 ms ~ 24 kbps.
		audioBuf := make([]byte, 60)
		simtime.NewTicker(s.sched, 20*simtime.Millisecond, s.sched.Site("vca/quic.audio"), func(simtime.Time) {
			s.quicUp[i].SendMessage(audioBuf)
		})
	}

	// Receiver-report tickers: each receiver reports every remote spatial
	// stream back over its own uplink QUIC conn; the server relays the
	// report like any frame and the stream's sender demuxes it in
	// onSpatialFrame.
	if rc != nil {
		var scratch []byte
		for j := 0; j < n; j++ {
			j := j
			simtime.NewTicker(s.sched, rc.interval(), s.sched.Site("vca/ratecontrol.report"), func(now simtime.Time) {
				for i := 0; i < n; i++ {
					b := s.builders[i][j]
					if b == nil || b.Received() == 0 {
						continue
					}
					rep := b.MakeReport(now.Milliseconds())
					scratch = rep.Marshal(scratch[:0])
					s.quicUp[j].SendMessage(scratch) // SendMessage copies
				}
			})
		}
	}
	return nil
}

func putTime(b []byte, t simtime.Time) {
	v := uint64(t)
	for k := 0; k < 8; k++ {
		b[k] = byte(v >> (8 * (7 - k)))
	}
}

func getTime(b []byte) simtime.Time {
	var v uint64
	for k := 0; k < 8; k++ {
		v = v<<8 | uint64(b[k])
	}
	return simtime.Time(v)
}

// onSpatialFrame handles a reassembled message from sender i at receiver j.
func (s *Session) onSpatialFrame(i, j int, data []byte, now simtime.Time) {
	// Receiver reports ride the same relay fan-out as media; demux them
	// before the size-based audio check (a report is shorter than a
	// keypoint frame).
	if s.handleReportFrame(j, data, now) {
		return
	}
	if len(data) < 72 {
		return // audio frame
	}
	sent := getTime(data[:8])
	if s.builders != nil && s.builders[i][j] != nil {
		// QUIC delivers frames reliably and in order, so a synthetic
		// per-stream sequence number (the arrival count) stands in for an
		// RTP seq: loss shows up as delay here, never as gaps — exactly
		// the §4.3 semantics the delay-based controller exploits.
		b := s.builders[i][j]
		b.OnPacket(uint16(b.Received()), sent.Milliseconds(), now.Milliseconds(), len(data))
	}
	wire := data[8:]
	// semantic.Decoder.Validate applies Decode's integrity checks (header,
	// CRC, size) without materializing keypoints no session measurement
	// reads.
	if err := s.decoders[i][j].Validate(wire); err != nil {
		s.stats[j].FramesUndecodable++
		if s.tr != nil {
			s.tr.FrameUndecodable(now, i, j)
		}
		return
	}
	s.stats[j].FramesDecoded++
	lat := now.Sub(sent)
	s.latSum[j] += float64(lat) / float64(simtime.Millisecond)
	s.latN[j]++
	if s.tr != nil {
		s.tr.FrameDecoded(now, i, j, float64(lat)/float64(simtime.Millisecond), lat <= s.cfg.LatencyLimit)
	}
	if lat > s.cfg.LatencyLimit {
		// Decoded but too old to animate a live persona: does not refresh
		// availability.
		return
	}
	if s.lastDecode[j] != 0 {
		gap := now.Sub(s.lastDecode[j])
		if gap > s.cfg.FreshnessLimit {
			s.staleNs[j] += int64(gap - s.cfg.FreshnessLimit)
		}
	}
	s.lastDecode[j] = now
}

// deliverVideo runs one network-delivered wire packet of sender i's stream
// through receiver j's pipeline: report accounting, recovery gap tracking
// (which may reconstruct a buffered parity group's missing packet),
// frame-timeout GC, then reassembly and decode.
func (s *Session) deliverVideo(i, j int, pkt []byte, size int, now simtime.Time) {
	var h rtp.Header
	if _, err := h.Unmarshal(pkt); err != nil {
		return
	}
	if h.PayloadType == rtp.PTGenericAudio || h.PayloadType == rtp.PTFaceTimeAudio {
		return // audio contributes to throughput, not frame decode
	}
	// A late arrival — a retransmission or reordered duplicate — stays out
	// of the report builder: its capture-stamped one-way delay includes
	// the whole detection+NACK round trip, and feeding that to the
	// congestion controller would read repair latency as queue buildup.
	// Wire loss likewise stays visible: an RTX-repaired seq still counts
	// lost in the transport stats, which is what actually happened.
	late := s.recRecv != nil && s.recRecv[i][j] != nil && s.recRecv[i][j].IsLate(h.Seq)
	if !late && s.builders != nil && s.builders[i][j] != nil {
		// RTP timestamps run at the packetizer clock rate (90 kHz), so
		// the capture instant in ms is ts/90.
		s.builders[i][j].OnPacket(h.Seq, float64(h.Timestamp)/90, now.Milliseconds(), size)
	}
	if s.recRecv != nil && s.recRecv[i][j] != nil {
		rr := s.recRecv[i][j]
		var pre recSnap
		if s.tr != nil {
			pre = snapRecovery(rr)
		}
		if rec := rr.OnMedia(pkt, now.Milliseconds()); rec != nil {
			// This arrival left exactly one unknown in a buffered parity
			// group; the reconstruction is an older packet, so it joins
			// the reassembler first.
			s.pushMedia(i, j, rec, now)
		}
		if s.tr != nil {
			s.traceRepairDelta(now, i, j, rr, pre)
		}
	}
	if h.Timestamp > s.gcTicks {
		d := s.depacks[i][j]
		var preDropped int64
		if s.tr != nil {
			preDropped = d.FramesDropped
		}
		d.GC(h.Timestamp - s.gcTicks)
		if s.tr != nil {
			if dd := d.FramesDropped - preDropped; dd > 0 {
				s.tr.FrameTimeout(now, i, j, int(dd))
			}
		}
	}
	s.pushMedia(i, j, pkt, now)
}

// pushMedia feeds one media packet — network-delivered, retransmitted, or
// FEC-reconstructed — to receiver j's reassembler and accounts every frame
// that completes.
func (s *Session) pushMedia(i, j int, pkt []byte, now simtime.Time) {
	d := s.depacks[i][j]
	var preDropped int64
	if s.tr != nil {
		preDropped = d.FramesDropped
	}
	frames, err := d.Push(pkt)
	if s.tr != nil {
		// Push may abandon stalled frames when a later complete frame
		// overtakes them — the same fate as a GC timeout.
		if dd := d.FramesDropped - preDropped; dd > 0 {
			s.tr.FrameTimeout(now, i, j, int(dd))
		}
	}
	if err != nil {
		return
	}
	for _, frame := range frames {
		if len(frame) < 9 {
			continue
		}
		sent := getTime(frame[:8])
		err := s.acceptVideo(i, j, sent, frame[8:])
		if s.frameHook != nil {
			s.frameHook(i, j, frame, err)
		}
		if err != nil {
			s.stats[j].FramesUndecodable++
			if s.tr != nil {
				s.tr.FrameUndecodable(now, i, j)
			}
			continue
		}
		s.stats[j].FramesDecoded++
		lat := now.Sub(sent)
		s.latSum[j] += float64(lat) / float64(simtime.Millisecond)
		s.latN[j]++
		if s.tr != nil {
			s.tr.FrameDecoded(now, i, j, float64(lat)/float64(simtime.Millisecond), lat <= s.cfg.LatencyLimit)
		}
		if lat > s.cfg.LatencyLimit {
			// Decoded but too old to count as a live persona frame;
			// does not refresh availability (same rule as the spatial
			// path — queueing under a cap drives frames past this).
			continue
		}
		if s.lastDecode[j] != 0 {
			if gap := now.Sub(s.lastDecode[j]); gap > s.cfg.FreshnessLimit {
				s.staleNs[j] += int64(gap - s.cfg.FreshnessLimit)
			}
		}
		s.lastDecode[j] = now
	}
}

// errNoChecksum reports a reassembled 2D frame whose send stamp matches no
// frame its sender recorded: a frame assembled without its head packet
// carries a stamp read from the middle of some frame's body.
var errNoChecksum = fmt.Errorf("%w: no checksum recorded for its stamp", video.ErrCorrupt)

// acceptVideo is the receive check for one reassembled 2D frame, sent at
// stamp sent, from sender i at receiver j. It compares the frame with the
// checksum the sender recorded for that stamp, then applies the video
// header checks and reference rule (video.Gate.Accept). Netem never
// corrupts payload bytes, so this agrees with decompressing the frame
// through video.Decoder.Validate at a fraction of the cost.
func (s *Session) acceptVideo(i, j int, sent simtime.Time, data []byte) error {
	sum, ok := s.sums[i][j].take(sent)
	if !ok {
		return errNoChecksum
	}
	return s.gates[i][j].Accept(data, sum)
}

// wireVideo sets up the RTP 2D-persona path used by Zoom/Webex/Teams and
// non-all-Vision-Pro FaceTime.
func (s *Session) wireVideo() error {
	n := len(s.cfg.Participants)
	spec := SpecFor(s.cfg.App)
	s.encoders = make([]*video.Encoder, n)
	s.scenes = make([]*video.Scene, n)
	s.packers = make([]*rtp.Packetizer, n)
	s.depacks = make([][]*rtp.Depacketizer, n)
	s.gates = make([][]video.Gate, n)
	s.sums = make([][]frameSums, n)
	for i := 0; i < n; i++ {
		enc, err := video.NewEncoder(video.Config{
			W: spec.VideoW, H: spec.VideoH, FPS: s.cfg.VideoFPS,
			TargetBps: spec.VideoTargetBps, Quality: 1,
			GOP: int(s.cfg.VideoFPS) * 2, SkipThreshold: 2,
		})
		if err != nil {
			return err
		}
		s.encoders[i] = enc
		s.scenes[i] = video.NewScene(s.rng.Split(fmt.Sprintf("scene%d", i)), spec.VideoW, spec.VideoH, s.cfg.VideoFPS)
		pt := rtp.PTGenericVideo
		if s.cfg.App == FaceTime {
			pt = rtp.PTFaceTimeVideo
		}
		s.packers[i] = rtp.NewPacketizer(pt, rtp.VideoSSRC(i))
		s.depacks[i] = make([]*rtp.Depacketizer, n)
		s.gates[i] = make([]video.Gate, n)
		s.sums[i] = make([]frameSums, n)
		for j := 0; j < n; j++ {
			if j != i {
				s.depacks[i][j] = rtp.NewDepacketizer()
			}
		}
	}
	if s.cfg.RateControl != nil {
		if err := s.setupRateControl(spec.VideoTargetBps); err != nil {
			return err
		}
	}
	if rcv := s.cfg.Recovery; rcv != nil && s.recPlan.Active() {
		ecfg := rcv.engineConfig()
		s.recSend = make([]*recovery.Sender, n)
		s.recRecv = make([][]*recovery.Receiver, n)
		for i := 0; i < n; i++ {
			snd, err := recovery.NewSender(rcv.strategy(), ecfg)
			if err != nil {
				return err
			}
			s.recSend[i] = snd
			s.recRecv[i] = make([]*recovery.Receiver, n)
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				rr, err := recovery.NewReceiver(rcv.strategy(), ecfg)
				if err != nil {
					return err
				}
				s.recRecv[i][j] = rr
			}
		}
		if s.recPlan.Adaptive {
			// Hybrid adapts redundancy from receiver-report loss even when
			// no rate controller is attached.
			s.setupFeedback()
		}
	}
	// Jitter-buffer timeout horizon: an incomplete frame stalls the
	// in-order anchor (decoders wait for a packet that may never come);
	// after FrameTimeout it is abandoned and later frames deliver. Under
	// NACK recovery the horizon stretches to cover the NACK deadline plus
	// two scan intervals, so a frame is never garbage-collected while its
	// retransmission budget is still live. Loss-free sessions never have a
	// frame pending that long, so the GC is a no-op for them.
	timeoutMs := float64(s.cfg.FrameTimeout) / float64(simtime.Millisecond)
	if s.recPlan.Nack {
		e := s.cfg.Recovery.engineConfig().WithDefaults()
		minMs := e.NackDeadlineMs + 2*float64(s.cfg.Recovery.interval())/float64(simtime.Millisecond)
		if timeoutMs < minMs {
			timeoutMs = minMs
		}
	}
	s.gcTicks = uint32(timeoutMs * 90) // FrameTimeout at the 90 kHz RTP clock

	if s.plan.P2P {
		// In P2P the pipe endpoints are shared; one handler per direction.
		// Receiver reports, NACKs and parity ride the same reverse link as
		// media and are demuxed off before RTP parsing.
		s.up[0].SetHandler(func(now simtime.Time, f netem.Frame) {
			if s.handleReportFrame(1, f.Payload, now) || s.handleRecoveryFrame(1, f.Payload, now) {
				return
			}
			s.deliverVideo(0, 1, f.Payload, f.Size, now)
		})
		s.up[1].SetHandler(func(now simtime.Time, f netem.Frame) {
			if s.handleReportFrame(0, f.Payload, now) || s.handleRecoveryFrame(0, f.Payload, now) {
				return
			}
			s.deliverVideo(1, 0, f.Payload, f.Size, now)
		})
	} else {
		procDelay := simtime.Duration(SpecFor(s.cfg.App).ServerProcMs * float64(simtime.Millisecond))
		for i := 0; i < n; i++ {
			i := i
			s.up[i].SetHandler(func(now simtime.Time, f netem.Frame) {
				// SFU fan-out: take ownership of the delivered payload
				// (the sender never reuses packet buffers) instead of
				// copying it, and carry it to the forwarding instant in a
				// pooled job rather than a fresh closure. Receiver reports
				// relay exactly like media: the SFU is payload-agnostic.
				j := s.getRelayJob()
				j.from, j.size, j.pkt = i, f.Size, f.Payload
				s.sched.AtArg(s.sched.Now().Add(procDelay), s.relaySite, relayFn, j)
			})
			s.down[i].SetHandler(func(now simtime.Time, f netem.Frame) {
				if s.handleReportFrame(i, f.Payload, now) || s.handleRecoveryFrame(i, f.Payload, now) {
					return
				}
				var h rtp.Header
				if _, err := h.Unmarshal(f.Payload); err != nil {
					return
				}
				sender, audio, ok := rtp.SenderOf(h.SSRC)
				if ok && !audio && sender < n && sender != i && s.depacks[sender][i] != nil {
					s.deliverVideo(sender, i, f.Payload, f.Size, now)
				}
			})
		}
	}

	// Receiver-report tickers: each receiver periodically reports every
	// remote stream back across its own uplink; the SFU (or the P2P pipe)
	// carries the report to the stream's sender like any other frame.
	// Builders exist when rate control or hybrid recovery needs reports.
	if s.builders != nil {
		for j := 0; j < n; j++ {
			j := j
			simtime.NewTicker(s.sched, s.reportInterval(), s.sched.Site("vca/ratecontrol.report"), func(now simtime.Time) {
				for i := 0; i < n; i++ {
					b := s.builders[i][j]
					if b == nil || b.Received() == 0 {
						continue // stream not flowing yet
					}
					rep := b.MakeReport(now.Milliseconds())
					// The report buffer is retained by the network layer
					// until delivery, so each send owns a fresh one.
					wire := rep.Marshal(make([]byte, 0, rtp.ReportLen))
					s.up[j].Send(netem.Frame{Size: len(wire) + 28, Payload: wire})
				}
			})
		}
	}

	// Recovery scan tickers: each receiver periodically expires overdue
	// gaps and NACKs the rest, batched per remote stream (at most
	// MaxNackSeqs per packet); NACKs travel the receiver's own uplink like
	// reports, and the stream's sender answers with retransmissions.
	if s.recRecv != nil {
		for j := 0; j < n; j++ {
			j := j
			simtime.NewTicker(s.sched, s.cfg.Recovery.interval(), s.sched.Site("vca/recovery.scan"), func(now simtime.Time) {
				nowMs := now.Milliseconds()
				for i := 0; i < n; i++ {
					rr := s.recRecv[i][j]
					if rr == nil {
						continue
					}
					var pre recSnap
					if s.tr != nil {
						pre = snapRecovery(rr)
					}
					s.dueScr = rr.Tick(nowMs, s.dueScr[:0])
					if s.tr != nil {
						if len(s.dueScr) > 0 {
							s.tr.NackSent(now, i, j, len(s.dueScr))
						}
						s.traceRepairDelta(now, i, j, rr, pre)
					}
					for off := 0; off < len(s.dueScr); off += rtp.MaxNackSeqs {
						end := off + rtp.MaxNackSeqs
						if end > len(s.dueScr) {
							end = len(s.dueScr)
						}
						nk := rtp.Nack{SSRC: rtp.VideoSSRC(i), Seqs: s.dueScr[off:end]}
						wire := nk.Marshal(make([]byte, 0, 8+2*(end-off)))
						s.up[j].Send(netem.Frame{Size: len(wire) + 28, Payload: wire})
					}
				}
			})
		}
	}

	// Senders. The stamp buffer is per-sender scratch (Packetize copies
	// frame bytes into each packet); the audio payload is a constant.
	interval := simtime.Duration(float64(simtime.Second) / s.cfg.VideoFPS)
	for i := 0; i < n; i++ {
		i := i
		audio := rtp.NewPacketizer(rtp.PTGenericAudio, rtp.AudioSSRC(i))
		if s.cfg.App == FaceTime {
			audio.PT = rtp.PTFaceTimeAudio
		}
		var stamped []byte
		simtime.NewTicker(s.sched, interval, s.sched.Site("vca/rtp.frame"), func(now simtime.Time) {
			frame := s.scenes[i].Next()
			ef, err := s.encoders[i].Encode(frame)
			if err != nil {
				return
			}
			s.stats[i].FramesSent++
			// Record the frame's checksum on every edge it travels, keyed
			// by its send stamp; receivers check it in acceptVideo.
			sum := video.Checksum(ef.Data)
			for j := range s.sums[i] {
				if j != i {
					s.sums[i][j].add(now, sum)
				}
			}
			if cap(stamped) < 8+len(ef.Data) {
				stamped = make([]byte, 8+len(ef.Data))
			}
			stamped = stamped[:8+len(ef.Data)]
			putTime(stamped, now)
			copy(stamped[8:], ef.Data)
			if s.tr != nil {
				s.tr.FrameSent(now, i, len(stamped))
			}
			for _, pkt := range s.packers[i].Packetize(stamped, now.Seconds()) {
				var parity []byte
				if s.recSend != nil && s.recSend[i] != nil {
					// Cache for retransmission and advance the XOR group
					// (OnPacket copies; the network owns pkt after Send).
					parity = s.recSend[i].OnPacket(pkt)
				}
				s.up[i].Send(netem.Frame{Size: len(pkt) + 28, Payload: pkt}) // +IP/UDP overhead
				if parity != nil {
					if s.tr != nil {
						s.tr.ParitySent(now, i, len(parity))
					}
					s.up[i].Send(netem.Frame{Size: len(parity) + 28, Payload: parity})
				}
			}
		})
		audioBuf := make([]byte, 60)
		simtime.NewTicker(s.sched, 20*simtime.Millisecond, s.sched.Site("vca/rtp.audio"), func(now simtime.Time) {
			for _, pkt := range audio.Packetize(audioBuf, now.Seconds()) {
				s.up[i].Send(netem.Frame{Size: len(pkt) + 28, Payload: pkt})
			}
		})
	}
	return nil
}

// Run executes the session and collects results.
func (s *Session) Run() *Results {
	s.sched.RunFor(s.cfg.Duration)
	n := len(s.cfg.Participants)
	res := &Results{Plan: s.plan, Users: make([]UserStats, n)}
	for i := 0; i < n; i++ {
		st := s.stats[i]
		st.ID = s.cfg.Participants[i].ID
		// Throughput and protocol come from the streaming AP aggregates,
		// computed online at the tap — no record scan, no retained packets.
		upName, downName := s.up[i].Name(), s.down[i].Name()
		st.Uplink = s.caps[i].EgressThroughputSample(upName)
		st.Downlink = s.caps[i].EgressThroughputSample(downName)
		cls, _ := s.caps[i].DominantClass(upName, downName)
		st.Protocol = analysis.Protocol(cls)
		if s.latN[i] > 0 {
			st.MeanFrameLatencyMs = s.latSum[i] / float64(s.latN[i])
		}
		if s.recRecv != nil {
			for k := 0; k < n; k++ {
				if rr := s.recRecv[k][i]; rr != nil {
					rst := rr.Stats()
					st.PacketsRepaired += int(rst.RepairedRtx + rst.RepairedFec)
					st.PacketsUnrepaired += int(rst.Unrepaired)
				}
			}
		}
		// Unavailability: stale gaps plus never-having-decoded time. A
		// participant who never decoded a single live remote frame was
		// unavailable for the whole session, whichever media the plan
		// carries.
		total := float64(s.cfg.Duration)
		stale := float64(s.staleNs[i])
		if s.lastDecode[i] == 0 {
			stale = total
		} else {
			// Tail gap after the last decode.
			if gap := s.sched.Now().Sub(s.lastDecode[i]); gap > s.cfg.FreshnessLimit {
				stale += float64(gap - s.cfg.FreshnessLimit)
			}
		}
		st.UnavailableFrac = stale / total
		res.Users[i] = st
	}
	return res
}
