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
	// analyses that need packet-level records (UplinkRecords).
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

// Session is a fully wired simulated telepresence call. Its media state
// lives in one sender and one receiver per participant and one stream per
// sender→receiver edge (DESIGN.md, "Session layout").
type Session struct {
	cfg   SessionConfig
	plan  Plan
	sched *simtime.Scheduler
	rng   *simrand.Source

	// Per participant: access pipes (to server, or directly to the peer
	// in P2P mode).
	up, down []*netem.Link
	caps     []*capture.Capture

	senders   []sender
	receivers []receiver
	streams   []stream // edge i→j at i*n+j (Session.stream); the i == j entries stay unused

	relayFree []*relayJob    // pooled SFU forwarding jobs
	relaySite simtime.SiteID // profiler label for SFU forwarding events

	// reports is set when receivers send receiver reports back to their
	// senders: rate control and hybrid recovery's redundancy adaptation
	// both read them.
	reports bool

	// Loss recovery: the plan (zero unless SessionConfig.Recovery selects
	// an active strategy) and the receive path's scratch and GC horizon.
	recPlan recovery.Plan
	nackScr rtp.Nack // reused NACK parse scratch
	dueScr  []uint16 // reused due-seq scratch
	gcTicks uint32   // frame-timeout horizon in 90 kHz RTP ticks

	// frameTicks is how many times a sender's frame ticker fires in
	// Duration: the frames each video.Source is asked for, and each
	// semantic.Source whose sender does not thin.
	frameTicks int

	// tr is the event tracer, nil unless SessionConfig.Telemetry carries
	// one (the inertness contract: a nil tracer costs one pointer test per
	// emission site and nothing else).
	tr *telemetry.Tracer

	// frameHook, when set (only by tests), sees every 2D frame the
	// reassembler completes with the receive check's verdict.
	frameHook func(i, j int, frame []byte, err error)
}

// sender is one participant's outgoing media.
type sender struct {
	quicUp *quic.Conn // spatial: the uplink conn to the server

	kp *semantic.Source // spatial: keypoint capture and coder

	// 2D video.
	src    *video.Source
	packer *rtp.Packetizer

	sent    int // frames sent
	thinned int // spatial frames the rate controller declined to send

	// Rate control, zero unless SessionConfig.RateControl is set (the
	// closed loop draws nothing — no events, no rng, no frames — when
	// disabled).
	ctrl    ratecontrol.Controller
	minBps  float64 // floor of the target once recovery overhead is charged
	ctrlSum float64 // sum of applied targets
	ctrlN   int     // feedback count
	thinAcc float64 // spatial: frame-budget accumulator
	nominal float64 // spatial: measured nominal bps

	rec *recovery.Sender // nil unless recovery is active
}

// stream is one sender→receiver edge: everything the receiver holds of the
// sender's media, and the checksums the sender records for the edge.
type stream struct {
	conn   *quic.Conn         // spatial: the server's conn toward the receiver
	dec    *semantic.Decoder  // spatial
	depack *rtp.Depacketizer  // 2D
	gate   video.Gate         // 2D receive check state
	sums   frameSums          // 2D checksums of the frames sent on this edge
	rep    *rtp.ReportBuilder // nil unless reports flow
	rec    *recovery.Receiver // nil unless recovery is active

	from, to             int // sender and receiver index
	decoded, undecodable int // frames that reached the receiver
}

// receiver is one participant's availability and latency accounting over
// all of its incoming streams.
type receiver struct {
	lastDecode simtime.Time // time of the last live decoded frame
	staleNs    int64        // accumulated unavailable time
	latSum     float64      // capture-to-decode latencies, ms
	latN       int
}

// stream returns the edge from sender i to receiver j.
func (s *Session) stream(i, j int) *stream { return &s.streams[i*len(s.senders)+j] }

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
	n := len(cfg.Participants)
	s := &Session{
		cfg:       cfg,
		plan:      plan,
		sched:     simtime.NewScheduler(),
		rng:       simrand.New(cfg.Seed),
		up:        make([]*netem.Link, n),
		down:      make([]*netem.Link, n),
		caps:      make([]*capture.Capture, n),
		senders:   make([]sender, n),
		receivers: make([]receiver, n),
		streams:   make([]stream, n*n),
		recPlan:   recPlan,
		// Hybrid recovery adapts redundancy from receiver-report loss even
		// when no rate controller is attached.
		reports: cfg.RateControl != nil || recPlan.Adaptive,
	}
	if tc := cfg.Telemetry; tc != nil && tc.Prof != nil {
		// Attach before any subsystem schedules, so the profiler observes
		// the whole run; the tracer and metrics wire in after the media
		// path (setupTelemetry). Profilers observe but never steer: event
		// order, rows, and traces are byte-identical with or without one.
		tc.Prof.Attach(s.sched)
	}
	s.relaySite = s.sched.Site("vca/sfu.relay")

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

	if rc := cfg.RateControl; rc != nil {
		// Controllers start from the sender's open-loop media rate: the
		// encoder target for 2D video, and 4 Mbps for spatial senders —
		// above the ~1.5 Mbps nominal stream, so an unimpaired closed-loop
		// session behaves exactly like its open-loop twin (thinning ratio
		// clamps at 1).
		nominal := spec.VideoTargetBps
		if plan.Media == MediaSpatialPersona {
			nominal = 4e6
		}
		minBps := rc.MinBps
		if minBps <= 0 {
			minBps = ratecontrol.DefaultMinBps
		}
		for i := range s.senders {
			c, err := ratecontrol.New(rc.controllerKind(), rc.controllerConfig(nominal))
			if err != nil {
				return nil, err
			}
			s.senders[i].ctrl, s.senders[i].minBps = c, minBps
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			st := s.stream(i, j)
			st.from, st.to = i, j
			if j != i && s.reports {
				st.rep = rtp.NewReportBuilder(rtp.VideoSSRC(i))
			}
		}
	}

	switch plan.Media {
	case MediaSpatialPersona:
		s.wireSpatial()
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
func (s *Session) RateController(i int) ratecontrol.Controller { return s.senders[i].ctrl }

// RateTargetBps returns sender i's current controller target, or 0 when
// the session runs open loop.
func (s *Session) RateTargetBps(i int) float64 {
	if c := s.senders[i].ctrl; c != nil {
		return c.TargetBps()
	}
	return 0
}

// RateTargetMeanBps returns the mean of sender i's controller target
// sampled at every feedback arrival, or 0 before any feedback. The ccrate
// and ccramp experiment rows report it next to the achieved rate.
func (s *Session) RateTargetMeanBps(i int) float64 {
	snd := &s.senders[i]
	if snd.ctrlN == 0 {
		return 0
	}
	return snd.ctrlSum / float64(snd.ctrlN)
}

// RecoverySenderStats returns sender i's loss-recovery counters (cache,
// parity, retransmissions); ok is false when the session runs without an
// active recovery strategy.
func (s *Session) RecoverySenderStats(i int) (recovery.SenderStats, bool) {
	if rec := s.senders[i].rec; rec != nil {
		return rec.Stats(), true
	}
	return recovery.SenderStats{}, false
}

// RecoveryReceiverStats returns receiver j's loss-recovery counters for
// sender i's stream (gaps, repairs, repair delays); ok is false when the
// session runs without an active recovery strategy.
func (s *Session) RecoveryReceiverStats(i, j int) (recovery.ReceiverStats, bool) {
	if rr := s.stream(i, j).rec; rr != nil {
		return rr.Stats(), true
	}
	return recovery.ReceiverStats{}, false
}

// RecoveryOverheadRatio returns sender i's redundancy overhead (parity plus
// retransmission bytes per media byte), or 0 without active recovery.
func (s *Session) RecoveryOverheadRatio(i int) float64 {
	if rec := s.senders[i].rec; rec != nil {
		return rec.OverheadRatio()
	}
	return 0
}

// startReports starts each receiver's report ticker: every report interval
// (the rate-control setting when present, its default otherwise), receiver
// j reports every remote stream that has delivered anything, and send
// carries the report back over j's own uplink. The server (or the P2P
// pipe) relays it to the stream's sender like any other frame.
func (s *Session) startReports(send func(j int, rep *rtp.ReceiverReport)) {
	interval := 100 * simtime.Millisecond
	if rc := s.cfg.RateControl; rc != nil {
		interval = rc.interval()
	}
	n := len(s.receivers)
	for j := 0; j < n; j++ {
		j := j
		simtime.NewTicker(s.sched, interval, s.sched.Site("vca/ratecontrol.report"), func(now simtime.Time) {
			for i := 0; i < n; i++ {
				b := s.stream(i, j).rep
				if b == nil || b.Received() == 0 {
					continue // stream not flowing yet
				}
				rep := b.MakeReport(now.Milliseconds())
				send(j, &rep)
			}
		})
	}
}

// onFeedback delivers one receiver report to sender i: hybrid recovery
// adapts its redundancy from the reported loss, and the rate controller —
// when present — retargets the sender's encoder (2D video; spatial senders
// read the target at the next frame tick and thin instead). With both
// subsystems active the redundancy bytes are charged against the controller
// target (ratecontrol.ApplyOverhead): media plus parity plus RTX together
// stay within what the controller granted.
func (s *Session) onFeedback(i int, rep *rtp.ReceiverReport, now simtime.Time) {
	snd := &s.senders[i]
	if s.tr != nil {
		s.tr.RateReport(now, i, rep.FractionLost, rep.MeanOwdMs, rep.RecvRateBps)
	}
	if snd.rec != nil {
		snd.rec.OnReportLoss(rep.FractionLost)
	}
	c := snd.ctrl
	if c == nil {
		return
	}
	c.OnFeedback(ratecontrol.Feedback{AtMs: now.Milliseconds(), Report: *rep})
	target := c.TargetBps()
	raw := target
	if snd.rec != nil {
		target = ratecontrol.ApplyOverhead(target, snd.rec.BudgetOverheadRatio(), snd.minBps)
	}
	if s.tr != nil {
		reason := ratecontrol.ReasonHold
		if r, ok := c.(ratecontrol.Reasoner); ok {
			reason = r.LastReason()
		}
		s.tr.RateTarget(now, i, raw, target, reason)
	}
	if snd.src != nil {
		snd.src.SetTargetBps(target)
	}
	snd.ctrlSum += target
	snd.ctrlN++
}

// handleReportFrame demuxes one wire payload that may be a marshaled
// receiver report addressed to participant me. It reports whether the
// payload was consumed (it was a report — valid or not, reports never fall
// through to media parsing).
func (s *Session) handleReportFrame(me int, payload []byte, now simtime.Time) bool {
	if !s.reports || !rtp.IsReport(payload) {
		return false
	}
	var rep rtp.ReceiverReport
	if err := rep.Unmarshal(payload); err != nil {
		return true
	}
	if src, audio, ok := rtp.SenderOf(rep.SSRC); ok && !audio && src == me {
		s.onFeedback(me, &rep, now)
	}
	return true
}

// handleRecoveryFrame demuxes one wire payload that may be a recovery
// packet as seen by participant me: a NACK for a stream me sends (answered
// from the retransmit cache over me's own uplink) or a parity packet for a
// stream me receives (handed to the stream's receiver, which may
// reconstruct the missing packet). Like reports, recovery packets never
// fall through to media parsing. Under an active plan every sender and
// every stream carries its recovery half.
func (s *Session) handleRecoveryFrame(me int, payload []byte, now simtime.Time) bool {
	if !s.recPlan.Active() {
		return false
	}
	if rtp.IsNack(payload) {
		if err := s.nackScr.Unmarshal(payload); err != nil {
			return true
		}
		src, audio, ok := rtp.SenderOf(s.nackScr.SSRC)
		if ok && !audio && src == me {
			rec := s.senders[me].rec
			var preRtx, preMiss int64
			if s.tr != nil {
				st := rec.Stats()
				preRtx, preMiss = st.RtxPackets, st.CacheMisses
			}
			for _, pkt := range rec.OnNack(&s.nackScr) {
				// Cached packets are immutable once handed out, so the
				// retransmission can share them with the network layer.
				s.up[me].Send(netem.Frame{Size: len(pkt) + 28, Payload: pkt})
			}
			if s.tr != nil {
				st := rec.Stats()
				s.tr.NackAnswered(now, me, int(st.RtxPackets-preRtx), int(st.CacheMisses-preMiss))
			}
		}
		return true
	}
	if rtp.IsParity(payload) {
		src, audio, ok := rtp.SenderOf(rtp.ParitySSRC(payload))
		if ok && !audio && src != me && src < len(s.senders) {
			st := s.stream(src, me)
			rr := st.rec
			var pre recSnap
			if s.tr != nil {
				pre = snapRecovery(rr)
			}
			if rec := rr.OnParity(payload, now.Milliseconds()); rec != nil {
				s.pushMedia(st, rec, now)
			}
			if s.tr != nil {
				s.traceRepairDelta(now, src, me, rr, pre)
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

// wireSpatial sets up the all-Vision-Pro FaceTime path: semantic frames
// over QUIC, always relayed by the server (§4.1). Connection IDs follow a
// scheme: user i's uplink conn is 100+i (server side 200+i); the server's
// downlink conn for sender i toward receiver j is 1000+i*16+j (user side
// 2000+i*16+j), so receivers know which sender each frame came from.
func (s *Session) wireSpatial() {
	n := len(s.senders)
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
		s.senders[i].quicUp = up
		downDemux[i].Add(up) // ACKs from the server arrive on down[i]
		srv := quic.NewConn(s.sched, s.down[i], quic.Config{
			ConnID: uint64(200 + i), PeerID: uint64(100 + i), Key: 0x5A,
		})
		upDemux[i].Add(srv)
		srv.OnMessage(func(m quic.Message) {
			for j := 0; j < n; j++ {
				if j != i {
					s.stream(i, j).conn.SendMessage(m.Data)
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
			st := s.stream(i, j)
			st.conn = quic.NewConn(s.sched, s.down[j], quic.Config{
				ConnID: uint64(1000 + i*16 + j), PeerID: uint64(2000 + i*16 + j), Key: 0x5A, IsClient: true,
			})
			upDemux[j].Add(st.conn) // receiver ACKs travel on up[j]
			userSide := quic.NewConn(s.sched, s.up[j], quic.Config{
				ConnID: uint64(2000 + i*16 + j), PeerID: uint64(1000 + i*16 + j), Key: 0x5A,
			})
			downDemux[j].Add(userSide)
			st.dec = semantic.NewDecoder()
			userSide.OnMessage(func(m quic.Message) {
				s.onSpatialFrame(st, m.Data, s.sched.Now())
			})
		}
	}

	// Senders: keypoint generators at SpatialFPS plus 24 kbps audio. The
	// stamp and audio buffers are per-sender scratch: SendMessage copies
	// into pooled connection buffers, so reuse here is safe, and the
	// source codes into its own reused buffers: the steady state
	// allocates nothing.
	//
	// Under RateControl the sender thins: semantic frames are
	// all-or-nothing (§4.3 — they cannot shed bits per frame), so the only
	// rate the controller can shed is frame rate. A deterministic budget
	// accumulator keeps every k-th frame so the sent rate tracks the
	// controller target, floored at 1/9 of nominal (a 10 fps persona at
	// the default 90) so the stream never starves feedback entirely.
	//
	// A sender that does not thin takes every frame, so its source codes
	// ahead, in batches, on an idle core. A thinning sender's source codes
	// each frame inline at its tick: a thinned frame advances the motion
	// without reaching the encoder, whose ModeQuantized deltas depend on
	// the last frame sent.
	interval := simtime.Duration(float64(simtime.Second) / s.cfg.SpatialFPS)
	s.frameTicks = int(s.cfg.Duration / interval)
	for i := 0; i < n; i++ {
		i, snd := i, &s.senders[i]
		snd.thinAcc = 1 // always send the first frame
		gen := keypoints.NewGenerator(s.rng.Split(fmt.Sprintf("kp%d", i)), keypoints.MotionConfig{
			FPS: s.cfg.SpatialFPS, Expressiveness: 1, SpeakingFraction: 1 / float64(n),
			SensorNoise: 0.0004,
		})
		ahead := s.frameTicks
		if snd.ctrl != nil {
			ahead = 0
		}
		snd.kp = semantic.NewSource(gen, semantic.NewEncoder(s.cfg.SemanticMode), ahead)
		var stamped []byte
		simtime.NewTicker(s.sched, interval, s.sched.Site("vca/quic.frame"), func(now simtime.Time) {
			if snd.ctrl != nil {
				keep := 1.0
				if nom := snd.nominal; nom > 0 {
					keep = snd.ctrl.TargetBps() / nom
					if keep > 1 {
						keep = 1
					}
					if keep < 1.0/9 {
						keep = 1.0 / 9
					}
				}
				snd.thinAcc += keep
				if snd.thinAcc < 1 {
					snd.kp.Skip() // motion advances even for thinned frames
					snd.thinned++
					if s.tr != nil {
						s.tr.FrameThinned(now, i)
					}
					return
				}
				snd.thinAcc--
			}
			snd.sent++
			wire := snd.kp.Next()
			if cap(stamped) < 8+len(wire) {
				stamped = make([]byte, 8+len(wire))
			}
			stamped = stamped[:8+len(wire)]
			putTime(stamped, now)
			copy(stamped[8:], wire)
			if snd.ctrl != nil {
				// Nominal = full-frame-rate wire cost of the stream, the
				// denominator of the thinning ratio.
				snd.nominal = float64(len(stamped)*8) * s.cfg.SpatialFPS
			}
			if s.tr != nil {
				s.tr.FrameSent(now, i, len(stamped))
			}
			snd.quicUp.SendMessage(stamped)
		})
		// Audio: 60-byte frames every 20 ms ~ 24 kbps.
		audioBuf := make([]byte, 60)
		simtime.NewTicker(s.sched, 20*simtime.Millisecond, s.sched.Site("vca/quic.audio"), func(simtime.Time) {
			snd.quicUp.SendMessage(audioBuf)
		})
	}

	// Spatial reports go over the receiver's uplink QUIC conn, and the
	// stream's sender demuxes them in onSpatialFrame.
	if s.reports {
		var scratch []byte
		s.startReports(func(j int, rep *rtp.ReceiverReport) {
			scratch = rep.Marshal(scratch[:0])
			s.senders[j].quicUp.SendMessage(scratch) // SendMessage copies
		})
	}
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

// onSpatialFrame handles a reassembled message at the receiving end of
// stream st.
func (s *Session) onSpatialFrame(st *stream, data []byte, now simtime.Time) {
	// Receiver reports ride the same relay fan-out as media; demux them
	// before the size-based audio check (a report is shorter than a
	// keypoint frame).
	if s.handleReportFrame(st.to, data, now) {
		return
	}
	if len(data) < 72 {
		return // audio frame
	}
	sent := getTime(data[:8])
	if st.rep != nil {
		// QUIC delivers frames reliably and in order, so a synthetic
		// per-stream sequence number (the arrival count) stands in for an
		// RTP seq: loss shows up as delay here, never as gaps — exactly
		// the §4.3 semantics the delay-based controller exploits.
		st.rep.OnPacket(uint16(st.rep.Received()), sent.Milliseconds(), now.Milliseconds(), len(data))
	}
	// semantic.Decoder.Validate applies Decode's integrity checks (header,
	// CRC, size) without materializing keypoints no session measurement
	// reads.
	s.frameDone(st, sent, now, st.dec.Validate(data[8:]))
}

// frameDone accounts one media frame of stream st, sent at sent, that
// reached the receiver: undecodable when err is set, otherwise decoded
// with its capture-to-decode latency. A decoded frame that is still live
// refreshes the receiver's availability.
func (s *Session) frameDone(st *stream, sent, now simtime.Time, err error) {
	if err != nil {
		st.undecodable++
		if s.tr != nil {
			s.tr.FrameUndecodable(now, st.from, st.to)
		}
		return
	}
	st.decoded++
	r := &s.receivers[st.to]
	lat := now.Sub(sent)
	r.latSum += float64(lat) / float64(simtime.Millisecond)
	r.latN++
	if s.tr != nil {
		s.tr.FrameDecoded(now, st.from, st.to, float64(lat)/float64(simtime.Millisecond), lat <= s.cfg.LatencyLimit)
	}
	if lat > s.cfg.LatencyLimit {
		// Decoded but too old to animate a live persona (queueing under a
		// cap drives frames past this): does not refresh availability.
		return
	}
	if r.lastDecode != 0 {
		if gap := now.Sub(r.lastDecode); gap > s.cfg.FreshnessLimit {
			r.staleNs += int64(gap - s.cfg.FreshnessLimit)
		}
	}
	r.lastDecode = now
}

// deliverVideo runs one network-delivered wire packet of stream st through
// its receiver's pipeline: report accounting, recovery gap tracking (which
// may reconstruct a buffered parity group's missing packet), frame-timeout
// GC, then reassembly and decode.
func (s *Session) deliverVideo(st *stream, pkt []byte, size int, now simtime.Time) {
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
	late := st.rec != nil && st.rec.IsLate(h.Seq)
	if !late && st.rep != nil {
		// RTP timestamps run at the packetizer clock rate (90 kHz), so
		// the capture instant in ms is ts/90.
		st.rep.OnPacket(h.Seq, float64(h.Timestamp)/90, now.Milliseconds(), size)
	}
	if rr := st.rec; rr != nil {
		var pre recSnap
		if s.tr != nil {
			pre = snapRecovery(rr)
		}
		if rec := rr.OnMedia(pkt, now.Milliseconds()); rec != nil {
			// This arrival left exactly one unknown in a buffered parity
			// group; the reconstruction is an older packet, so it joins
			// the reassembler first.
			s.pushMedia(st, rec, now)
		}
		if s.tr != nil {
			s.traceRepairDelta(now, st.from, st.to, rr, pre)
		}
	}
	if h.Timestamp > s.gcTicks {
		d := st.depack
		var preDropped int64
		if s.tr != nil {
			preDropped = d.FramesDropped
		}
		d.GC(h.Timestamp - s.gcTicks)
		if s.tr != nil {
			if dd := d.FramesDropped - preDropped; dd > 0 {
				s.tr.FrameTimeout(now, st.from, st.to, int(dd))
			}
		}
	}
	s.pushMedia(st, pkt, now)
}

// pushMedia feeds one media packet — network-delivered, retransmitted, or
// FEC-reconstructed — to stream st's reassembler and accounts every frame
// that completes.
func (s *Session) pushMedia(st *stream, pkt []byte, now simtime.Time) {
	d := st.depack
	var preDropped int64
	if s.tr != nil {
		preDropped = d.FramesDropped
	}
	frames, err := d.Push(pkt)
	if s.tr != nil {
		// Push may abandon stalled frames when a later complete frame
		// overtakes them — the same fate as a GC timeout.
		if dd := d.FramesDropped - preDropped; dd > 0 {
			s.tr.FrameTimeout(now, st.from, st.to, int(dd))
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
		err := s.acceptVideo(st, sent, frame[8:])
		if s.frameHook != nil {
			s.frameHook(st.from, st.to, frame, err)
		}
		s.frameDone(st, sent, now, err)
	}
}

// errNoChecksum reports a reassembled 2D frame whose send stamp matches no
// frame its sender recorded: a frame assembled without its head packet
// carries a stamp read from the middle of some frame's body.
var errNoChecksum = fmt.Errorf("%w: no checksum recorded for its stamp", video.ErrCorrupt)

// acceptVideo is the receive check for one reassembled 2D frame on stream
// st, sent at stamp sent. It compares the frame with the checksum the
// sender recorded for that stamp, then applies the video header checks and
// reference rule (video.Gate.Accept). Netem never corrupts payload bytes,
// so this agrees with decompressing the frame through
// video.Decoder.Validate at a fraction of the cost.
func (s *Session) acceptVideo(st *stream, sent simtime.Time, data []byte) error {
	sum, ok := st.sums.take(sent)
	if !ok {
		return errNoChecksum
	}
	return st.gate.Accept(data, sum)
}

// wireVideo sets up the RTP 2D-persona path used by Zoom/Webex/Teams and
// non-all-Vision-Pro FaceTime.
func (s *Session) wireVideo() error {
	n := len(s.senders)
	spec := SpecFor(s.cfg.App)
	pt := rtp.PTGenericVideo
	if s.cfg.App == FaceTime {
		pt = rtp.PTFaceTimeVideo
	}
	rcv := s.cfg.Recovery
	// The sender ticker fires one interval after the start and every
	// interval after, and Run includes its deadline, so a sender is asked
	// for Duration/interval frames.
	interval := simtime.Duration(float64(simtime.Second) / s.cfg.VideoFPS)
	s.frameTicks = int(s.cfg.Duration / interval)
	for i := 0; i < n; i++ {
		snd := &s.senders[i]
		enc, err := video.NewEncoder(video.Config{
			W: spec.VideoW, H: spec.VideoH, FPS: s.cfg.VideoFPS,
			TargetBps: spec.VideoTargetBps, Quality: 1,
			GOP: int(s.cfg.VideoFPS) * 2, SkipThreshold: 2,
		})
		if err != nil {
			return err
		}
		scene := video.NewScene(s.rng.Split(fmt.Sprintf("scene%d", i)), spec.VideoW, spec.VideoH, s.cfg.VideoFPS)
		if snd.src, err = video.NewSource(scene, enc, s.frameTicks); err != nil {
			return err
		}
		snd.packer = rtp.NewPacketizer(pt, rtp.VideoSSRC(i))
		if s.recPlan.Active() {
			if snd.rec, err = recovery.NewSender(rcv.strategy(), rcv.engineConfig()); err != nil {
				return err
			}
		}
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			st := s.stream(i, j)
			st.depack = rtp.NewDepacketizer()
			if s.recPlan.Active() {
				if st.rec, err = recovery.NewReceiver(rcv.strategy(), rcv.engineConfig()); err != nil {
					return err
				}
			}
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
		e := rcv.engineConfig().WithDefaults()
		minMs := e.NackDeadlineMs + 2*float64(rcv.interval())/float64(simtime.Millisecond)
		if timeoutMs < minMs {
			timeoutMs = minMs
		}
	}
	s.gcTicks = uint32(timeoutMs * 90) // FrameTimeout at the 90 kHz RTP clock

	// Receiver reports, NACKs and parity ride the same links as media and
	// are demuxed off before RTP parsing.
	if s.plan.P2P {
		// In P2P the pipe endpoints are shared: up[i] delivers to peer j
		// both i's media and i's feedback on j's stream.
		for i := 0; i < 2; i++ {
			j, st := 1-i, s.stream(i, 1-i)
			s.up[i].SetHandler(func(now simtime.Time, f netem.Frame) {
				if s.handleReportFrame(j, f.Payload, now) || s.handleRecoveryFrame(j, f.Payload, now) {
					return
				}
				s.deliverVideo(st, f.Payload, f.Size, now)
			})
		}
	} else {
		procDelay := simtime.Duration(spec.ServerProcMs * float64(simtime.Millisecond))
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
				src, audio, ok := rtp.SenderOf(h.SSRC)
				if ok && !audio && src < n && src != i {
					s.deliverVideo(s.stream(src, i), f.Payload, f.Size, now)
				}
			})
		}
	}

	if s.reports {
		s.startReports(func(j int, rep *rtp.ReceiverReport) {
			// The report buffer is retained by the network layer until
			// delivery, so each send owns a fresh one.
			wire := rep.Marshal(make([]byte, 0, rtp.ReportLen))
			s.up[j].Send(netem.Frame{Size: len(wire) + 28, Payload: wire})
		})
	}

	// Recovery scan tickers: each receiver periodically expires overdue
	// gaps and NACKs the rest, batched per remote stream (at most
	// MaxNackSeqs per packet); NACKs travel the receiver's own uplink like
	// reports, and the stream's sender answers with retransmissions.
	if s.recPlan.Active() {
		for j := 0; j < n; j++ {
			j := j
			simtime.NewTicker(s.sched, rcv.interval(), s.sched.Site("vca/recovery.scan"), func(now simtime.Time) {
				nowMs := now.Milliseconds()
				for i := 0; i < n; i++ {
					rr := s.stream(i, j).rec
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
	for i := 0; i < n; i++ {
		i, snd := i, &s.senders[i]
		audio := rtp.NewPacketizer(rtp.PTGenericAudio, rtp.AudioSSRC(i))
		if s.cfg.App == FaceTime {
			audio.PT = rtp.PTFaceTimeAudio
		}
		var stamped []byte
		simtime.NewTicker(s.sched, interval, s.sched.Site("vca/rtp.frame"), func(now simtime.Time) {
			ef := snd.src.Next()
			snd.sent++
			// Record the frame's checksum on every edge it travels, keyed
			// by its send stamp; receivers check it in acceptVideo.
			sum := video.Checksum(ef.Data)
			for j := 0; j < n; j++ {
				if j != i {
					s.stream(i, j).sums.add(now, sum)
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
			for _, pkt := range snd.packer.Packetize(stamped, now.Seconds()) {
				var parity []byte
				if snd.rec != nil {
					// Cache for retransmission and advance the XOR group
					// (OnPacket copies; the network owns pkt after Send).
					parity = snd.rec.OnPacket(pkt)
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
		r := &s.receivers[i]
		st := UserStats{
			ID:            s.cfg.Participants[i].ID,
			FramesSent:    s.senders[i].sent,
			FramesThinned: s.senders[i].thinned,
		}
		// Throughput and protocol come from the streaming AP aggregates,
		// computed online at the tap — no record scan, no retained packets.
		upName, downName := s.up[i].Name(), s.down[i].Name()
		st.Uplink = s.caps[i].EgressThroughputSample(upName)
		st.Downlink = s.caps[i].EgressThroughputSample(downName)
		cls, _ := s.caps[i].DominantClass(upName, downName)
		st.Protocol = analysis.Protocol(cls)
		for k := 0; k < n; k++ {
			in := s.stream(k, i)
			st.FramesDecoded += in.decoded
			st.FramesUndecodable += in.undecodable
			if in.rec != nil {
				rst := in.rec.Stats()
				st.PacketsRepaired += int(rst.RepairedRtx + rst.RepairedFec)
				st.PacketsUnrepaired += int(rst.Unrepaired)
			}
		}
		if r.latN > 0 {
			st.MeanFrameLatencyMs = r.latSum / float64(r.latN)
		}
		// Unavailability: stale gaps plus never-having-decoded time. A
		// participant who never decoded a single live remote frame was
		// unavailable for the whole session, whichever media the plan
		// carries.
		total := float64(s.cfg.Duration)
		stale := float64(r.staleNs)
		if r.lastDecode == 0 {
			stale = total
		} else {
			// Tail gap after the last decode.
			if gap := s.sched.Now().Sub(r.lastDecode); gap > s.cfg.FreshnessLimit {
				stale += float64(gap - s.cfg.FreshnessLimit)
			}
		}
		st.UnavailableFrac = stale / total
		res.Users[i] = st
	}
	return res
}
