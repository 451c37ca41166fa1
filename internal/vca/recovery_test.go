package vca

import (
	"reflect"
	"testing"

	"telepresence/internal/geo"
	"telepresence/internal/netem"
	"telepresence/internal/ratecontrol"
	"telepresence/internal/simtime"
)

// zoomP2P builds the standard lossy-path recovery session: a two-party Zoom
// call (P2P 2D video) with the freshness window tightened so frame-timeout
// stalls are visible in UnavailableFrac.
func zoomP2P(seed int64, rec *RecoveryConfig) SessionConfig {
	cfg := DefaultSessionConfig(Zoom, []Participant{
		vp("u1", geo.Ashburn), vp("u2", geo.NewYork),
	})
	cfg.Duration = 8 * simtime.Second
	if testing.Short() {
		cfg.Duration = 4 * simtime.Second // keeps the -race -short CI job fast
	}
	cfg.Seed = seed
	cfg.FreshnessLimit = 200 * simtime.Millisecond
	cfg.Recovery = rec
	return cfg
}

func runWithBurst(t *testing.T, cfg SessionConfig) (*Session, *Results) {
	t.Helper()
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess.UplinkShaper(0).Burst = netem.NewGilbertElliott(0.02, 0.25, 0.9)
	return sess, sess.Run()
}

// TestRecoveryOffIsInert pins the determinism gate: a session with
// Recovery == nil has no recovery state, and the "none" strategy — wired
// but inert — produces byte-identical results to nil under the same loss,
// proving the gate adds no events, no rng draws, and no behavior until a
// strategy is active.
func TestRecoveryOffIsInert(t *testing.T) {
	off, offRes := runWithBurst(t, zoomP2P(7, nil))
	if _, ok := off.RecoverySenderStats(0); ok {
		t.Error("Recovery=nil session has sender recovery state")
	}
	if _, ok := off.RecoveryReceiverStats(0, 1); ok {
		t.Error("Recovery=nil session has receiver recovery state")
	}
	if off.RecoveryOverheadRatio(0) != 0 {
		t.Error("Recovery=nil session reports overhead")
	}
	if offRes.Users[1].PacketsRepaired != 0 || offRes.Users[1].PacketsUnrepaired != 0 {
		t.Error("Recovery=nil session counted repairs")
	}
	_, noneRes := runWithBurst(t, zoomP2P(7, &RecoveryConfig{Strategy: "none"}))
	if !reflect.DeepEqual(offRes, noneRes) {
		t.Errorf("strategy \"none\" diverges from Recovery=nil:\nnil:  %+v\nnone: %+v",
			offRes.Users[1], noneRes.Users[1])
	}
}

// TestRecoveryRepairsBurstLoss pins the subsystem end to end on the P2P
// path: under a Gilbert-Elliott burst channel, every active strategy must
// repair packets, and hybrid must beat no-recovery on availability.
func TestRecoveryRepairsBurstLoss(t *testing.T) {
	_, none := runWithBurst(t, zoomP2P(7, nil))
	for _, strategy := range []string{"nack", "fec", "hybrid"} {
		sess, res := runWithBurst(t, zoomP2P(7, &RecoveryConfig{Strategy: strategy}))
		u := res.Users[1]
		if u.PacketsRepaired == 0 {
			t.Errorf("%s: no packets repaired through burst loss", strategy)
		}
		sst, ok := sess.RecoverySenderStats(0)
		if !ok {
			t.Fatalf("%s: no sender stats", strategy)
		}
		switch strategy {
		case "nack":
			if sst.RtxPackets == 0 || sst.ParityPackets != 0 {
				t.Errorf("nack sender stats %+v", sst)
			}
		case "fec":
			if sst.ParityPackets == 0 || sst.RtxPackets != 0 {
				t.Errorf("fec sender stats %+v", sst)
			}
		case "hybrid":
			if sst.ParityPackets == 0 {
				t.Errorf("hybrid sender sent no parity: %+v", sst)
			}
		}
		rst, _ := sess.RecoveryReceiverStats(0, 1)
		if got := rst.RepairedRtx + rst.RepairedFec + rst.Unrepaired; rst.Missed < got {
			t.Errorf("%s: accounting broken: missed %d < settled %d", strategy, rst.Missed, got)
		}
		if strategy == "hybrid" {
			// The availability margin needs a full-length session; the
			// repair machinery itself is asserted above at any length.
			if !testing.Short() && u.UnavailableFrac >= none.Users[1].UnavailableFrac {
				t.Errorf("hybrid unavailable %.3f not below no-recovery %.3f",
					u.UnavailableFrac, none.Users[1].UnavailableFrac)
			}
			if len(rst.RepairDelaysMs) == 0 {
				t.Error("hybrid recorded no repair delays")
			}
		}
	}
}

// TestRecoveryAcrossSFU proves NACKs, retransmissions and parity survive
// the server relay: a Teams call (always SFU) under burst loss must still
// repair packets end to end.
func TestRecoveryAcrossSFU(t *testing.T) {
	cfg := DefaultSessionConfig(Teams, []Participant{
		vp("u1", geo.Ashburn), vp("u2", geo.NewYork),
	})
	cfg.Duration = 6 * simtime.Second
	if testing.Short() {
		cfg.Duration = 4 * simtime.Second
	}
	cfg.Seed = 9
	cfg.VideoFPS = 15
	cfg.Recovery = &RecoveryConfig{Strategy: "hybrid"}
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Plan().P2P {
		t.Fatal("Teams planned P2P; SFU path not exercised")
	}
	sess.UplinkShaper(0).Burst = netem.NewGilbertElliott(0.02, 0.25, 0.9)
	res := sess.Run()
	if res.Users[1].PacketsRepaired == 0 {
		t.Error("no packets repaired across the SFU")
	}
	if sst, _ := sess.RecoverySenderStats(0); sst.RtxPackets == 0 && sst.ParityPackets == 0 {
		t.Errorf("sender emitted no recovery traffic: %+v", sst)
	}
}

// TestRecoveryChargedAgainstRateTarget pins the rate-budget interaction:
// with gcc rate control and hybrid recovery on the same capped link, the
// encoder target is the controller's target with the redundancy charged
// against it, so media plus parity plus RTX stay within the controller's
// grant. The charge is the recent-window ratio
// (recovery.Sender.BudgetOverheadRatio), not the session-lifetime
// OverheadRatio: a finished loss episode stops being charged.
func TestRecoveryChargedAgainstRateTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("controller convergence needs a 10 s session; skipped in -short")
	}
	cfg := zoomP2P(5, &RecoveryConfig{Strategy: "hybrid"})
	cfg.Duration = 10 * simtime.Second
	cfg.RateControl = &RateControlConfig{Controller: "gcc"}
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess.UplinkShaper(0).RateBps = 0.9e6
	sess.UplinkShaper(0).Burst = netem.NewGilbertElliott(0.01, 0.3, 0.9)
	sess.Run()
	if overhead := sess.RecoveryOverheadRatio(0); overhead <= 0 {
		t.Fatal("no redundancy overhead measured")
	}
	applied := sess.RateTargetMeanBps(0)
	raw := sess.RateController(0).TargetBps()
	if applied <= 0 || raw <= 0 {
		t.Fatal("no targets recorded")
	}
	// The controller's target moves only on feedback, so raw and the
	// charged ratio are both as of the last report.
	charged := sess.senders[0].rec.ChargedOverheadRatio()
	want := ratecontrol.ApplyOverhead(raw, charged, ratecontrol.DefaultMinBps)
	if enc := sess.senders[0].src.TargetBps(); enc != want {
		t.Errorf("encoder target %.0f, want %.0f (raw %.0f, charged overhead %.3f)", enc, want, raw, charged)
	}
}

// TestRecoveryRejectsSpatial: spatial sessions stream over reliable QUIC;
// wiring RTP-level recovery into one is a configuration error.
func TestRecoveryRejectsSpatial(t *testing.T) {
	cfg := DefaultSessionConfig(FaceTime, []Participant{
		vp("u1", geo.Ashburn), vp("u2", geo.NewYork),
	})
	cfg.Duration = simtime.Second
	cfg.Recovery = &RecoveryConfig{Strategy: "hybrid"}
	if _, err := NewSession(cfg); err == nil {
		t.Fatal("spatial session accepted active recovery")
	}
	// The inert "none" strategy is allowed anywhere.
	cfg.Recovery = &RecoveryConfig{Strategy: "none"}
	if _, err := NewSession(cfg); err != nil {
		t.Fatalf("spatial session rejected inert recovery: %v", err)
	}
	cfg.Recovery = &RecoveryConfig{Strategy: "bogus"}
	if _, err := NewSession(cfg); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestFrameTimeoutCoordination pins the derived depacketizer horizon:
// frameTimeout (200 ms) without NACK recovery, and under NACK never less
// than the NACK deadline plus two scan intervals — a NACK'd frame must
// survive its retry budget: max(200, 160 + 2 x 25) = 210 ms.
func TestFrameTimeoutCoordination(t *testing.T) {
	for _, c := range []struct {
		rec  *RecoveryConfig
		want uint32
	}{
		{nil, 18000},
		{&RecoveryConfig{Strategy: "none"}, 18000},
		{&RecoveryConfig{Strategy: "fec"}, 18000},
		{&RecoveryConfig{Strategy: "nack"}, 18900},
		{&RecoveryConfig{Strategy: "hybrid"}, 18900},
	} {
		sess, err := NewSession(zoomP2P(1, c.rec))
		if err != nil {
			t.Fatal(err)
		}
		if got := sess.gcTicks; got != c.want {
			t.Errorf("recovery %+v: horizon %d ticks, want %d", c.rec, got, c.want)
		}
	}
}
