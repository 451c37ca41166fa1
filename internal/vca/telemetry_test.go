package vca

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"telepresence/internal/geo"
	"telepresence/internal/simtime"
	"telepresence/internal/telemetry"
	"telepresence/internal/vprof"
)

// telemetrySession is the standard traced session: Zoom P2P under burst
// loss with hybrid recovery and gcc rate control, so every event category
// (netem, rate, recovery, vca) fires.
func telemetrySession(t *testing.T, tc *TelemetryConfig) (*Session, *Results) {
	t.Helper()
	cfg := zoomP2P(7, &RecoveryConfig{Strategy: "hybrid"})
	cfg.RateControl = &RateControlConfig{Controller: "gcc"}
	cfg.Telemetry = tc
	return runWithBurst(t, cfg)
}

// TestTelemetryOffIsInert pins the zero-cost gate of the session's one
// observer attachment: attaching a tracer, a metrics registry and a
// profiler must not change a single session result — observers never
// steer. Combined with the untouched golden suite (Telemetry is nil
// there), this proves nil telemetry is behaviorally absent and enabled
// observers are read-only.
func TestTelemetryOffIsInert(t *testing.T) {
	_, off := telemetrySession(t, nil)

	var trace, metrics bytes.Buffer
	tc := &TelemetryConfig{
		Trace:   telemetry.NewTracer(&trace),
		Metrics: telemetry.NewMetrics(&metrics, telemetry.FormatCSV),
		Prof:    vprof.New(),
	}
	_, on := telemetrySession(t, tc)

	if !reflect.DeepEqual(off, on) {
		t.Errorf("enabled observers changed session results:\noff: %+v\non:  %+v",
			off.Users[1], on.Users[1])
	}
	if r := tc.Prof.Report(); r.TotalEvents == 0 {
		t.Error("attached profiler saw no events")
	} else {
		for _, site := range r.Sites {
			if site.Site == vprof.Unlabeled {
				t.Errorf("%d session events unlabeled", site.Events)
			}
		}
	}
	if tc.Trace.Events() == 0 {
		t.Error("enabled tracer saw no events")
	}
	if err := tc.Trace.Err(); err != nil {
		t.Error(err)
	}
	if tc.Metrics.Rows() == 0 {
		t.Error("enabled metrics sampled no rows")
	}
	header, _, _ := strings.Cut(metrics.String(), "\n")
	for _, col := range []string{"t_ms", "target_bps/u0", "achieved_up_bps/u1", "queue_up_bytes/u0", "loss_ewma/u0", "repaired/u1", "frames_outstanding/u1"} {
		if !strings.Contains(header, col) {
			t.Errorf("metrics header missing %q: %s", col, header)
		}
	}

	// An empty TelemetryConfig (both outputs nil) must also run clean.
	_, empty := telemetrySession(t, &TelemetryConfig{})
	if !reflect.DeepEqual(off, empty) {
		t.Error("empty TelemetryConfig diverges from nil")
	}
}

// TestTelemetryTraceIsDeterministic pins rule 2 of the tracer contract:
// the same seed yields a byte-identical trace and metrics timeseries.
func TestTelemetryTraceIsDeterministic(t *testing.T) {
	run := func() (string, string) {
		var trace, metrics bytes.Buffer
		telemetrySession(t, &TelemetryConfig{
			Trace:   telemetry.NewTracer(&trace),
			Metrics: telemetry.NewMetrics(&metrics, telemetry.FormatCSV),
		})
		return trace.String(), metrics.String()
	}
	t1, m1 := run()
	t2, m2 := run()
	if t1 != t2 {
		t.Error("same seed produced different trace bytes")
	}
	if m1 != m2 {
		t.Error("same seed produced different metrics bytes")
	}
}

// TestTraceSummarizeReproducesUserStats is the acceptance gate: replaying
// the event stream alone must reproduce the session's end-of-run UserStats
// frame and repair counters exactly. It holds because the emission sites
// diff the same engine counters UserStats is built from. Three sessions pin
// it: the standard P2P one, whose burst channel exercises repair; a
// three-party Zoom SFU call with loss on every downlink, whose receivers
// reject frames through the checksum receive check; and a spatial FaceTime
// call under gcc with a 0.7 Mbps uplink, whose sender thins frames.
func TestTraceSummarizeReproducesUserStats(t *testing.T) {
	sfu := DefaultSessionConfig(Zoom, []Participant{
		vp("u1", geo.Ashburn), vp("u2", geo.NewYork), vp("u3", geo.Ashburn),
	})
	sfu.Duration = 4 * simtime.Second
	sfu.Seed = 12
	sfu.VideoFPS = 15
	spatial := DefaultSessionConfig(FaceTime, []Participant{
		vp("u1", geo.Ashburn), vp("u2", geo.NewYork),
	})
	spatial.Duration = 6 * simtime.Second
	spatial.Seed = 11
	spatial.RateControl = &RateControlConfig{Controller: "gcc"}
	for _, c := range []struct {
		name string
		run  func(*testing.T, *TelemetryConfig) *Results
	}{
		{"p2p-burst", func(t *testing.T, tc *TelemetryConfig) *Results {
			_, res := telemetrySession(t, tc)
			return res
		}},
		{"sfu-downlink-loss", func(t *testing.T, tc *TelemetryConfig) *Results {
			cfg := sfu
			cfg.Telemetry = tc
			sess, res := runLossy(t, cfg, 2, nil)
			if sess.Plan().P2P {
				t.Fatal("three-party Zoom planned P2P; SFU path not exercised")
			}
			return res
		}},
		{"spatial-thinned", func(t *testing.T, tc *TelemetryConfig) *Results {
			cfg := spatial
			cfg.Telemetry = tc
			sess, err := NewSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Squeeze the uplink so the controller sheds rate by thinning.
			sess.UplinkShaper(0).RateBps = 0.7e6
			return sess.Run()
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var trace bytes.Buffer
			res := c.run(t, &TelemetryConfig{Trace: telemetry.NewTracer(&trace)})
			sum, err := telemetry.Summarize(bytes.NewReader(trace.Bytes()))
			if err != nil {
				t.Fatalf("trace does not summarize: %v", err)
			}
			if sum.Events == 0 {
				t.Fatal("empty trace")
			}
			var undecodableAll int64
			for i, u := range res.Users {
				sent, thinned, decoded, undecodable, repaired, unrepaired := sum.UserFrameCounts(i)
				if sent != int64(u.FramesSent) {
					t.Errorf("u%d FramesSent: trace %d, stats %d", i, sent, u.FramesSent)
				}
				if thinned != int64(u.FramesThinned) {
					t.Errorf("u%d FramesThinned: trace %d, stats %d", i, thinned, u.FramesThinned)
				}
				if decoded != int64(u.FramesDecoded) {
					t.Errorf("u%d FramesDecoded: trace %d, stats %d", i, decoded, u.FramesDecoded)
				}
				if undecodable != int64(u.FramesUndecodable) {
					t.Errorf("u%d FramesUndecodable: trace %d, stats %d", i, undecodable, u.FramesUndecodable)
				}
				if repaired != int64(u.PacketsRepaired) {
					t.Errorf("u%d PacketsRepaired: trace %d, stats %d", i, repaired, u.PacketsRepaired)
				}
				if unrepaired != int64(u.PacketsUnrepaired) {
					t.Errorf("u%d PacketsUnrepaired: trace %d, stats %d", i, unrepaired, u.PacketsUnrepaired)
				}
				undecodableAll += undecodable
			}
			// Each session must exercise the counters it is there for, or the
			// equalities above are vacuous.
			if _, _, _, _, repaired, _ := sum.UserFrameCounts(1); c.name == "p2p-burst" && repaired == 0 {
				t.Error("no repairs traced under burst loss — test lost its teeth")
			}
			if c.name == "sfu-downlink-loss" && undecodableAll == 0 {
				t.Error("no undecodable frame traced under downlink loss — test lost its teeth")
			}
			if _, thinned, _, _, _, _ := sum.UserFrameCounts(0); c.name == "spatial-thinned" && thinned == 0 {
				t.Error("capped spatial sender thinned no frames — thinning path untraced")
			}
		})
	}
}
