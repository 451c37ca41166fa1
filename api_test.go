// Integration tests of the public API: everything a downstream user touches
// goes through the telepresence package, never internal/ paths.
package telepresence_test

import (
	"fmt"
	"log"
	"testing"

	tp "telepresence"
)

func TestPublicSessionEndToEnd(t *testing.T) {
	cfg := tp.DefaultSessionConfig(tp.FaceTime, []tp.Participant{
		{ID: "u1", Loc: tp.Ashburn, Device: tp.VisionPro},
		{ID: "u2", Loc: tp.NewYork, Device: tp.VisionPro},
	})
	cfg.Duration = 4 * tp.Second
	cfg.Seed = 99
	sess, err := tp.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := sess.Plan()
	if plan.Media != tp.MediaSpatialPersona || plan.Transport != tp.TransportQUIC {
		t.Fatalf("plan = %+v", plan)
	}
	res := sess.Run()
	if len(res.Users) != 2 {
		t.Fatalf("%d users", len(res.Users))
	}
	for _, u := range res.Users {
		if u.Uplink.Mean() <= 0 {
			t.Errorf("%s: no uplink traffic", u.ID)
		}
	}
}

func TestPublicPlanMatrix(t *testing.T) {
	plan, err := tp.PlanSession(tp.Zoom, []tp.Participant{
		{ID: "a", Loc: tp.Seattle, Device: tp.VisionPro},
		{ID: "b", Loc: tp.Miami, Device: tp.VisionPro},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.P2P || plan.Media != tp.Media2DVideo {
		t.Errorf("two-party Zoom plan = %+v", plan)
	}
}

func TestPublicConstantsStable(t *testing.T) {
	if tp.MaxSpatialUsers != 5 {
		t.Error("spatial cap drifted")
	}
	if tp.Version == "" {
		t.Error("no version")
	}
	if len(tp.VantagePoints()) != 9 {
		t.Error("vantage points drifted")
	}
	if tp.RenderDeadlineMs < 11 || tp.RenderDeadlineMs > 11.2 {
		t.Errorf("deadline %.2f ms, want ~11.1", tp.RenderDeadlineMs)
	}
}

func TestQuickVsFullOptions(t *testing.T) {
	q, f := tp.Quick(1), tp.Full(1)
	if q.SessionDuration >= f.SessionDuration {
		t.Error("Quick not quicker than Full")
	}
	if f.Reps < 5 {
		t.Error("Full should match the paper's >=5 repetitions")
	}
}

// ExamplePlanSession demonstrates the §4.1 decision matrix through the
// public API.
func ExamplePlanSession() {
	plan, err := tp.PlanSession(tp.FaceTime, []tp.Participant{
		{ID: "u1", Loc: tp.Ashburn, Device: tp.VisionPro},
		{ID: "u2", Loc: tp.SanFrancisco, Device: tp.VisionPro},
	}, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%v over %v via %v\n", plan.Media, plan.Transport, plan.Server)
	// Output: spatial-persona over QUIC via VA
}

// ExampleKeypointStreaming reproduces the paper's 74-keypoint bandwidth
// estimate.
func ExampleKeypointStreaming() {
	res, err := tp.KeypointStreaming(tp.Quick(4))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d keypoints, under 1 Mbps: %v\n",
		res.Keypoints, res.MbpsSample.Mean() < 1)
	// Output: 74 keypoints, under 1 Mbps: true
}

func TestPublicFleetAPI(t *testing.T) {
	exps := tp.Experiments()
	if len(exps) < 17 {
		t.Fatalf("%d experiments registered, want >=17", len(exps))
	}
	if _, ok := tp.LookupExperiment("fig5"); !ok {
		t.Error("fig5 not addressable by name")
	}
	sel, err := tp.SelectExperiments("servers", "protocols")
	if err != nil {
		t.Fatal(err)
	}
	opts := tp.Quick(5)
	opts.SessionDuration = 4 * tp.Second
	sink := tp.NewMemorySink()
	results, err := tp.FleetRunStream(sel, opts, tp.FleetConfig{Workers: 4},
		func(tp.Experiment) (tp.Sink, error) { return sink, nil })
	if err != nil {
		t.Fatal(err)
	}
	// servers: 3 policy rows; protocols: 8 matrix rows.
	if len(sink.Rows) != 11 {
		t.Errorf("%d rows through the public fleet API, want 11", len(sink.Rows))
	}
	m := tp.NewFleetManifest(opts, 4, 0, results)
	if m.Seed != 5 || len(m.Experiments) != 2 {
		t.Errorf("manifest = %+v", m)
	}
}

// TestPublicScenarioAPI drives a session under a schedule built entirely
// through the public surface: schedule authoring, trace import, binding,
// and link-stat accessors.
func TestPublicScenarioAPI(t *testing.T) {
	cfg := tp.DefaultSessionConfig(tp.FaceTime, []tp.Participant{
		{ID: "u1", Loc: tp.Ashburn, Device: tp.VisionPro},
		{ID: "u2", Loc: tp.NewYork, Device: tp.VisionPro},
	})
	cfg.Duration = 4 * tp.Second
	cfg.Seed = 7
	sess, err := tp.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := tp.NewSchedule().
		StepAt(tp.Second, tp.Impairment{ExtraDelayMs: 400}).
		RampTo(2*tp.Second, tp.Second, tp.Impairment{
			Burst: &tp.BurstParams{GoodToBad: 0.05, BadToGood: 0.2, LossBad: 1},
		})
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := sched.Bind(sess.Scheduler(), sess.UplinkShaper(0)); err != nil {
		t.Fatal(err)
	}
	res := sess.Run()
	if res.Users[1].FramesDecoded == 0 {
		t.Error("impaired session decoded nothing")
	}
	if up := sess.UplinkStats(0); up.DroppedBurst == 0 {
		t.Error("burst segment dropped nothing on the uplink")
	}
}

func TestPublicSweepAPI(t *testing.T) {
	if len(tp.SweepTargets()) < 3 {
		t.Fatalf("%d sweep targets, want >=3", len(tp.SweepTargets()))
	}
	if _, ok := tp.LookupSweepTarget("congestion"); !ok {
		t.Fatal("congestion not addressable by name")
	}
	opts := tp.Quick(3)
	opts.SessionDuration = 4 * tp.Second
	spec := tp.SweepSpec{Target: "handover", Axes: []tp.SweepAxis{
		{Name: "delay_ms", Values: []float64{250}},
	}}
	sink := tp.NewMemorySink()
	results, err := tp.FleetRunSweepStream(spec, opts, tp.FleetConfig{Workers: 2}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.Rows) != 1 {
		t.Fatalf("%d rows, want 1", len(sink.Rows))
	}
	row, ok := sink.Rows[0].(tp.HandoverRow)
	if !ok || row.StepDelayMs != 250 {
		t.Errorf("row = %#v", sink.Rows[0])
	}
	m := tp.NewFleetSweepManifest(spec, opts, 2, 0, results)
	if m.Target != "handover" || m.Cells != 1 || m.Rows != 1 {
		t.Errorf("sweep manifest = %+v", m)
	}
}
