package core

import (
	"math"
	"reflect"
	"testing"

	"telepresence/internal/ratecontrol"
	"telepresence/internal/vca"
)

// expectedExperiments is the stable registry index documented in DESIGN.md.
var expectedExperiments = []string{
	"anycast", "burstloss", "ccramp", "ccrate", "congestion", "fig4", "fig5",
	"fig6", "fig7", "handover", "keypoints", "latency", "mesh", "protocols",
	"qoe", "rate", "recovery", "recramp", "remote", "servers", "viewport",
}

// expectedSweepTargets is the stable sweep-target index.
var expectedSweepTargets = []string{
	"burstloss", "ccramp", "ccrate", "congestion", "handover", "recovery", "recramp", "session",
}

func TestSweepRegistryComplete(t *testing.T) {
	var names []string
	for _, tgt := range SweepTargets() {
		names = append(names, tgt.Name)
		if tgt.Desc == "" || tgt.Row == nil || len(tgt.Params) == 0 {
			t.Errorf("%s: incomplete sweep target %+v", tgt.Name, tgt)
		}
		for _, p := range tgt.Params {
			if p.Name == "" || p.Desc == "" {
				t.Errorf("%s: incomplete parameter %+v", tgt.Name, p)
			}
		}
	}
	if !reflect.DeepEqual(names, expectedSweepTargets) {
		t.Errorf("sweep registry drifted:\n got %v\nwant %v", names, expectedSweepTargets)
	}
	if _, ok := LookupSweep("handover"); !ok {
		t.Error("LookupSweep(handover) failed")
	}
	if _, ok := LookupSweep("nope"); ok {
		t.Error("LookupSweep invented a target")
	}
}

func TestRegisterSweepRejectsBadTargets(t *testing.T) {
	for _, tgt := range []SweepTarget{
		{},
		{Name: "x"},
		{Name: "handover", Run: func(Options, map[string]float64) ([]Row, error) { return nil, nil }}, // duplicate
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RegisterSweep(%+v) did not panic", tgt)
				}
			}()
			RegisterSweep(tgt)
		}()
	}
}

func TestRegistryComplete(t *testing.T) {
	exps := Experiments()
	var names []string
	for _, e := range exps {
		names = append(names, e.Name)
		if e.Desc == "" {
			t.Errorf("%s: no description", e.Name)
		}
		if e.Row == nil {
			t.Errorf("%s: no row type", e.Name)
		}
		if n := e.Reps(Quick(1)); n <= 0 {
			t.Errorf("%s: %d reps at Quick scale", e.Name, n)
		}
	}
	if !reflect.DeepEqual(names, expectedExperiments) {
		t.Errorf("registry index drifted:\n got %v\nwant %v", names, expectedExperiments)
	}
}

func TestRegistryLookup(t *testing.T) {
	e, ok := Lookup("fig5")
	if !ok || e.Name != "fig5" {
		t.Fatalf("Lookup(fig5) = %+v, %v", e, ok)
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup invented an experiment")
	}
	if e.String() == "" || e.String()[:4] != "fig5" {
		t.Errorf("String() = %q", e.String())
	}
}

func TestRegisterRejectsBadExperiments(t *testing.T) {
	for _, e := range []Experiment{
		{},
		{Name: "x"},
		{Name: "fig5", Reps: fixed(1), Run: func(Options, int) ([]Row, error) { return nil, nil }}, // duplicate
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%+v) did not panic", e)
				}
			}()
			Register(e)
		}()
	}
}

// TestRepRunnerIndependence spot-checks the RepRunner contract the fleet
// scheduler relies on: running a rep twice, or out of order, produces
// identical rows.
func TestRepRunnerIndependence(t *testing.T) {
	opts := Quick(7)
	for _, name := range []string{"fig5", "keypoints", "mesh", "servers", "handover", "burstloss"} {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		n := e.Reps(opts)
		last := n - 1
		// Run the last rep first, then rep 0, then the last rep again.
		first, err := e.Run(opts, last)
		if err != nil {
			t.Fatalf("%s rep %d: %v", name, last, err)
		}
		if _, err := e.Run(opts, 0); err != nil {
			t.Fatalf("%s rep 0: %v", name, err)
		}
		again, err := e.Run(opts, last)
		if err != nil {
			t.Fatalf("%s rep %d again: %v", name, last, err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Errorf("%s: rep %d not reproducible across orderings", name, last)
		}
	}
}

// checkIndexParam asserts that decode maps every index 0..n-1 of the sweep
// parameter name to want(i) and rejects anything that is not an integer
// index into the list.
func checkIndexParam(t *testing.T, name string, n int, decode func(map[string]float64) (any, error), want func(i int) any) {
	t.Helper()
	for i := 0; i < n; i++ {
		got, err := decode(map[string]float64{name: float64(i)})
		if err != nil || got != want(i) {
			t.Errorf("%s=%d -> (%v, %v), want %v", name, i, got, err, want(i))
		}
	}
	for _, bad := range []float64{-1, 0.5, float64(n), 99, math.NaN(), math.Inf(1)} {
		if _, err := decode(map[string]float64{name: bad}); err == nil {
			t.Errorf("%s=%g accepted", name, bad)
		}
	}
}

// TestIndexParam: the session target's index-valued parameters (apps,
// devices) decode through indexParam like the controller and strategy
// indices do (TestControllerFromParam, TestStrategyFromParam).
func TestIndexParam(t *testing.T) {
	apps, devs := vca.Apps(), vca.Devices()
	checkIndexParam(t, "app", len(apps), func(p map[string]float64) (any, error) {
		return indexParam("session", "app", p, apps)
	}, func(i int) any { return apps[i] })
	checkIndexParam(t, "peer_device", len(devs), func(p map[string]float64) (any, error) {
		return indexParam("session", "peer_device", p, devs)
	}, func(i int) any { return devs[i] })
	ctrls := ratecontrol.Kinds()
	// Within 1e-9 of an integer counts as that integer.
	if got, err := indexParam("ccrate", "controller", map[string]float64{"controller": 2 + 1e-12}, ctrls); err != nil || got != ctrls[2] {
		t.Errorf("controller=2+1e-12 -> (%q, %v), want %q", got, err, ctrls[2])
	}
}
