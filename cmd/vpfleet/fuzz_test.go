package main

import (
	"math"
	"strings"
	"testing"

	tp "telepresence"
)

// FuzzAxisSpec drives the sweep command's spec-parsing boundary: each line
// of spec is one -axis flag value for axisFlags.Set, and the collected
// axes go to SweepSpec.Validate against target. Neither may panic, and a
// spec Validate accepts holds only finite values.
func FuzzAxisSpec(f *testing.F) {
	f.Add("handover", "delay_ms=100,500,1000")
	f.Add("burstloss", "loss_bad=0.3\np_good_bad=0.01, 0.05")
	f.Add("ccrate", "controller=0,2\ncap_mbps=0x1p-1,1e2")
	f.Add("recovery", "strategy=nan")
	f.Add("handover", "delay_ms=+Inf")
	f.Add("handover", "delay_ms=1e400")
	f.Add("congestion", "floor_mbps=1\nfloor_mbps=2")
	f.Add("nosuch", "a=1")
	f.Add("handover", "=1,2")
	f.Fuzz(func(t *testing.T, target, spec string) {
		var axes axisFlags
		for _, flag := range strings.Split(spec, "\n") {
			if axes.Set(flag) != nil {
				return
			}
		}
		s := tp.SweepSpec{Target: target, Axes: axes}
		if s.Validate() != nil {
			return
		}
		for _, a := range s.Axes {
			for _, v := range a.Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted spec %q has non-finite %s value %v", spec, a.Name, v)
				}
			}
		}
	})
}
