package core

import (
	"testing"

	"telepresence/internal/ratecontrol"
)

func TestControllerFromParam(t *testing.T) {
	ctrls := ratecontrol.Kinds()
	checkIndexParam(t, "controller", len(ctrls), func(p map[string]float64) (any, error) {
		return indexParam("ccrate", "controller", p, ctrls)
	}, func(i int) any { return ctrls[i] })
}

func TestCCCellParamValidation(t *testing.T) {
	opts := Quick(1)
	if _, err := ccrateCell(opts, map[string]float64{"controller": 2, "cap_mbps": -1}); err == nil {
		t.Error("negative cap accepted")
	}
	if _, err := ccrampCell(opts, map[string]float64{"controller": 2, "start_mbps": 1, "floor_mbps": 2}); err == nil {
		t.Error("floor above start accepted")
	}
	if _, err := ccrampCell(opts, map[string]float64{"controller": 2, "start_mbps": 4, "floor_mbps": 0}); err == nil {
		t.Error("zero floor accepted")
	}
}

// TestCCRampClosedLoopBeatsOpenLoop is the subsystem's acceptance bar:
// under the congestion-ramp schedule, at every floor of the default grid,
// the delay-gradient controller must (a) keep the receiver's persona
// strictly more available than the open-loop baseline, and (b) track the
// ramp's floor — achieved rate within one AIMD backoff below the floor
// cap, and not above what the cap plus the pre-ramp drain can deliver.
func TestCCRampClosedLoopBeatsOpenLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("six 12 s 720p sessions; skipped in -short")
	}
	opts := Quick(1)
	gccIdx := float64(2) // ratecontrol.Kinds(): 0=fixed, 1=loss, 2=gcc
	for _, floor := range DefaultCongestionFloorsMbps() {
		params := map[string]float64{"start_mbps": 4, "floor_mbps": floor}
		params["controller"] = 0
		open, err := ccrampCell(opts, params)
		if err != nil {
			t.Fatal(err)
		}
		params["controller"] = gccIdx
		closed, err := ccrampCell(opts, params)
		if err != nil {
			t.Fatal(err)
		}
		if closed.UnavailableFrac >= open.UnavailableFrac {
			t.Errorf("floor %g: gcc UnavailableFrac %.3f not strictly below open loop %.3f",
				floor, closed.UnavailableFrac, open.UnavailableFrac)
		}
		// Achieved rate at the floor: within one multiplicative backoff
		// (beta = 0.85) below the cap; the upper slack covers the backlog
		// serialized at pre-ramp rates still draining into the window.
		if lo, hi := 0.85*floor, floor+0.15; closed.FloorAchievedMbps < lo || closed.FloorAchievedMbps > hi {
			t.Errorf("floor %g: gcc achieved %.3f Mbps outside [%.3f, %.3f]",
				floor, closed.FloorAchievedMbps, lo, hi)
		}
		if closed.QueueDropFrac > open.QueueDropFrac {
			t.Errorf("floor %g: gcc queue drops %.3f above open loop %.3f",
				floor, closed.QueueDropFrac, open.QueueDropFrac)
		}
		if closed.DecodedFrac <= open.DecodedFrac {
			t.Errorf("floor %g: gcc decoded %.3f not above open loop %.3f",
				floor, closed.DecodedFrac, open.DecodedFrac)
		}
	}
}

// TestCCRateCellDeterminism: a cell's row is a pure function of
// (opts, params) — the contract that makes ccrate shardable across fleet
// workers and reshape-stable in sweep grids.
func TestCCRateCellDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two 12 s sessions; skipped in -short")
	}
	params := map[string]float64{"controller": 2, "cap_mbps": 0.9}
	a, err := ccrateCell(Quick(7), params)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ccrateCell(Quick(7), params)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same cell differs:\n a: %+v\n b: %+v", a, b)
	}
	// The closed loop must actually have engaged in this cell.
	if a.MeanTargetMbps >= 1.4 || a.QueueDropFrac != 0 {
		t.Errorf("gcc cell did not adapt: %+v", a)
	}
}
