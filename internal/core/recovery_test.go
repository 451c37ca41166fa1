package core

import (
	"testing"

	"telepresence/internal/recovery"
)

func TestStrategyFromParam(t *testing.T) {
	strats := recovery.Kinds()
	checkIndexParam(t, "strategy", len(strats), func(p map[string]float64) (any, error) {
		return indexParam("recovery", "strategy", p, strats)
	}, func(i int) any { return strats[i] })
}

func TestRecRampCellParamValidation(t *testing.T) {
	opts := Quick(1)
	if _, err := recrampCell(opts, map[string]float64{"strategy": 3, "start_mbps": 1, "floor_mbps": 2}); err == nil {
		t.Error("floor above start accepted")
	}
	if _, err := recrampCell(opts, map[string]float64{"strategy": 3, "start_mbps": 4, "floor_mbps": 0}); err == nil {
		t.Error("zero floor accepted")
	}
}

// TestHybridRecoveryAcceptance is the subsystem's pinned acceptance bar: on
// the default Gilbert-Elliott burst grid, hybrid recovery must (a) keep the
// receiver strictly more available than no recovery at every cell, and (b)
// spend at most 20% of the rate target on proactive redundancy (parity).
// In -short mode only the middle (moderate-bursting) cell runs.
func TestHybridRecoveryAcceptance(t *testing.T) {
	opts := Quick(1)
	grid := burstLossGrid
	if testing.Short() {
		grid = grid[1:2]
	}
	hybridIdx := float64(3) // recovery.Kinds(): 0=none 1=nack 2=fec 3=hybrid
	for _, ge := range grid {
		params := mustSweep(t, "recovery").WithDefaults(ge)
		params["strategy"] = 0
		none, err := recoveryCell(opts, params)
		if err != nil {
			t.Fatal(err)
		}
		params["strategy"] = hybridIdx
		hybrid, err := recoveryCell(opts, params)
		if err != nil {
			t.Fatal(err)
		}
		if hybrid.UnavailableFrac >= none.UnavailableFrac {
			t.Errorf("cell %v: hybrid UnavailableFrac %.3f not strictly below no-recovery %.3f",
				ge, hybrid.UnavailableFrac, none.UnavailableFrac)
		}
		if hybrid.RedundancyFrac > 0.20 {
			t.Errorf("cell %v: parity overhead %.3f of the rate target exceeds the 20%% budget",
				ge, hybrid.RedundancyFrac)
		}
		if hybrid.RepairedFrac <= 0.5 {
			t.Errorf("cell %v: hybrid repaired only %.2f of detected losses", ge, hybrid.RepairedFrac)
		}
		if hybrid.DecodedFrac <= none.DecodedFrac {
			t.Errorf("cell %v: hybrid decoded %.3f not above no-recovery %.3f",
				ge, hybrid.DecodedFrac, none.DecodedFrac)
		}
		if none.RedundancyFrac != 0 || none.RtxFrac != 0 || none.RepairedFrac != 0 {
			t.Errorf("cell %v: no-recovery baseline shows recovery activity: %+v", ge, none)
		}
	}
}

func mustSweep(t *testing.T, name string) SweepTarget {
	t.Helper()
	target, ok := LookupSweep(name)
	if !ok {
		t.Fatalf("sweep target %q not registered", name)
	}
	return target
}

// TestRecoveryCellDeterminism: a cell's row is a pure function of
// (opts, params), the contract behind fleet sharding and sweep reshaping.
// The hybrid cell under moderate bursting must actually repair losses and
// record repair delays.
func TestRecoveryCellDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two 12 s sessions; skipped in -short")
	}
	params := mustSweep(t, "recovery").WithDefaults(map[string]float64{"strategy": 3})
	a, err := recoveryCell(Quick(7), params)
	if err != nil {
		t.Fatal(err)
	}
	b, err := recoveryCell(Quick(7), params)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same cell differs:\n a: %+v\n b: %+v", a, b)
	}
	if a.RepairedFrac == 0 || a.RtxDelayP95Ms == 0 {
		t.Errorf("hybrid cell repaired nothing: %+v", a)
	}
}

// TestRecRampRecoveryStaysInBudget: under the congestion ramp with gcc,
// hybrid recovery's total redundancy (parity + RTX per media byte) must
// stay within the charged overhead bound and not raise queue drops above
// the recovery-free closed loop.
func TestRecRampRecoveryStaysInBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("two 12 s sessions; skipped in -short")
	}
	opts := Quick(1)
	params := mustSweep(t, "recramp").WithDefaults(map[string]float64{"floor_mbps": 0.5})
	params["strategy"] = 0
	none, err := recrampCell(opts, params)
	if err != nil {
		t.Fatal(err)
	}
	params["strategy"] = 3
	hybrid, err := recrampCell(opts, params)
	if err != nil {
		t.Fatal(err)
	}
	if hybrid.OverheadFrac <= 0 {
		t.Error("hybrid rode the ramp without any redundancy")
	}
	// The overhead charge keeps the applied target below the raw grant, so
	// media + redundancy must not exceed the no-recovery achieved rate by
	// more than measurement slack.
	if hybrid.FloorAchievedMbps > none.FloorAchievedMbps*1.25+0.1 {
		t.Errorf("hybrid floor rate %.3f Mbps far above no-recovery %.3f: overhead not charged",
			hybrid.FloorAchievedMbps, none.FloorAchievedMbps)
	}
	if hybrid.UnavailableFrac > none.UnavailableFrac {
		t.Errorf("hybrid unavailability %.3f above no-recovery %.3f under the ramp",
			hybrid.UnavailableFrac, none.UnavailableFrac)
	}
}
