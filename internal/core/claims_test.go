package core_test

import (
	"bytes"
	"runtime"
	"testing"

	"telepresence/internal/claims"
	"telepresence/internal/core"
	"telepresence/internal/fleet"
)

// checkClaims runs the named registry experiments at Quick(3) on one
// worker per CPU and checks every claims-table entry that reads only
// them. Seed 3 is not the golden seed, so no band narrows to the rows
// fleet.TestPaperClaimsGolden already checks.
func checkClaims(t *testing.T, names ...string) {
	t.Helper()
	exps, err := fleet.Select(names...)
	if err != nil {
		t.Fatal(err)
	}
	bufs := map[string]*bytes.Buffer{}
	_, err = fleet.RunStream(exps, core.Quick(3), fleet.Config{Workers: runtime.GOMAXPROCS(0)},
		func(e core.Experiment) (fleet.Sink, error) {
			bufs[e.Name] = &bytes.Buffer{}
			return fleet.NewJSONLSink(bufs[e.Name]), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	rows := claims.Rows{}
	for name, b := range bufs {
		if rows[name], err = claims.Parse(b); err != nil {
			t.Fatal(err)
		}
	}
	checked := 0
	for _, r := range claims.Evaluate(rows) {
		switch r.Status {
		case claims.NotRun:
			continue
		case claims.Fail:
			t.Errorf("%v", r)
		default:
			t.Logf("%v", r)
		}
		checked++
	}
	if checked == 0 {
		t.Fatalf("no claims entry reads only %v", names)
	}
}

func TestFig4RowsAndFindings(t *testing.T)      { checkClaims(t, "fig4") }
func TestAnycastAuditAllUnicast(t *testing.T)   { checkClaims(t, "anycast") }
func TestProtocolMatrix(t *testing.T)           { checkClaims(t, "protocols") }
func TestFig5Ordering(t *testing.T)             { checkClaims(t, "fig5") }
func TestMeshVsKeypointGap(t *testing.T)        { checkClaims(t, "mesh", "keypoints") }
func TestDisplayLatencyInvariance(t *testing.T) { checkClaims(t, "latency") }
func TestFig6InvariantBandwidth(t *testing.T)   { checkClaims(t, "fig6") }
func TestFig7Shape(t *testing.T)                { checkClaims(t, "fig7") }
func TestRateAdaptationSweep(t *testing.T)      { checkClaims(t, "rate") }
func TestRemoteRenderAblation(t *testing.T)     { checkClaims(t, "remote") }
func TestMultiServerAblation(t *testing.T)      { checkClaims(t, "servers") }
func TestViewportDeliveryAblation(t *testing.T) { checkClaims(t, "viewport") }
func TestPassiveQoESweep(t *testing.T)          { checkClaims(t, "qoe") }
