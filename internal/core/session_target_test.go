package core

import (
	"fmt"
	"reflect"
	"testing"

	"telepresence/internal/vca"
)

// TestSessionCell: a session cell emits one row per user, in user order,
// reproducibly, and the plan columns follow the §4.1 matrix: an
// all-Vision-Pro FaceTime call is a spatial persona over a server, and a
// MacBook peer turns it into P2P 2D video.
func TestSessionCell(t *testing.T) {
	target, ok := LookupSweep("session")
	if !ok {
		t.Fatal("session not registered")
	}
	opts := Quick(1)
	params := target.WithDefaults(map[string]float64{"users": 3, "cap_mbps": 0.7, "duration_s": 3})
	rows, err := target.Run(opts, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	for i, r := range rows {
		row := r.(SessionRow)
		if want := fmt.Sprintf("u%d", i+1); row.User != want {
			t.Errorf("row %d is user %q, want %q", i, row.User, want)
		}
		if row.App != vca.FaceTime.String() || row.Media != vca.MediaSpatialPersona.String() || row.Topology == "P2P" {
			t.Errorf("row %d plan %s/%s/%s, want a server-relayed FaceTime spatial persona", i, row.App, row.Media, row.Topology)
		}
		if row.FramesSent == 0 {
			t.Errorf("row %d sent no frames", i)
		}
	}
	again, err := target.Run(opts, params)
	if err != nil || !reflect.DeepEqual(rows, again) {
		t.Errorf("session cell not reproducible (%v)", err)
	}

	rows, err = target.Run(opts, target.WithDefaults(map[string]float64{"peer_device": 1, "duration_s": 2}))
	if err != nil {
		t.Fatal(err)
	}
	if row := rows[0].(SessionRow); len(rows) != 2 || row.Media != vca.Media2DVideo.String() || row.Topology != "P2P" {
		t.Errorf("MacBook peer: %d rows, first %+v; want two P2P 2D-video rows", len(rows), row)
	}
}

func TestSessionCellParamValidation(t *testing.T) {
	target, _ := LookupSweep("session")
	for _, bad := range []map[string]float64{
		{"users": 1}, {"users": 6}, {"users": 2.5},
		{"app": 4}, {"peer_device": -1},
		{"cap_mbps": -1}, {"delay_ms": -5},
		{"duration_s": 0}, {"duration_s": 1e300},
	} {
		if _, err := target.Run(Quick(1), target.WithDefaults(bad)); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}
