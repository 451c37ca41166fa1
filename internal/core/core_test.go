package core

import (
	"testing"

	"telepresence/internal/simtime"
)

func TestOptionsNormalization(t *testing.T) {
	o, err := Options{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if o.SessionDuration <= 0 || o.Reps <= 0 {
		t.Error("normalization failed")
	}
	if Full(1).Reps < 5 {
		t.Error("Full() should use paper-scale reps")
	}
}

func TestOptionsRejectNegatives(t *testing.T) {
	// Negative values used to be silently replaced with defaults; they
	// must surface as errors now.
	if _, err := (Options{Reps: -1}).Normalize(); err == nil {
		t.Error("negative Reps not rejected")
	}
	if _, err := (Options{SessionDuration: -simtime.Second}).Normalize(); err == nil {
		t.Error("negative SessionDuration not rejected")
	}
	if err := (Options{Reps: -1}).Validate(); err == nil {
		t.Error("Validate passed negative Reps")
	}
	// Every unit propagates the error instead of running.
	bad := Options{Seed: 1, Reps: -3}
	for _, e := range Experiments() {
		if _, err := e.Run(bad, 0); err == nil {
			t.Errorf("experiment %s ignored invalid options", e.Name)
		}
	}
	for _, tgt := range SweepTargets() {
		if _, err := tgt.Run(bad, tgt.DefaultParams()); err == nil {
			t.Errorf("sweep target %s ignored invalid options", tgt.Name)
		}
	}
	// So do the aggregate runners, a sweep over no caps included.
	if _, err := MeshStreaming(bad); err == nil {
		t.Error("MeshStreaming ignored invalid options")
	}
	if _, err := KeypointStreaming(bad); err == nil {
		t.Error("KeypointStreaming ignored invalid options")
	}
	if _, err := Fig7(bad); err == nil {
		t.Error("Fig7 ignored invalid options")
	}
	if _, err := RemoteRenderAblation(bad); err == nil {
		t.Error("RemoteRenderAblation ignored invalid options")
	}
	if _, err := ViewportDeliveryAblation(bad); err == nil {
		t.Error("ViewportDeliveryAblation ignored invalid options")
	}
	if _, err := RateAdaptation(bad, nil); err == nil {
		t.Error("RateAdaptation ignored invalid options on empty sweep")
	}
}

// BenchmarkFig4Rep times one Figure 4 unit: 90 probe pairs, each on its own
// Split stream, ten RTT samples a pair.
func BenchmarkFig4Rep(b *testing.B) {
	b.ReportAllocs()
	opts := Quick(1)
	for i := 0; i < b.N; i++ {
		if _, err := fig4Rep(opts, i); err != nil {
			b.Fatal(err)
		}
	}
}
