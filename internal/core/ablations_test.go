package core

import "testing"

func TestServerPolicyString(t *testing.T) {
	for p, want := range map[ServerPolicy]string{
		PolicyInitiator: "initiator-nearest", PolicyCentral: "central-US",
		PolicyGeoDistributed: "geo-distributed", ServerPolicy(9): "ServerPolicy(9)",
	} {
		if p.String() != want {
			t.Errorf("%d -> %q, want %q", int(p), p.String(), want)
		}
	}
}
