package geo

import (
	"math"
	"testing"
	"testing/quick"

	"telepresence/internal/simrand"
)

func TestDistanceKnownPairs(t *testing.T) {
	cases := []struct {
		a, b     Location
		wantKm   float64
		tolerate float64
	}{
		{NewYork, LosAngeles, 3936, 60},
		{Seattle, Miami, 4400, 80},
		{SanFrancisco, ServerCA, 60, 40},
		{London, Singapore, 10850, 150},
	}
	for _, c := range cases {
		got := DistanceKm(c.a, c.b)
		if math.Abs(got-c.wantKm) > c.tolerate {
			t.Errorf("Distance(%v,%v) = %.0f km, want ~%.0f", c.a, c.b, got, c.wantKm)
		}
	}
}

func TestDistanceProperties(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Location{"a", math.Mod(lat1, 90), math.Mod(lon1, 180)}
		b := Location{"b", math.Mod(lat2, 90), math.Mod(lon2, 180)}
		dab, dba := DistanceKm(a, b), DistanceKm(b, a)
		if math.Abs(dab-dba) > 1e-6 { // symmetry
			return false
		}
		if dab < 0 || dab > 20016 { // bounded by half circumference
			return false
		}
		return DistanceKm(a, a) < 1e-6 // identity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestVantagePoints(t *testing.T) {
	vps := VantagePoints()
	if len(vps) != 9 {
		t.Fatalf("got %d vantage points, want 9 (paper §4.1)", len(vps))
	}
	// Three longitudinal bands: west of -110, between, east of -85.
	var w, m, e int
	for _, v := range vps {
		switch {
		case v.Lon < -110:
			w++
		case v.Lon < -85:
			m++
		default:
			e++
		}
	}
	if w != 3 || m != 3 || e != 3 {
		t.Errorf("band split w/m/e = %d/%d/%d, want 3/3/3", w, m, e)
	}
}

func TestBaseRTTCoastToCoast(t *testing.T) {
	m := DefaultPathModel()
	// Paper: RTT >80 ms when users are on the coast opposite the server.
	if rtt := m.BaseRTTMs(NewYork, ServerCA); rtt < 80 {
		t.Errorf("NY->CA base RTT = %.1f ms, want >80 (paper Fig.4)", rtt)
	}
	// Same-metro RTT should be small.
	if rtt := m.BaseRTTMs(Chicago, ServerIL); rtt > 15 {
		t.Errorf("Chicago->IL base RTT = %.1f ms, want <15", rtt)
	}
	// Mid-US server keeps both coasts under ~70 ms (paper Fig.4 TX/IL).
	for _, vp := range VantagePoints() {
		if rtt := m.BaseRTTMs(vp, ServerTX); rtt > 70 {
			t.Errorf("%v->TX base RTT = %.1f ms, want <70", vp, rtt)
		}
	}
}

func TestEuropeAsiaOneWayExceeds100ms(t *testing.T) {
	// Implications 1: one-way propagation Europe-Asia may already exceed
	// 100 ms.
	m := DefaultPathModel()
	oneWay := m.BaseRTTMs(Frankfurt, Singapore) / 2
	if oneWay < 80 {
		t.Errorf("Frankfurt->Singapore one-way = %.1f ms, want >80", oneWay)
	}
}

func TestSampleRTTJitterPositive(t *testing.T) {
	m := DefaultPathModel()
	rng := simrand.New(1)
	base := m.BaseRTTMs(Denver, ServerTX)
	for i := 0; i < 1000; i++ {
		s := base + m.JitterMs(rng)
		if s <= base {
			t.Fatalf("sampled RTT %.2f <= base %.2f (jitter must be positive)", s, base)
		}
	}
}

func TestMinRTTIsLowerBound(t *testing.T) {
	m := DefaultPathModel()
	rng := simrand.New(2)
	pairs := [][2]Location{{Seattle, ServerVA}, {Miami, ServerCA}, {Austin, ServerIL}}
	for _, p := range pairs {
		min := MinRTTMs(p[0], p[1])
		base := m.BaseRTTMs(p[0], p[1])
		for i := 0; i < 100; i++ {
			if got := base + m.JitterMs(rng); got < min {
				t.Fatalf("sampled RTT %.2f beats speed of light %.2f for %v->%v",
					got, min, p[0], p[1])
			}
		}
	}
}

func TestNearest(t *testing.T) {
	servers := []Location{ServerCA, ServerTX, ServerIL, ServerVA}
	got, _ := Nearest(NewYork, servers)
	if got.Name != "VA" {
		t.Errorf("Nearest(NY) = %v, want VA", got)
	}
	got, _ = Nearest(SanFrancisco, servers)
	if got.Name != "CA" {
		t.Errorf("Nearest(SF) = %v, want CA", got)
	}
	got, _ = Nearest(Chicago, servers)
	if got.Name != "IL" {
		t.Errorf("Nearest(Chicago) = %v, want IL", got)
	}
}

func TestNearestEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Nearest with no candidates did not panic")
		}
	}()
	Nearest(NewYork, nil)
}

func TestValidate(t *testing.T) {
	if err := DefaultPathModel().Validate(); err != nil {
		t.Errorf("default model invalid: %v", err)
	}
	bad := PathModel{Inflation: 0.5}
	if err := bad.Validate(); err == nil {
		t.Error("inflation < 1 accepted")
	}
	bad2 := PathModel{Inflation: 1.5, AccessMs: -1}
	if err := bad2.Validate(); err == nil {
		t.Error("negative access delay accepted")
	}
}
