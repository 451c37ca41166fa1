package ratecontrol

import (
	"slices"
	"testing"

	"telepresence/internal/rtp"
)

// fb builds one feedback observation with the fields controllers read.
func fb(atMs, owdMs, rateBps, fracLost float64) Feedback {
	return Feedback{AtMs: atMs, Report: rtp.ReceiverReport{
		MeanOwdMs: owdMs, RecvRateBps: rateBps, FractionLost: fracLost,
		IntervalMs: 100,
	}}
}

func TestKindsAndNew(t *testing.T) {
	for _, kind := range Kinds() {
		c, err := New(kind, Config{InitialBps: 1e6})
		if err != nil {
			t.Fatalf("New(%q): %v", kind, err)
		}
		if c.Name() != kind {
			t.Errorf("New(%q).Name() = %q", kind, c.Name())
		}
		if got := c.TargetBps(); got != 1e6 {
			t.Errorf("%s initial target = %v, want 1e6", kind, got)
		}
	}
	if _, err := New("bogus", Config{}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestConfigDefaultsAndClamp(t *testing.T) {
	c, err := New("fixed", Config{InitialBps: 1e9, MaxBps: 2e6})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.TargetBps(); got != 2e6 {
		t.Errorf("initial target not clamped to MaxBps: %v", got)
	}
	c, _ = New("fixed", Config{InitialBps: 1, MinBps: 3e5})
	if got := c.TargetBps(); got != 3e5 {
		t.Errorf("initial target not clamped to MinBps: %v", got)
	}
}

func TestFixedIgnoresFeedback(t *testing.T) {
	c, _ := New("fixed", Config{InitialBps: 2e6})
	for i := 0; i < 50; i++ {
		c.OnFeedback(fb(float64(i*100), 500, 1e5, 0.5))
	}
	if got := c.TargetBps(); got != 2e6 {
		t.Errorf("fixed target moved to %v", got)
	}
}

func TestLossAIMD(t *testing.T) {
	c, _ := New("loss", Config{InitialBps: 1e6, MaxBps: 2e6})
	// Clean intervals: additive growth.
	for i := 1; i <= 10; i++ {
		c.OnFeedback(fb(float64(i*100), 20, 1e6, 0))
	}
	grown := c.TargetBps()
	if grown <= 1e6 {
		t.Errorf("no additive increase under clean feedback: %v", grown)
	}
	// Heavy loss: multiplicative backoff (rate-limited to one per gap).
	c.OnFeedback(fb(1100, 20, 1e6, 0.4))
	afterCut := c.TargetBps()
	if want := grown * (1 - 0.5*0.4); afterCut != want {
		t.Errorf("backoff target = %v, want %v", afterCut, want)
	}
	// A second loss report inside the backoff gap must not cut again.
	c.OnFeedback(fb(1200, 20, 1e6, 0.4))
	if got := c.TargetBps(); got != afterCut {
		t.Errorf("second cut inside gap: %v -> %v", afterCut, got)
	}
	// Moderate loss between the thresholds: hold.
	c.OnFeedback(fb(1600, 20, 1e6, 0.05))
	if got := c.TargetBps(); got != afterCut {
		t.Errorf("hold band moved the target: %v", got)
	}
}

// TestBackoffGapIgnoresArrivalJitter: every report covers 100 ms and
// signals overuse, but reaches the sender 0.3 ms late or early in turn.
// The backoff gap is counted in report coverage, so both controllers cut
// on every third report; measured between arrivals, the gap from a late
// report to an early one is 299.4 ms and the cut waited a fourth report.
func TestBackoffGapIgnoresArrivalJitter(t *testing.T) {
	for _, kind := range []string{"loss", "gcc"} {
		c, _ := New(kind, Config{InitialBps: 2e6})
		var cuts []int
		for i := 1; i <= 13; i++ {
			jitter := 0.3
			if i%2 == 0 {
				jitter = -0.3
			}
			c.OnFeedback(fb(float64(i*100)+jitter, 30, 1e6, 0.4))
			if c.(interface{ LastReason() string }).LastReason() == ReasonBackoffLoss {
				cuts = append(cuts, i)
			}
		}
		if want := []int{1, 4, 7, 10, 13}; !slices.Equal(cuts, want) {
			t.Errorf("%s: backoffs at reports %v, want %v", kind, cuts, want)
		}
	}
}

func TestDelayGradientBacksOffOnRisingOwd(t *testing.T) {
	c, _ := New("gcc", Config{InitialBps: 2e6, MaxBps: 2e6})
	// OWD climbing 100 ms/s at a measured receive rate of 1 Mbps: the
	// trendline must detect overuse and back off toward Beta x 1 Mbps.
	for i := 1; i <= 20; i++ {
		c.OnFeedback(fb(float64(i*100), 30+10*float64(i), 1e6, 0))
	}
	got := c.TargetBps()
	if got > 1e6 {
		t.Errorf("target %v still above the 1 Mbps bottleneck", got)
	}
	if got < 0.5e6 {
		t.Errorf("target %v collapsed below a single backoff", got)
	}
}

func TestDelayGradientGrowsOnFlatOwd(t *testing.T) {
	c, _ := New("gcc", Config{InitialBps: 1e6, MaxBps: 4e6})
	// Flat OWD, receive rate tracking the target: steady growth.
	for i := 1; i <= 100; i++ {
		c.OnFeedback(fb(float64(i*100), 30, c.TargetBps(), 0))
	}
	if got := c.TargetBps(); got < 1.5e6 {
		t.Errorf("target %v did not grow under a clear path", got)
	}
}

func TestDelayGradientIncreaseCappedByRecvRate(t *testing.T) {
	c, _ := New("gcc", Config{InitialBps: 1e6, MaxBps: 10e6})
	// App-limited: receive rate pinned at 1 Mbps. The target must not run
	// past 1.5x what actually flows.
	for i := 1; i <= 200; i++ {
		c.OnFeedback(fb(float64(i*100), 30, 1e6, 0))
	}
	if got := c.TargetBps(); got > 1.5e6 {
		t.Errorf("app-limited target ran away to %v", got)
	}
}

func TestDelayGradientStandingQueueGuard(t *testing.T) {
	c, _ := New("gcc", Config{InitialBps: 2e6})
	// Establish a 30 ms baseline, then jump to a flat 200 ms standing
	// queue: the slope is ~0 after the jump, but the queue guard must cut.
	for i := 1; i <= 5; i++ {
		c.OnFeedback(fb(float64(i*100), 30, 2e6, 0))
	}
	for i := 6; i <= 12; i++ {
		c.OnFeedback(fb(float64(i*100), 200, 1e6, 0))
	}
	if got := c.TargetBps(); got > 0.9e6 {
		t.Errorf("standing queue not detected: target %v", got)
	}
}

func TestDelayGradientStarvation(t *testing.T) {
	c, _ := New("gcc", Config{InitialBps: 2e6, MinBps: 2e5})
	c.OnFeedback(fb(100, 30, 2e6, 0))
	// Two consecutive empty intervals halve the target.
	c.OnFeedback(Feedback{AtMs: 200, Report: rtp.ReceiverReport{IntervalMs: 100}})
	c.OnFeedback(Feedback{AtMs: 300, Report: rtp.ReceiverReport{IntervalMs: 100}})
	if got := c.TargetBps(); got >= 2e6 {
		t.Errorf("starved path did not back off: %v", got)
	}
}

func TestDelayGradientDeterminism(t *testing.T) {
	run := func() []float64 {
		c, _ := New("gcc", Config{InitialBps: 2e6})
		var out []float64
		for i := 1; i <= 50; i++ {
			owd := 30.0
			if i > 20 {
				owd = 30 + 20*float64(i-20)
			}
			c.OnFeedback(fb(float64(i*100), owd, 1.2e6, 0))
			out = append(out, c.TargetBps())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("target sequence diverges at step %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTrendSlope(t *testing.T) {
	if s := trendSlope([]float64{0, 1, 2, 3}, []float64{10, 20, 30, 40}); s < 9.99 || s > 10.01 {
		t.Errorf("slope = %v, want 10", s)
	}
	if s := trendSlope([]float64{1}, []float64{5}); s != 0 {
		t.Errorf("degenerate slope = %v, want 0", s)
	}
	if s := trendSlope([]float64{2, 2, 2}, []float64{1, 2, 3}); s != 0 {
		t.Errorf("zero-variance slope = %v, want 0", s)
	}
}

func TestApplyOverhead(t *testing.T) {
	if got := ApplyOverhead(1e6, 0, 0); got != 1e6 {
		t.Errorf("zero overhead changed the target: %v", got)
	}
	if got := ApplyOverhead(1.2e6, 0.2, 0); got != 1e6 {
		t.Errorf("20%% overhead: %v, want 1e6", got)
	}
	// Media (target/(1+r)) plus redundancy (r x media) equals the grant.
	media := ApplyOverhead(2e6, 0.15, 0)
	if total := media * 1.15; total < 2e6*0.999 || total > 2e6*1.001 {
		t.Errorf("media+redundancy = %v, want 2e6", total)
	}
	if got := ApplyOverhead(1e6, 9, 300e3); got != 300e3 {
		t.Errorf("floor not applied: %v", got)
	}
	if got := ApplyOverhead(1e6, -1, 0); got != 1e6 {
		t.Errorf("negative ratio changed the target: %v", got)
	}
}
