package simtime

import (
	"testing"
	"time"
)

func TestSiteInterning(t *testing.T) {
	s := NewScheduler()
	a := s.Site("netem.deliver")
	b := s.Site("vca/recovery.scan")
	if a == 0 || b == 0 || a == b {
		t.Fatalf("interned IDs not distinct and nonzero: %d, %d", a, b)
	}
	if got := s.Site("netem.deliver"); got != a {
		t.Errorf("re-interning returned %d, want %d", got, a)
	}
	if got := s.SiteName(a); got != "netem.deliver" {
		t.Errorf("SiteName(%d) = %q", a, got)
	}
	if got := s.SiteName(0); got != "" {
		t.Errorf("SiteName(0) = %q, want unlabeled", got)
	}
	if got := s.SiteName(SiteID(999)); got != "" {
		t.Errorf("SiteName(unissued) = %q, want \"\"", got)
	}
	if got := s.NumSites(); got != 3 { // "", netem.deliver, vca/recovery.scan
		t.Errorf("NumSites = %d, want 3", got)
	}
	// A fresh scheduler has interned nothing.
	if got := NewScheduler().NumSites(); got != 0 {
		t.Errorf("fresh NumSites = %d, want 0", got)
	}
}

// recordingProbe logs EventStart/EventEnd pairs for attribution tests.
type recordingProbe struct {
	starts []SiteID
	nows   []Time
	ends   []SiteID
	depth  int // current nesting; must never exceed 1
	maxDep int
}

func (p *recordingProbe) EventStart(site SiteID, now Time) {
	p.starts = append(p.starts, site)
	p.nows = append(p.nows, now)
	p.depth++
	if p.depth > p.maxDep {
		p.maxDep = p.depth
	}
}

func (p *recordingProbe) EventEnd(site SiteID) {
	p.ends = append(p.ends, site)
	p.depth--
}

// TestProbeAttribution: labeled events report their site, unlabeled ones
// report site 0, the probe sees the event's own timestamp, and start/end
// calls are strictly paired and never nested — even when a callback
// schedules further events.
func TestProbeAttribution(t *testing.T) {
	s := NewScheduler()
	site := s.Site("test.site")
	p := &recordingProbe{}
	s.SetProbe(p)

	s.At(10, site, func() {
		// Scheduling from inside a probed callback must not re-enter the
		// probe until this callback has returned.
		s.At(s.Now().Add(5), site, func() {})
	})
	s.At(20, 0, func() {})
	s.AtArg(30, site, func(any) {}, nil)
	s.Run()

	wantStarts := []SiteID{site, site, 0, site}
	if len(p.starts) != len(wantStarts) {
		t.Fatalf("starts = %v, want %v", p.starts, wantStarts)
	}
	for i, w := range wantStarts {
		if p.starts[i] != w {
			t.Errorf("starts[%d] = %d, want %d", i, p.starts[i], w)
		}
		if p.ends[i] != w {
			t.Errorf("ends[%d] = %d, want %d", i, p.ends[i], w)
		}
	}
	wantNows := []Time{10, 15, 20, 30}
	for i, w := range wantNows {
		if p.nows[i] != w {
			t.Errorf("nows[%d] = %v, want %v", i, p.nows[i], w)
		}
	}
	if p.maxDep != 1 {
		t.Errorf("probe calls nested to depth %d, want 1", p.maxDep)
	}
	if p.depth != 0 {
		t.Errorf("unbalanced probe: depth %d after drain", p.depth)
	}
}

// TestTickerSiteAttribution: every tick of a sited ticker carries its site,
// including reschedules.
func TestTickerSiteAttribution(t *testing.T) {
	s := NewScheduler()
	site := s.Site("test.tick")
	p := &recordingProbe{}
	s.SetProbe(p)
	tk := NewTicker(s, 10*time.Nanosecond, site, func(Time) {})
	s.RunUntil(35)
	tk.Stop()
	if len(p.starts) != 3 {
		t.Fatalf("ticks = %d, want 3", len(p.starts))
	}
	for i, st := range p.starts {
		if st != site {
			t.Errorf("tick %d attributed to site %d, want %d", i, st, site)
		}
	}
}

// TestNilProbeDispatchAllocs pins the inertness contract: with no probe
// installed, the steady-state dispatch path (schedule a pooled-node event
// with a package-level callback, pop and run it) allocates nothing — site
// labels ride along for free.
func TestNilProbeDispatchAllocs(t *testing.T) {
	s := NewScheduler()
	site := s.Site("test.hot")
	var arg struct{ n int }
	// Warm the node pool and the heap's backing array.
	s.AtArg(s.Now().Add(1), site, nopArg, &arg)
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		s.AtArg(s.Now().Add(1), site, nopArg, &arg)
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("nil-probe dispatch allocates %.1f/op, want 0", allocs)
	}
}

func nopArg(any) {}

// TestTickerStopDuringFire: a ticker stopped from inside its own callback
// finishes that tick and never fires again.
func TestTickerStopDuringFire(t *testing.T) {
	s := NewScheduler()
	fires := 0
	var tk *Ticker
	tk = NewTicker(s, 10*time.Nanosecond, 0, func(Time) {
		fires++
		if fires == 2 {
			tk.Stop()
		}
	})
	s.RunUntil(200)
	if fires != 2 {
		t.Errorf("ticker fired %d times after in-callback Stop, want 2", fires)
	}
	if got := s.Pending(); got != 0 {
		t.Errorf("%d events still pending after stop", got)
	}
}

// TestTickerReentrantNew: creating a ticker from inside another ticker's
// callback only enqueues it; the child's first tick fires one child
// interval later, interleaved deterministically with the parent.
func TestTickerReentrantNew(t *testing.T) {
	s := NewScheduler()
	var parentTicks, childTicks []Time
	var child *Ticker
	parent := NewTicker(s, 10*time.Nanosecond, 0, func(now Time) {
		parentTicks = append(parentTicks, now)
		if child == nil {
			child = NewTicker(s, 4*time.Nanosecond, 0, func(now Time) {
				childTicks = append(childTicks, now)
			})
		}
	})
	s.RunUntil(30)
	parent.Stop()
	child.Stop()
	wantParent := []Time{10, 20, 30}
	wantChild := []Time{14, 18, 22, 26, 30}
	if len(parentTicks) != len(wantParent) {
		t.Fatalf("parent ticks = %v, want %v", parentTicks, wantParent)
	}
	for i := range wantParent {
		if parentTicks[i] != wantParent[i] {
			t.Fatalf("parent ticks = %v, want %v", parentTicks, wantParent)
		}
	}
	if len(childTicks) != len(wantChild) {
		t.Fatalf("child ticks = %v, want %v", childTicks, wantChild)
	}
	for i := range wantChild {
		if childTicks[i] != wantChild[i] {
			t.Fatalf("child ticks = %v, want %v", childTicks, wantChild)
		}
	}
}

// TestTickerStopStop: Stop is idempotent, from outside or inside the
// callback, and a stopped ticker stays stopped across further Steps.
func TestTickerStopStop(t *testing.T) {
	s := NewScheduler()
	fires := 0
	tk := NewTicker(s, 10*time.Nanosecond, 0, func(Time) { fires++ })
	s.RunUntil(10)
	tk.Stop()
	tk.Stop() // second Stop: no-op, must not cancel a recycled node
	// Schedule unrelated work so the queue isn't empty; the ticker must not
	// resurrect.
	s.At(40, 0, func() {})
	s.RunUntil(100)
	if fires != 1 {
		t.Errorf("ticker fired %d times after double Stop, want 1", fires)
	}
}
