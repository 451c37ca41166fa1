package capture

import (
	"math"
	"testing"

	"telepresence/internal/netem"
	"telepresence/internal/simrand"
	"telepresence/internal/simtime"
)

func runLink(t *testing.T, cfg netem.Config, sends int) (*Capture, *netem.Link) {
	t.Helper()
	s := simtime.NewScheduler()
	l := netem.NewLink(s, simrand.New(1), cfg)
	l.SetHandler(func(simtime.Time, netem.Frame) {})
	c := New("test")
	c.SetRetain(true)
	c.Attach(l)
	for i := 0; i < sends; i++ {
		l.Send(netem.Frame{Size: 1000, Payload: []byte{byte(i), 1, 2, 3}})
	}
	s.Run()
	return c, l
}

func TestCaptureRecordsBothDirections(t *testing.T) {
	c, _ := runLink(t, netem.Config{Name: "ap", DelayMs: 5}, 3)
	if c.Len() != 6 { // 3 ingress + 3 egress
		t.Fatalf("captured %d records, want 6", c.Len())
	}
	in, out := 0, 0
	for _, r := range c.Records() {
		switch r.Dir {
		case netem.Ingress:
			in++
		case netem.Egress:
			out++
		}
		if r.Link != "ap" {
			t.Errorf("record link %q", r.Link)
		}
		if r.Size != 1000 {
			t.Errorf("record size %d", r.Size)
		}
	}
	if in != 3 || out != 3 {
		t.Errorf("in/out = %d/%d", in, out)
	}
	if got := len(c.Egress()); got != 3 {
		t.Errorf("Egress() = %d records", got)
	}
}

func TestCaptureRecordsDrops(t *testing.T) {
	c, _ := runLink(t, netem.Config{Name: "lossy", LossProb: 1}, 5)
	dropped := c.Filter(func(r Record) bool { return r.Dir == netem.Dropped })
	if len(dropped) != 5 {
		t.Errorf("%d dropped records, want 5", len(dropped))
	}
	if len(c.Egress()) != 0 {
		t.Error("egress records on a fully lossy link")
	}
}

func TestCaptureTimestampsOrdered(t *testing.T) {
	c, _ := runLink(t, netem.Config{Name: "t", DelayMs: 2, RateBps: 1e6}, 10)
	recs := c.Egress()
	for i := 1; i < len(recs); i++ {
		if recs[i].At < recs[i-1].At {
			t.Fatalf("egress records out of order at %d", i)
		}
	}
}

func TestSnapLenTruncation(t *testing.T) {
	s := simtime.NewScheduler()
	l := netem.NewLink(s, simrand.New(2), netem.Config{Name: "big"})
	l.SetHandler(func(simtime.Time, netem.Frame) {})
	c := New("snap")
	c.SetRetain(true)
	c.Attach(l)
	big := make([]byte, 4000)
	for i := range big {
		big[i] = byte(i)
	}
	l.Send(netem.Frame{Payload: big})
	s.Run()
	for _, r := range c.Records() {
		if len(r.Payload) != SnapLen {
			t.Errorf("payload kept %d bytes, want %d", len(r.Payload), SnapLen)
		}
		if r.Size != 4000 {
			t.Errorf("size %d, want full 4000", r.Size)
		}
	}
}

func TestPayloadIsCopied(t *testing.T) {
	s := simtime.NewScheduler()
	l := netem.NewLink(s, simrand.New(3), netem.Config{Name: "copy"})
	l.SetHandler(func(simtime.Time, netem.Frame) {})
	c := New("c")
	c.SetRetain(true)
	c.Attach(l)
	buf := []byte{1, 2, 3, 4}
	l.Send(netem.Frame{Payload: buf})
	buf[0] = 99 // mutate after capture
	s.Run()
	if c.Records()[0].Payload[0] != 1 {
		t.Error("capture aliased the caller's buffer")
	}
}

func TestResetAndReuse(t *testing.T) {
	c, _ := runLink(t, netem.Config{Name: "r"}, 2)
	c.Reset()
	if c.Len() != 0 {
		t.Fatal("Reset left records")
	}
}

// streamLink drives traffic through a default (streaming) capture.
func streamLink(t *testing.T, classifier Classifier) (*Capture, *simtime.Scheduler, *netem.Link) {
	t.Helper()
	s := simtime.NewScheduler()
	l := netem.NewLink(s, simrand.New(4), netem.Config{Name: "ap", DelayMs: 1})
	l.SetHandler(func(simtime.Time, netem.Frame) {})
	c := New("stream")
	if classifier != nil {
		c.SetClassifier(classifier)
	}
	c.Attach(l)
	return c, s, l
}

func TestStreamingModeKeepsNoRecords(t *testing.T) {
	c, s, l := streamLink(t, nil)
	for i := 0; i < 100; i++ {
		l.Send(netem.Frame{Size: 500, Payload: []byte{1, 2, 3}})
	}
	s.Run()
	if len(c.Records()) != 0 {
		t.Errorf("streaming capture retained %d records", len(c.Records()))
	}
	if c.Len() != 200 { // 100 ingress + 100 egress counted, not stored
		t.Errorf("Len() = %d, want 200", c.Len())
	}
	a := c.Agg("ap")
	if a == nil || a.Frames[netem.Egress] != 100 || a.Bytes[netem.Egress] != 50000 {
		t.Fatalf("egress aggregate wrong: %+v", a)
	}
}

// TestStreamingThroughputMatchesRecordScan pins the online binning to what a
// scan of the records would compute: 1-second bins, first and last windows
// dropped.
func TestStreamingThroughputMatchesRecordScan(t *testing.T) {
	s := simtime.NewScheduler()
	l := netem.NewLink(s, simrand.New(5), netem.Config{Name: "tp"})
	l.SetHandler(func(simtime.Time, netem.Frame) {})
	c := New("tp")
	c.Attach(l)
	// 1250 bytes every 10 ms = 1 Mbps for 3.5 seconds.
	tk := simtime.NewTicker(s, 10*simtime.Millisecond, 0, func(simtime.Time) {
		l.Send(netem.Frame{Size: 1250, Payload: []byte{0x80}})
	})
	s.RunFor(3500 * simtime.Millisecond)
	tk.Stop()
	sm := c.EgressThroughputSample("tp")
	if sm.N() != 2 { // 4 bins minus first and last
		t.Fatalf("sample N = %d, want 2", sm.N())
	}
	for _, v := range sm.Values() {
		if math.Abs(v-1.0) > 0.02 {
			t.Errorf("bin = %.3f Mbps, want ~1.0", v)
		}
	}
}

func TestStreamingClassifierCounts(t *testing.T) {
	// Class 2 for payloads starting 0x80, class 1 otherwise.
	c, s, l := streamLink(t, func(p []byte) int {
		if p[0] == 0x80 {
			return 2
		}
		return 1
	})
	for i := 0; i < 10; i++ {
		l.Send(netem.Frame{Size: 100, Payload: []byte{0x80}})
	}
	for i := 0; i < 4; i++ {
		l.Send(netem.Frame{Size: 100, Payload: []byte{0x40}})
	}
	l.Send(netem.Frame{Size: 100}) // no payload: not classified
	s.Run()
	best, counts := c.DominantClass("ap")
	if best != 2 || counts[2] != 10 || counts[1] != 4 {
		t.Errorf("DominantClass = %d, counts %v", best, counts)
	}
}

// TestTapSteadyStateAllocs pins the streaming tap's allocation budget: the
// per-packet capture path must not allocate once the bin array exists.
func TestTapSteadyStateAllocs(t *testing.T) {
	c, s, l := streamLink(t, func([]byte) int { return 1 })
	payload := []byte{0x80, 1, 2, 3}
	l.Send(netem.Frame{Size: 100, Payload: payload}) // warm up bins
	s.Run()
	tap := c.TapFor("ap")
	now := s.Now()
	allocs := testing.AllocsPerRun(200, func() {
		tap(now, netem.Frame{Size: 100, Payload: payload}, netem.Egress)
		tap(now, netem.Frame{Size: 100, Payload: payload}, netem.Ingress)
	})
	if allocs > 0 {
		t.Errorf("streaming tap allocates %.1f per frame, want 0", allocs)
	}
}
