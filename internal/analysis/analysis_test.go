package analysis

import (
	"math"
	"testing"

	"telepresence/internal/capture"
	"telepresence/internal/netem"
	"telepresence/internal/quic"
	"telepresence/internal/rtp"
	"telepresence/internal/simrand"
	"telepresence/internal/simtime"
)

func TestClassify(t *testing.T) {
	rtpPkt := (&rtp.Header{PayloadType: rtp.PTGenericVideo, Seq: 1}).Marshal(nil)
	if Classify(rtpPkt) != ProtoRTP {
		t.Error("RTP not classified")
	}
	quicLong := append([]byte{0xC0, 0, 0, 0, 1}, make([]byte, 20)...)
	if Classify(quicLong) != ProtoQUIC {
		t.Error("QUIC long header not classified")
	}
	if Classify([]byte{0x00, 0x01}) != ProtoUnknown {
		t.Error("garbage classified")
	}
	if Classify(nil) != ProtoUnknown {
		t.Error("nil classified")
	}
}

func TestProtocolString(t *testing.T) {
	if ProtoQUIC.String() != "QUIC" || ProtoRTP.String() != "RTP" || ProtoUnknown.String() != "unknown" {
		t.Error("protocol strings wrong")
	}
}

func mkRecords(times []simtime.Time, sizes []int) []capture.Record {
	out := make([]capture.Record, len(times))
	for i := range times {
		out[i] = capture.Record{At: times[i], Size: sizes[i], Link: "l", Dir: netem.Egress}
	}
	return out
}

func TestThroughputSeries(t *testing.T) {
	// 1250 bytes every 10 ms = 1 Mbps.
	var times []simtime.Time
	var sizes []int
	for i := 0; i < 300; i++ {
		times = append(times, simtime.Time(i*10*int(simtime.Millisecond)))
		sizes = append(sizes, 1250)
	}
	series := ThroughputSeries(mkRecords(times, sizes), simtime.Second)
	if len(series) != 3 {
		t.Fatalf("%d bins, want 3", len(series))
	}
	for i, mbps := range series {
		if math.Abs(mbps-1.0) > 0.02 {
			t.Errorf("bin %d = %.3f Mbps, want 1.0", i, mbps)
		}
	}
}

func TestThroughputSeriesEmpty(t *testing.T) {
	if ThroughputSeries(nil, simtime.Second) != nil {
		t.Error("empty capture should yield nil series")
	}
	if ThroughputSeries(mkRecords([]simtime.Time{1}, []int{1}), 0) != nil {
		t.Error("zero bin should yield nil")
	}
}

func TestMeanMbps(t *testing.T) {
	// 10 MB over 10 seconds = 8 Mbps.
	recs := mkRecords(
		[]simtime.Time{0, simtime.Time(10 * simtime.Second)},
		[]int{5_000_000, 5_000_000},
	)
	if got := MeanMbps(recs); math.Abs(got-8) > 0.01 {
		t.Errorf("MeanMbps = %v, want 8", got)
	}
	if MeanMbps(nil) != 0 {
		t.Error("empty capture mean should be 0")
	}
}

func TestInterarrival(t *testing.T) {
	recs := mkRecords(
		[]simtime.Time{0, simtime.Time(10 * simtime.Millisecond), simtime.Time(30 * simtime.Millisecond)},
		[]int{1, 1, 1},
	)
	s := InterarrivalMs(recs)
	if s.N() != 2 {
		t.Fatalf("N = %d, want 2", s.N())
	}
	if s.Mean() != 15 {
		t.Errorf("mean gap = %v ms, want 15", s.Mean())
	}
}

// End-to-end: capture real QUIC traffic off a netem link and verify the
// paper's methodology identifies it and measures its rate.
func TestCaptureClassifyAndMeasureQUIC(t *testing.T) {
	s := simtime.NewScheduler()
	p := netem.NewPipe(s, simrand.New(1), netem.Config{Name: "ap", DelayMs: 5})
	client := quic.NewConn(s, p.AB, quic.Config{ConnID: 1, Key: 3, IsClient: true})
	server := quic.NewConn(s, p.BA, quic.Config{ConnID: 2, Key: 3})
	p.AB.SetHandler(server.Deliver)
	p.BA.SetHandler(client.Deliver)

	cap := capture.New("ap")
	cap.SetRetain(true) // this test runs record-level analysis
	cap.Attach(p.AB)

	server.OnMessage(func(quic.Message) {})
	// 900 bytes every 11.1 ms (90 FPS) for 2 seconds ~ 0.65 Mbps.
	tick := simtime.Second / 90
	var ticker *simtime.Ticker
	ticker = simtime.NewTicker(s, tick, 0, func(now simtime.Time) {
		client.SendMessage(make([]byte, 900))
		if now > simtime.Time(2*simtime.Second) {
			ticker.Stop()
		}
	})
	s.RunFor(3 * simtime.Second)

	egress := cap.Egress()
	if len(egress) == 0 {
		t.Fatal("nothing captured")
	}
	proto, counts := ClassifyCapture(egress)
	if proto != ProtoQUIC {
		t.Fatalf("classified as %v (counts %v), want QUIC", proto, counts)
	}
	mbps := MeanMbps(egress)
	if mbps < 0.5 || mbps > 0.9 {
		t.Errorf("measured %.2f Mbps, want ~0.67", mbps)
	}
	sum := Summarize(egress)
	if len(sum) != 1 || sum[0].Protocol != ProtoQUIC {
		t.Errorf("summary = %v", sum)
	}
	if sum[0].String() == "" {
		t.Error("empty summary string")
	}
}

func TestCaptureSnapLen(t *testing.T) {
	s := simtime.NewScheduler()
	l := netem.NewLink(s, simrand.New(2), netem.Config{Name: "snap"})
	c := capture.New("c")
	c.SetRetain(true)
	c.Attach(l)
	l.SetHandler(func(simtime.Time, netem.Frame) {})
	l.Send(netem.Frame{Size: 5000, Payload: make([]byte, 5000)})
	s.Run()
	for _, r := range c.Records() {
		if len(r.Payload) > capture.SnapLen {
			t.Errorf("payload %d exceeds snaplen", len(r.Payload))
		}
		if r.Size != 5000 {
			t.Errorf("record size %d, want 5000 (full wire size)", r.Size)
		}
	}
	if c.Len() != 2 { // ingress + egress
		t.Errorf("captured %d records, want 2", c.Len())
	}
	c.Reset()
	if c.Len() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestThroughputSampleDropsPartialWindows(t *testing.T) {
	var times []simtime.Time
	var sizes []int
	for i := 0; i < 500; i++ {
		times = append(times, simtime.Time(i*10*int(simtime.Millisecond)))
		sizes = append(sizes, 1250)
	}
	sm := ThroughputSample(mkRecords(times, sizes), simtime.Second)
	if sm.N() != 3 { // 5 bins minus first and last
		t.Errorf("sample N = %d, want 3", sm.N())
	}
}
