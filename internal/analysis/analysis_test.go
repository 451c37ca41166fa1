package analysis

import (
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

// End-to-end: capture real QUIC traffic off a netem link through the
// streaming path vca.Session uses (a classifier at the tap, no retained
// records) and verify it identifies QUIC and measures its rate.
func TestCaptureClassifyAndMeasureQUIC(t *testing.T) {
	s := simtime.NewScheduler()
	p := netem.NewPipe(s, simrand.New(1), netem.Config{Name: "ap", DelayMs: 5})
	client := quic.NewConn(s, p.AB, quic.Config{ConnID: 1, Key: 3, IsClient: true})
	server := quic.NewConn(s, p.BA, quic.Config{ConnID: 2, Key: 3})
	p.AB.SetHandler(server.Deliver)
	p.BA.SetHandler(client.Deliver)

	cap := capture.New("ap")
	cap.SetClassifier(ClassIndex)
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

	if n := len(cap.Records()); cap.Retaining() || n != 0 {
		t.Fatalf("streaming capture kept %d records", n)
	}
	cls, counts := cap.DominantClass(p.AB.Name())
	if Protocol(cls) != ProtoQUIC {
		t.Fatalf("classified as %v (counts %v), want QUIC", Protocol(cls), counts)
	}
	rate := cap.EgressThroughputSample(p.AB.Name())
	if rate.N() == 0 {
		t.Fatal("no full throughput window captured")
	}
	if mbps := rate.Mean(); mbps < 0.5 || mbps > 0.9 {
		t.Errorf("measured %.2f Mbps, want ~0.67", mbps)
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
