package quic

import (
	"bytes"
	"testing"
	"testing/quick"

	"telepresence/internal/netem"
	"telepresence/internal/simrand"
	"telepresence/internal/simtime"
)

func TestVarintRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 63, 64, 16383, 16384, 1<<30 - 1, 1 << 30, 1<<62 - 1}
	for _, v := range cases {
		b := AppendVarint(nil, v)
		got, n, err := Varint(b)
		if err != nil || got != v || n != len(b) {
			t.Errorf("varint %d: got %d n=%d err=%v", v, got, n, err)
		}
	}
}

func TestVarintLengths(t *testing.T) {
	for _, c := range []struct {
		v    uint64
		want int
	}{{0, 1}, {63, 1}, {64, 2}, {16383, 2}, {16384, 4}, {1<<30 - 1, 4}, {1 << 30, 8}} {
		if got := len(AppendVarint(nil, c.v)); got != c.want {
			t.Errorf("varint %d encodes to %d bytes, want %d", c.v, got, c.want)
		}
	}
}

func TestVarintProperty(t *testing.T) {
	f := func(v uint64) bool {
		v &= maxVarint
		got, _, err := Varint(AppendVarint(nil, v))
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestVarintErrors(t *testing.T) {
	if _, _, err := Varint(nil); err == nil {
		t.Error("empty varint accepted")
	}
	if _, _, err := Varint([]byte{0xC0, 1, 2}); err == nil {
		t.Error("truncated 8-byte varint accepted")
	}
}

// pair wires two connections over a bidirectional emulated path.
func pair(s *simtime.Scheduler, cfg netem.Config) (*Conn, *Conn) {
	p := netem.NewPipe(s, simrand.New(42), cfg)
	client := NewConn(s, p.AB, Config{ConnID: 1, Key: 7, IsClient: true})
	server := NewConn(s, p.BA, Config{ConnID: 2, Key: 7})
	p.AB.SetHandler(server.Deliver)
	p.BA.SetHandler(client.Deliver)
	return client, server
}

func TestHandshake(t *testing.T) {
	s := simtime.NewScheduler()
	client, server := pair(s, netem.Config{Name: "hs", DelayMs: 20})
	client.StartHandshake()
	s.RunFor(simtime.Second)
	if !client.Handshook() || !server.Handshook() {
		t.Fatalf("handshake incomplete: client=%v server=%v", client.Handshook(), server.Handshook())
	}
}

func TestMessageDelivery(t *testing.T) {
	s := simtime.NewScheduler()
	client, server := pair(s, netem.Config{Name: "msg", DelayMs: 15})
	var got []Message
	server.OnMessage(func(m Message) {
		// Message.Data is only valid during the callback: copy to retain.
		m.Data = append([]byte(nil), m.Data...)
		got = append(got, m)
	})
	payload := bytes.Repeat([]byte("semantic"), 100)
	client.SendMessage(payload)
	s.RunFor(simtime.Second)
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(got))
	}
	if !bytes.Equal(got[0].Data, payload) {
		t.Error("payload mismatch")
	}
	if got[0].At < simtime.Time(15*simtime.Millisecond) {
		t.Errorf("delivered at %v, before one-way delay", got[0].At)
	}
}

func TestLargeMessageFragmentsAndReassembles(t *testing.T) {
	s := simtime.NewScheduler()
	client, server := pair(s, netem.Config{Name: "big", DelayMs: 5})
	var got []byte
	server.OnMessage(func(m Message) { got = append([]byte(nil), m.Data...) })
	payload := make([]byte, 50_000) // ~44 packets
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	client.SendMessage(payload)
	s.RunFor(simtime.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("reassembly failed: got %d bytes, want %d", len(got), len(payload))
	}
	if client.Stats().PacketsSent < 40 {
		t.Errorf("only %d packets for a 50 KB message", client.Stats().PacketsSent)
	}
}

func TestMultipleMessagesOrderedStreams(t *testing.T) {
	s := simtime.NewScheduler()
	client, server := pair(s, netem.Config{Name: "multi", DelayMs: 5})
	seen := map[uint64][]byte{}
	server.OnMessage(func(m Message) { seen[m.StreamID] = append([]byte(nil), m.Data...) })
	for i := 0; i < 20; i++ {
		client.SendMessage([]byte{byte(i)})
	}
	s.RunFor(simtime.Second)
	if len(seen) != 20 {
		t.Fatalf("got %d streams, want 20", len(seen))
	}
	for id, data := range seen {
		if want := byte(id / 4); len(data) != 1 || data[0] != want {
			t.Errorf("stream %d carried %v, want [%d]", id, data, want)
		}
	}
}

func TestLossRecovery(t *testing.T) {
	s := simtime.NewScheduler()
	client, server := pair(s, netem.Config{Name: "lossy", DelayMs: 10, LossProb: 0.2})
	delivered := 0
	server.OnMessage(func(m Message) { delivered++ })
	for i := 0; i < 50; i++ {
		i := i
		s.At(simtime.Time(i*10*int(simtime.Millisecond)), 0, func() {
			client.SendMessage(bytes.Repeat([]byte{byte(i)}, 3000)) // 3 packets
		})
	}
	s.RunFor(30 * simtime.Second)
	if delivered != 50 {
		t.Fatalf("delivered %d/50 messages over 20%% loss", delivered)
	}
	if client.Stats().Retransmissions == 0 {
		t.Error("no retransmissions recorded under 20% loss")
	}
}

func TestNoRetransmissionsOnCleanPath(t *testing.T) {
	s := simtime.NewScheduler()
	client, server := pair(s, netem.Config{Name: "clean", DelayMs: 5})
	server.OnMessage(func(Message) {})
	for i := 0; i < 20; i++ {
		i := i
		s.At(simtime.Time(i*20*int(simtime.Millisecond)), 0, func() {
			client.SendMessage(make([]byte, 500))
		})
	}
	s.RunFor(5 * simtime.Second)
	if rtx := client.Stats().Retransmissions; rtx != 0 {
		t.Errorf("%d spurious retransmissions on a clean path", rtx)
	}
}

func TestPayloadOpaqueOnWire(t *testing.T) {
	// 1-RTT payloads must not appear in cleartext on the wire (the paper
	// could not decrypt spatial-persona traffic).
	s := simtime.NewScheduler()
	p := netem.NewPipe(s, simrand.New(1), netem.Config{Name: "enc", DelayMs: 1})
	client := NewConn(s, p.AB, Config{ConnID: 1, Key: 99, IsClient: true})
	server := NewConn(s, p.BA, Config{ConnID: 2, Key: 99})
	secret := []byte("SPATIAL_PERSONA_KEYPOINTS_SECRET")
	var wire [][]byte
	p.AB.AddTap(func(_ simtime.Time, f netem.Frame, d netem.Direction) {
		if d == netem.Ingress {
			wire = append(wire, append([]byte(nil), f.Payload...))
		}
	})
	p.AB.SetHandler(server.Deliver)
	p.BA.SetHandler(client.Deliver)
	var got []byte
	server.OnMessage(func(m Message) { got = append([]byte(nil), m.Data...) })
	client.SendMessage(secret)
	s.RunFor(simtime.Second)
	if !bytes.Equal(got, secret) {
		t.Fatal("message not delivered")
	}
	for _, w := range wire {
		if bytes.Contains(w, secret) {
			t.Fatal("cleartext payload observable on the wire")
		}
	}
}

func TestIsQUICClassification(t *testing.T) {
	s := simtime.NewScheduler()
	p := netem.NewPipe(s, simrand.New(2), netem.Config{Name: "cls", DelayMs: 1})
	client := NewConn(s, p.AB, Config{ConnID: 5, Key: 1, IsClient: true})
	server := NewConn(s, p.BA, Config{ConnID: 6, Key: 1})
	var payloads [][]byte
	p.AB.AddTap(func(_ simtime.Time, f netem.Frame, d netem.Direction) {
		if d == netem.Ingress {
			payloads = append(payloads, append([]byte(nil), f.Payload...))
		}
	})
	p.AB.SetHandler(server.Deliver)
	p.BA.SetHandler(client.Deliver)
	client.StartHandshake()
	client.SendMessage([]byte("x"))
	s.RunFor(simtime.Second)
	if len(payloads) < 2 {
		t.Fatal("expected handshake + data packets")
	}
	for i, pl := range payloads {
		if !IsQUIC(pl) {
			t.Errorf("packet %d not classified as QUIC", i)
		}
	}
	// Non-QUIC payloads are rejected.
	if IsQUIC([]byte{0x80, 0, 0, 0, 2}) {
		t.Error("RTP-looking payload classified as QUIC")
	}
	if IsQUIC(nil) {
		t.Error("empty payload classified as QUIC")
	}
}

func TestCloseStopsRetransmission(t *testing.T) {
	s := simtime.NewScheduler()
	client, _ := pair(s, netem.Config{Name: "close", DelayMs: 5, LossProb: 1})
	client.SendMessage([]byte("doomed"))
	client.Close()
	s.RunFor(10 * simtime.Second)
	if rtx := client.Stats().Retransmissions; rtx != 0 {
		t.Errorf("%d retransmissions after Close", rtx)
	}
}

func TestZeroConnIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero conn id accepted")
		}
	}()
	s := simtime.NewScheduler()
	p := netem.NewPipe(s, simrand.New(3), netem.Config{Name: "bad"})
	NewConn(s, p.AB, Config{ConnID: 0})
}

func TestStatsString(t *testing.T) {
	if (Stats{}).String() == "" {
		t.Error("empty stats string")
	}
}

func TestMalformedPacketsIgnored(t *testing.T) {
	s := simtime.NewScheduler()
	_, server := pair(s, netem.Config{Name: "mal", DelayMs: 1})
	for _, b := range [][]byte{nil, {0}, {headerShort}, {headerLong, 1}, bytes.Repeat([]byte{0xFF}, 30)} {
		server.Deliver(s.Now(), netem.Frame{Payload: b}) // must not panic
	}
}

func BenchmarkSendReceive(b *testing.B) {
	s := simtime.NewScheduler()
	client, server := pair(s, netem.Config{Name: "bench", DelayMs: 1})
	n := 0
	server.OnMessage(func(Message) { n++ })
	payload := make([]byte, 900)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client.SendMessage(payload)
		s.RunFor(5 * simtime.Millisecond)
	}
	if n == 0 {
		b.Fatal("nothing delivered")
	}
}
