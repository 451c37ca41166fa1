package quic

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"telepresence/internal/netem"
	"telepresence/internal/simtime"
)

// handshaken returns a client/server pair that has completed the handshake,
// and the packets the client then sent: one single-packet message, one
// multi-packet message and an ACK-only packet.
func handshaken(tb testing.TB) (*simtime.Scheduler, *Conn, [][]byte) {
	tb.Helper()
	s := simtime.NewScheduler()
	client, server := pair(s, netem.Config{Name: "fuzz", DelayMs: 1})
	var sent [][]byte
	client.out.AddTap(func(_ simtime.Time, f netem.Frame, dir netem.Direction) {
		if dir == netem.Ingress {
			sent = append(sent, append([]byte(nil), f.Payload...))
		}
	})
	client.StartHandshake()
	s.RunFor(simtime.Second)
	if !client.Handshook() || !server.Handshook() {
		tb.Fatal("handshake incomplete")
	}
	client.SendMessage([]byte("persona keypoints"))
	client.SendMessage(bytes.Repeat([]byte{0x5A}, 3*MTU))
	s.RunFor(simtime.Second)
	return s, server, sent
}

// FuzzDeliver feeds arbitrary packets to a handshaken Conn, which must not
// panic and must allocate in proportion to the packet. Seeds are the
// packets of a real exchange (scrambled as on the wire), so mutations
// reach frame parsing.
func FuzzDeliver(f *testing.F) {
	_, _, sent := handshaken(f)
	for _, pkt := range sent {
		f.Add(pkt)
		f.Add(pkt[:len(pkt)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, server, _ := handshaken(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		server.Deliver(s.Now(), netem.Frame{Payload: data})
		runtime.ReadMemStats(&after)
		// Each stream frame costs at least three bytes and at most a
		// reassembly map and a segment copy; the keystream and receive
		// scratch grow to the packet's length.
		if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+256*len(data)); n > limit {
			t.Fatalf("Deliver of %d bytes allocated %d bytes, want <= %d", len(data), n, limit)
		}
		s.RunFor(simtime.Second)
	})
}

// deliverFrames wraps plaintext frames in a 1-RTT packet addressed to c,
// scrambled with the shared key, and delivers it.
func deliverFrames(s *simtime.Scheduler, c *Conn, pn uint64, frames []byte) {
	pkt := []byte{headerShort}
	pkt = binary.BigEndian.AppendUint64(pkt, c.connID)
	pkt = AppendVarint(pkt, pn)
	hdr := len(pkt)
	pkt = append(pkt, frames...)
	c.scramble(pkt[hdr:])
	c.Deliver(s.Now(), netem.Frame{Payload: pkt})
}

// streamFrame encodes a STREAM frame with explicit offset and length.
func streamFrame(id, off uint64, data []byte, fin bool) []byte {
	ft := byte(frameStream | 0x04 | 0x02)
	if fin {
		ft |= 0x01
	}
	b := AppendVarint([]byte{ft}, id)
	b = AppendVarint(b, off)
	b = AppendVarint(b, uint64(len(data)))
	return append(b, data...)
}

// TestEmptySegmentDoesNotStall: an empty non-FIN frame at offset 0 followed
// by a FIN further on used to leave a zero-length segment that reassembly
// walked forever. The stream stays incomplete instead.
func TestEmptySegmentDoesNotStall(t *testing.T) {
	s, server, _ := handshaken(t)
	before := server.Stats().MessagesDelivered
	var frames []byte
	frames = append(frames, streamFrame(8, 0, nil, false)...)
	frames = append(frames, streamFrame(8, 5, nil, true)...)
	deliverFrames(s, server, 99, frames)
	if got := server.Stats().MessagesDelivered; got != before {
		t.Errorf("delivered %d messages from a stream missing its data", got-before)
	}
	deliverFrames(s, server, 100, streamFrame(8, 0, []byte("hello"), false))
	if got := server.Stats().MessagesDelivered; got != before+1 {
		t.Errorf("stream not delivered once its data arrived (%d messages)", got-before)
	}
}

// TestFarStreamsDoNotStall: more than recvDoneBound streams completed far
// ahead of the watermark used to make it count through the gap 4 at a
// time; streams of a type the peer may not open were never released.
func TestFarStreamsDoNotStall(t *testing.T) {
	s, server, _ := handshaken(t)
	before := server.Stats().MessagesDelivered
	const far = 1 << 60
	for pn := uint64(100); pn < 100+recvDoneBound+8; pn++ {
		deliverFrames(s, server, pn, streamFrame(far+4*pn, 0, []byte{1}, true))
	}
	if got, want := server.Stats().MessagesDelivered-before, int64(recvDoneBound+8); got != want {
		t.Errorf("delivered %d far streams, want %d", got, want)
	}
	if len(server.recvDone) > recvDoneBound {
		t.Errorf("recvDone holds %d streams, bound %d", len(server.recvDone), recvDoneBound)
	}
	deliverFrames(s, server, 99, streamFrame(far+2, 0, []byte{1}, true))
	if got, want := server.Stats().MessagesDelivered-before, int64(recvDoneBound+8); got != want {
		t.Errorf("a server-type stream ID was delivered to the server")
	}
}
