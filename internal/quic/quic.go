// Package quic implements a faithful miniature of QUIC (RFC 9000) for the
// simulation: variable-length integers, long/short header packets, stream
// frames with offsets and FIN, cumulative+range ACKs, timer-based loss
// recovery, and a keyed payload scrambler standing in for TLS 1.3 (§5:
// spatial-persona trafic is end-to-end encrypted, so the capture layer can
// classify but not read it).
//
// The paper found FaceTime delivers spatial personas over QUIC when all
// participants wear Vision Pro (§4.1); the vca package selects this
// transport in exactly that case.
//
// Memory discipline: a connection's steady-state footprint is O(in-flight
// data), not O(session length). Send-side stream state is released (and its
// buffer recycled) once every fragment is acknowledged or abandoned;
// receive-side reassembly state is released on delivery, with completed
// stream IDs tracked by a compact watermark instead of a grow-forever map.
// Message.Data handed to OnMessage is only valid for the duration of the
// callback — receivers that retain it must copy (copy-on-retain).
package quic

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"

	"telepresence/internal/netem"
	"telepresence/internal/simtime"
)

// Wire constants.
const (
	headerLong  = 0xC0 // long header: handshake packets
	headerShort = 0x40 // short header: 1-RTT application packets
	// Version mimics QUICv1.
	version = 0x00000001
	// MTU is the maximum QUIC packet payload carried per UDP datagram.
	MTU = 1200
	// udpIPOverhead is the IP+UDP encapsulation cost added to every
	// packet's wire size.
	udpIPOverhead = 28
)

// Frame types (subset of RFC 9000).
const (
	frameAck    = 0x02
	frameCrypto = 0x06
	frameStream = 0x08 // with OFF|LEN|FIN bits -> 0x08..0x0F
)

// Message is a fully reassembled stream payload delivered to the
// application. Data is owned by the connection and valid only until the
// OnMessage callback returns; retain a copy if needed beyond that.
type Message struct {
	StreamID uint64
	Data     []byte
	// At is the delivery time.
	At simtime.Time
}

// Stats counts connection activity.
type Stats struct {
	PacketsSent, PacketsReceived int64
	BytesSent                    int64
	Retransmissions              int64
	MessagesDelivered            int64
	AcksSent                     int64
}

// Conn is one QUIC endpoint. Two Conns are joined by netem links (out is
// this endpoint's egress; the peer's out is our ingress, wired by the
// caller via Deliver or a Demux).
type Conn struct {
	sched *simtime.Scheduler
	out   *netem.Link
	// connID identifies this endpoint; packets it SENDS carry the peer's
	// ID as destination connection ID (DCID), like real QUIC.
	connID    uint64
	peerID    uint64
	key       byte // toy AEAD key (XOR keystream seed)
	handshook bool
	closed    bool

	nextPN       uint64
	nextStreamID uint64

	// Send-side stream state, kept until fully acknowledged or abandoned.
	sendStreams map[uint64]*sendStream
	// Receive-side reassembly for streams still missing data.
	recvStreams map[uint64]*recvStream
	// Delivered stream IDs at or above recvNext; recvNext is the next peer
	// stream ID whose completion advances the watermark. Together they
	// bound duplicate suppression to the reorder window instead of the
	// whole session.
	recvDone map[uint64]struct{}
	recvNext uint64

	// ACK state: received packet numbers pending acknowledgment.
	pendingAcks []uint64
	ackTimer    simtime.Handle
	ackPending  bool

	// Unacked packets for loss recovery.
	unacked map[uint64]*sentPacket

	onMessage func(Message)
	stats     Stats

	// RTO is the retransmission timeout; adapted crudely from observed
	// ACK delay.
	rto simtime.Duration

	// Freelists (single-goroutine; plain slices beat sync.Pool here).
	bufPool []([]byte)    // payload buffers: send copies, recv segments
	spPool  []*sentPacket // sentPacket nodes
	ssPool  []*sendStream // sendStream nodes
	rxBuf   []byte        // descrambled payload of the packet in flight
	ks      []byte        // keystream cache (see keystream)
	msgBuf  []byte        // multi-fragment reassembly target

	// Profiler site labels for the connection's timer events, interned at
	// construction so per-packet scheduling stays map-free.
	rtoSite simtime.SiteID
	ackSite simtime.SiteID
}

type sendStream struct {
	id   uint64
	data []byte // pooled; released when pending reaches zero
	// pending counts fragments not yet acknowledged or abandoned.
	pending int
}

type recvStream struct {
	segs   map[uint64][]byte // offset -> pooled copy of the segment
	finOff int64             // -1 until FIN seen
}

type sentPacket struct {
	pn      uint64
	frames  []streamFrag
	timer   simtime.Handle
	retries int
}

type streamFrag struct {
	streamID uint64
	offset   uint64
	data     []byte
	fin      bool
}

// Config for a connection.
type Config struct {
	// ConnID is this endpoint's connection ID (must be nonzero and unique
	// per direction).
	ConnID uint64
	// PeerID is the remote endpoint's connection ID, written as the DCID
	// of every packet this endpoint sends. Zero is allowed only when a
	// single conn owns the link (the peer then accepts any DCID).
	PeerID uint64
	// Key is the toy encryption key shared by both endpoints.
	Key byte
	// IsClient marks the handshake initiator.
	IsClient bool
	// SrcPort/DstPort and addressing are carried by the caller's frames;
	// the Conn itself is address-agnostic.
}

// NewConn creates an endpoint sending over out.
func NewConn(sched *simtime.Scheduler, out *netem.Link, cfg Config) *Conn {
	if cfg.ConnID == 0 {
		panic("quic: zero connection id")
	}
	first, peerFirst := uint64(1), uint64(0)
	if cfg.IsClient {
		first, peerFirst = 0, 1 // client-initiated bidi streams: 0, 4, 8...
	}
	return &Conn{
		sched:        sched,
		out:          out,
		connID:       cfg.ConnID,
		peerID:       cfg.PeerID,
		key:          cfg.Key,
		sendStreams:  map[uint64]*sendStream{},
		recvStreams:  map[uint64]*recvStream{},
		recvDone:     map[uint64]struct{}{},
		recvNext:     peerFirst,
		unacked:      map[uint64]*sentPacket{},
		rto:          100 * simtime.Millisecond,
		nextStreamID: first,
		rtoSite:      sched.Site("quic.rto"),
		ackSite:      sched.Site("quic.ack"),
	}
}

// OnMessage registers the application callback for reassembled messages.
func (c *Conn) OnMessage(fn func(Message)) { c.onMessage = fn }

// Stats returns a copy of the counters.
func (c *Conn) Stats() Stats { return c.stats }

// Handshook reports whether the 1-RTT keys are established.
func (c *Conn) Handshook() bool { return c.handshook }

// Close stops all retransmission activity.
func (c *Conn) Close() {
	c.closed = true
	//vplint:allow maporder(cancel-all teardown; cancellation is commutative and nothing observes the order)
	for _, sp := range c.unacked {
		sp.timer.Cancel()
	}
	c.ackTimer.Cancel()
	c.ackPending = false
}

// getBuf returns a pooled buffer of length n.
func (c *Conn) getBuf(n int) []byte {
	if last := len(c.bufPool) - 1; last >= 0 {
		b := c.bufPool[last]
		c.bufPool[last] = nil
		c.bufPool = c.bufPool[:last]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// putBuf recycles a buffer obtained from getBuf.
func (c *Conn) putBuf(b []byte) {
	if cap(b) > 0 {
		c.bufPool = append(c.bufPool, b[:0])
	}
}

func (c *Conn) getSentPacket() *sentPacket {
	if last := len(c.spPool) - 1; last >= 0 {
		sp := c.spPool[last]
		c.spPool[last] = nil
		c.spPool = c.spPool[:last]
		return sp
	}
	return &sentPacket{}
}

func (c *Conn) putSentPacket(sp *sentPacket) {
	for i := range sp.frames {
		sp.frames[i] = streamFrag{}
	}
	sp.frames = sp.frames[:0]
	sp.retries = 0
	c.spPool = append(c.spPool, sp)
}

// StartHandshake sends the client Initial. The peer responds via its
// Deliver path; after one round trip both sides mark themselves handshook.
func (c *Conn) StartHandshake() {
	pkt := c.longHeader()
	pkt = append(pkt, frameCrypto)
	pkt = AppendVarint(pkt, 0)                           // offset
	pkt = AppendVarint(pkt, uint64(len("CLIENT_HELLO"))) // length
	pkt = append(pkt, "CLIENT_HELLO"...)
	c.sendRaw(pkt, MTU) // Initials are padded to full MTU per RFC 9000
}

func (c *Conn) longHeader() []byte {
	b := []byte{headerLong}
	b = binary.BigEndian.AppendUint32(b, version)
	b = binary.BigEndian.AppendUint64(b, c.peerID) // DCID
	b = binary.BigEndian.AppendUint64(b, c.connID) // SCID
	return b
}

// appendShortHeader writes the 1-RTT header into b.
func (c *Conn) appendShortHeader(b []byte, pn uint64) []byte {
	b = append(b, headerShort)
	b = binary.BigEndian.AppendUint64(b, c.peerID) // DCID
	return AppendVarint(b, pn)
}

// scramble is the toy AEAD: a keyed keystream XOR. It makes 1-RTT payloads
// opaque to the capture layer while remaining trivially invertible for the
// peer that shares the key. The keystream is an LCG restarted from the key
// for every payload, so it is a constant of the connection: keystream
// computes it once and XORBytes applies it.
func (c *Conn) scramble(b []byte) {
	subtle.XORBytes(b, b, c.keystream(len(b)))
}

// keystream returns the first n bytes of the connection's keystream,
// growing the cached stream on demand to the longest payload seen (at
// least an MTU, so ordinary traffic computes it once).
func (c *Conn) keystream(n int) []byte {
	if n > len(c.ks) {
		ks := make([]byte, max(n, MTU))
		state := uint32(c.key) * 2654435761
		for i := range ks {
			state = state*1664525 + 1013904223
			ks[i] = byte(state >> 24)
		}
		c.ks = ks
	}
	return c.ks[:n]
}

// SendMessage opens a new stream, writes data, and FINs it — the
// stream-per-media-frame pattern. It returns the stream ID. data is copied
// (into a pooled buffer), so the caller may reuse it immediately.
func (c *Conn) SendMessage(data []byte) uint64 {
	id := c.nextStreamID
	c.nextStreamID += 4
	buf := c.getBuf(len(data))
	copy(buf, data)
	var ss *sendStream
	if last := len(c.ssPool) - 1; last >= 0 {
		ss = c.ssPool[last]
		c.ssPool[last] = nil
		c.ssPool = c.ssPool[:last]
	} else {
		ss = &sendStream{}
	}
	ss.id, ss.data, ss.pending = id, buf, 0
	c.sendStreams[id] = ss
	// Fragment into MTU-sized stream frames, one packet each.
	for off := 0; off == 0 || off < len(ss.data); {
		end := off + MTU - 64 // header + frame overhead headroom
		if end > len(ss.data) {
			end = len(ss.data)
		}
		fin := end == len(ss.data)
		ss.pending++
		c.sendStreamFrame(streamFrag{streamID: id, offset: uint64(off), data: ss.data[off:end], fin: fin})
		if end == len(ss.data) {
			break
		}
		off = end
	}
	return id
}

// fragDone marks one fragment of a stream acknowledged or abandoned,
// releasing the stream (and recycling its buffer) when none remain.
func (c *Conn) fragDone(streamID uint64) {
	ss, ok := c.sendStreams[streamID]
	if !ok {
		return
	}
	ss.pending--
	if ss.pending <= 0 {
		delete(c.sendStreams, streamID)
		c.putBuf(ss.data)
		ss.data = nil
		c.ssPool = append(c.ssPool, ss)
	}
}

func (c *Conn) sendStreamFrame(fr streamFrag) {
	if c.closed {
		return
	}
	pn := c.nextPN
	c.nextPN++

	ftype := byte(frameStream | 0x04 | 0x02) // OFF|LEN bits set
	if fr.fin {
		ftype |= 0x01
	}
	// Build header and scrambled payload in one exact-size buffer.
	hdrLen := 1 + 8 + VarintLen(pn)
	metaLen := 1 + VarintLen(fr.streamID) + VarintLen(fr.offset) + VarintLen(uint64(len(fr.data)))
	pkt := make([]byte, 0, hdrLen+metaLen+len(fr.data))
	pkt = c.appendShortHeader(pkt, pn)
	pkt = append(pkt, ftype)
	pkt = AppendVarint(pkt, fr.streamID)
	pkt = AppendVarint(pkt, fr.offset)
	pkt = AppendVarint(pkt, uint64(len(fr.data)))
	pkt = append(pkt, fr.data...)
	c.scramble(pkt[hdrLen:])

	sp := c.getSentPacket()
	sp.pn = pn
	sp.frames = append(sp.frames, fr)
	c.unacked[pn] = sp
	sp.timer = c.sched.AtArg(c.sched.Now().Add(c.rto), c.rtoSite, retransmitFn, retransmitArg{c, sp, pn})
	c.sendRaw(pkt, 0)
}

// retransmitArg carries the retransmission context through AtArg without a
// per-packet closure. The pn snapshot guards against the (pooled) sentPacket
// being reused by the time a stale timer would fire.
type retransmitArg struct {
	c  *Conn
	sp *sentPacket
	pn uint64
}

func retransmitFn(a any) {
	ra := a.(retransmitArg)
	ra.c.retransmit(ra.sp, ra.pn)
}

func (c *Conn) retransmit(sp *sentPacket, pn uint64) {
	if c.closed {
		return
	}
	if cur, still := c.unacked[pn]; !still || cur != sp || sp.pn != pn {
		return
	}
	delete(c.unacked, pn)
	sp.retries++
	if sp.retries > 10 {
		// Give up; the application-level integrity layer will notice.
		for _, fr := range sp.frames {
			c.fragDone(fr.streamID)
		}
		c.putSentPacket(sp)
		return
	}
	c.stats.Retransmissions++
	// Resend each fragment under a fresh packet number, then recycle this
	// node (every send gets its own sentPacket, as the pn is new).
	for _, fr := range sp.frames {
		c.sendStreamFrame(fr)
	}
	c.putSentPacket(sp)
	// Exponential-ish backoff.
	if c.rto < simtime.Second {
		c.rto = c.rto * 3 / 2
	}
}

func (c *Conn) sendRaw(pkt []byte, padTo int) {
	size := len(pkt)
	if padTo > size {
		size = padTo
	}
	size += udpIPOverhead
	c.stats.PacketsSent++
	c.stats.BytesSent += int64(size)
	c.out.Send(netem.Frame{Size: size, Payload: pkt})
}

// Deliver is the ingress path: the caller wires the peer link's handler to
// this method.
func (c *Conn) Deliver(now simtime.Time, f netem.Frame) {
	if c.closed || len(f.Payload) == 0 {
		return
	}
	b := f.Payload
	c.stats.PacketsReceived++
	switch {
	case b[0] == headerLong:
		c.handleLong(b)
	case b[0] == headerShort:
		c.handleShort(now, b)
	}
}

func (c *Conn) handleLong(b []byte) {
	if len(b) < 21 {
		return
	}
	dcid := binary.BigEndian.Uint64(b[5:13])
	if dcid != 0 && c.peerID != 0 && dcid != c.connID {
		return // not addressed to us
	}
	// Any CRYPTO round trip completes our toy handshake: client Initial ->
	// server response -> both handshook.
	if !c.handshook {
		c.handshook = true
		// Respond once so the initiator also completes.
		resp := c.longHeader()
		resp = append(resp, frameCrypto)
		resp = AppendVarint(resp, 0)
		resp = AppendVarint(resp, uint64(len("SERVER_HELLO")))
		resp = append(resp, "SERVER_HELLO"...)
		c.sendRaw(resp, MTU)
	}
}

func (c *Conn) handleShort(now simtime.Time, b []byte) {
	if len(b) < 10 {
		return
	}
	dcid := binary.BigEndian.Uint64(b[1:9])
	if dcid != 0 && dcid != c.connID {
		return // not addressed to us
	}
	pn, n, err := Varint(b[9:])
	if err != nil {
		return
	}
	// Descramble into the connection's receive scratch: the frame payload
	// belongs to the sender and must not be modified in place.
	payload := b[9+n:]
	if cap(c.rxBuf) < len(payload) {
		c.rxBuf = make([]byte, len(payload))
	}
	rx := c.rxBuf[:len(payload)]
	subtle.XORBytes(rx, payload, c.keystream(len(payload)))
	c.parseFrames(now, pn, rx)
}

func (c *Conn) parseFrames(now simtime.Time, pn uint64, p []byte) {
	ackEliciting := false
	for len(p) > 0 {
		ft := p[0]
		p = p[1:]
		switch {
		case ft == 0: // padding
		case ft == frameAck:
			var ok bool
			p, ok = c.parseAck(p)
			if !ok {
				return
			}
		case ft&0xF8 == frameStream:
			ackEliciting = true
			var ok bool
			p, ok = c.parseStream(now, ft, p)
			if !ok {
				return
			}
		default:
			return // unknown frame: drop rest
		}
	}
	if ackEliciting {
		c.queueAck(pn)
	}
}

// streamDelivered reports whether id has already been fully delivered.
func (c *Conn) streamDelivered(id uint64) bool {
	if id < c.recvNext {
		return true
	}
	_, done := c.recvDone[id]
	return done
}

// recvDoneBound caps duplicate-suppression memory when the watermark
// stalls on a stream that is not completing (sustained overload can starve
// one fragment for a long time). Once this many later streams have
// completed — tens of seconds of media — the stalled frame is worthless to
// the application, so the watermark skips the gap and re-bounds memory; a
// fragment arriving after the skip is treated as already-done and dropped.
const recvDoneBound = 4096

// markDelivered records id as done and advances the watermark past every
// consecutively completed stream, keeping recvDone bounded by the reorder
// window.
func (c *Conn) markDelivered(id uint64) {
	c.recvDone[id] = struct{}{}
	for {
		if _, ok := c.recvDone[c.recvNext]; !ok {
			break
		}
		delete(c.recvDone, c.recvNext)
		c.recvNext += 4
	}
	// Watermark stalled on an abandoned stream: skip gaps (releasing any
	// partial reassembly state) until the done-set is bounded again.
	for len(c.recvDone) > recvDoneBound {
		if _, ok := c.recvDone[c.recvNext]; ok {
			delete(c.recvDone, c.recvNext)
		} else if rs := c.recvStreams[c.recvNext]; rs != nil {
			//vplint:allow maporder(releases content-free scratch to the buffer pool; output never depends on reuse order)
			for _, seg := range rs.segs {
				c.putBuf(seg)
			}
			delete(c.recvStreams, c.recvNext)
		} else {
			// Nothing is held for recvNext: jump to the lowest stream that
			// holds state, which stepping by 4 would reach anyway. A peer
			// that completes streams far ahead cannot make this loop count
			// through the gap.
			c.recvNext = c.lowestHeldStream()
			continue
		}
		c.recvNext += 4
	}
}

// lowestHeldStream returns the lowest stream ID at or above recvNext in
// recvDone or recvStreams; recvDone must hold one. Held IDs are of the
// peer's stream type, so the result is recvNext plus a multiple of 4.
func (c *Conn) lowestHeldStream() uint64 {
	low := ^uint64(0)
	//vplint:allow maporder(a minimum does not depend on visiting order)
	for id := range c.recvDone {
		low = min(low, id)
	}
	//vplint:allow maporder(a minimum does not depend on visiting order)
	for id := range c.recvStreams {
		if id >= c.recvNext {
			low = min(low, id)
		}
	}
	return low
}

func (c *Conn) parseStream(now simtime.Time, ftype byte, p []byte) ([]byte, bool) {
	id, n, err := Varint(p)
	if err != nil {
		return nil, false
	}
	p = p[n:]
	var off uint64
	if ftype&0x04 != 0 {
		off, n, err = Varint(p)
		if err != nil {
			return nil, false
		}
		p = p[n:]
	}
	length := uint64(len(p))
	if ftype&0x02 != 0 {
		length, n, err = Varint(p)
		if err != nil {
			return nil, false
		}
		p = p[n:]
	}
	if length > uint64(len(p)) {
		return nil, false
	}
	data := p[:length]
	fin := ftype&0x01 != 0
	rest := p[length:]
	if id&3 != c.recvNext&3 {
		// Not a stream the peer may open (RFC 9000 §2.1: the low two bits
		// give initiator and direction); the watermark only ever visits
		// the peer's own type, so such IDs would never be released.
		return nil, false
	}

	if c.streamDelivered(id) {
		return rest, true // duplicate of a completed stream
	}
	rs := c.recvStreams[id]
	if rs == nil {
		if fin && off == 0 {
			// Fast path: the whole message arrived in one fragment. Deliver
			// straight out of the receive scratch — zero copies, no map.
			c.deliverMessage(now, id, data)
			return rest, true
		}
		rs = &recvStream{segs: map[uint64][]byte{}, finOff: -1}
		c.recvStreams[id] = rs
	}
	// Only FIN gives an empty frame meaning: an empty segment would stall
	// tryDeliver's walk, which advances by segment length.
	if _, dup := rs.segs[off]; !dup && length > 0 {
		seg := c.getBuf(len(data))
		copy(seg, data)
		rs.segs[off] = seg
	}
	if fin {
		rs.finOff = int64(off + length)
	}
	c.tryDeliver(now, id, rs)
	return rest, true
}

// deliverMessage hands data to the application and retires the stream ID.
// data is only guaranteed valid during the callback (copy-on-retain).
func (c *Conn) deliverMessage(now simtime.Time, id uint64, data []byte) {
	c.markDelivered(id)
	c.stats.MessagesDelivered++
	if c.onMessage != nil {
		c.onMessage(Message{StreamID: id, Data: data, At: now})
	}
}

func (c *Conn) tryDeliver(now simtime.Time, id uint64, rs *recvStream) {
	if rs.finOff < 0 {
		return
	}
	// Walk contiguous segments from 0 into the reassembly scratch.
	buf := c.msgBuf[:0]
	off := uint64(0)
	for int64(off) < rs.finOff {
		seg, ok := rs.segs[off]
		if !ok {
			return // gap
		}
		buf = append(buf, seg...)
		off += uint64(len(seg))
	}
	c.msgBuf = buf
	//vplint:allow maporder(releases content-free scratch to the buffer pool; output never depends on reuse order)
	for _, seg := range rs.segs {
		c.putBuf(seg)
	}
	delete(c.recvStreams, id)
	c.deliverMessage(now, id, buf)
}

// queueAck registers pn for acknowledgment, flushing immediately every
// second packet or after max_ack_delay.
func (c *Conn) queueAck(pn uint64) {
	c.pendingAcks = append(c.pendingAcks, pn)
	if len(c.pendingAcks) >= 2 {
		c.flushAcks()
		return
	}
	if !c.ackPending {
		c.ackPending = true
		c.ackTimer = c.sched.AtArg(c.sched.Now().Add(25*simtime.Millisecond), c.ackSite, ackTimerFn, c)
	}
}

func ackTimerFn(a any) {
	c := a.(*Conn)
	c.ackPending = false
	c.flushAcks()
}

func (c *Conn) flushAcks() {
	if len(c.pendingAcks) == 0 || c.closed {
		return
	}
	pn := c.nextPN
	c.nextPN++
	hdrLen := 1 + 8 + VarintLen(pn)
	payloadLen := 1 + VarintLen(uint64(len(c.pendingAcks)))
	for _, apn := range c.pendingAcks {
		payloadLen += VarintLen(apn)
	}
	pkt := make([]byte, 0, hdrLen+payloadLen)
	pkt = c.appendShortHeader(pkt, pn)
	pkt = append(pkt, frameAck)
	pkt = AppendVarint(pkt, uint64(len(c.pendingAcks)))
	for _, apn := range c.pendingAcks {
		pkt = AppendVarint(pkt, apn)
	}
	c.pendingAcks = c.pendingAcks[:0]
	c.scramble(pkt[hdrLen:])
	c.stats.AcksSent++
	c.sendRaw(pkt, 0)
}

func (c *Conn) parseAck(p []byte) ([]byte, bool) {
	count, n, err := Varint(p)
	if err != nil || count > 1<<20 {
		return nil, false
	}
	p = p[n:]
	for i := uint64(0); i < count; i++ {
		pn, n, err := Varint(p)
		if err != nil {
			return nil, false
		}
		p = p[n:]
		if sp, ok := c.unacked[pn]; ok {
			sp.timer.Cancel()
			delete(c.unacked, pn)
			for _, fr := range sp.frames {
				c.fragDone(fr.streamID)
			}
			c.putSentPacket(sp)
		}
	}
	return p, true
}

// IsQUIC classifies a UDP payload as QUIC by its header form bits — the
// heuristic the paper's Wireshark analysis relies on.
func IsQUIC(payload []byte) bool {
	if len(payload) == 0 {
		return false
	}
	b := payload[0]
	if b&0xC0 == 0xC0 { // long header with fixed bit
		return len(payload) >= 5 && binary.BigEndian.Uint32(payload[1:5]) == version
	}
	return b&0xC0 == 0x40 // short header: fixed bit set, long bit clear
}

// String renders stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("sent=%d recv=%d bytes=%d rtx=%d msgs=%d",
		s.PacketsSent, s.PacketsReceived, s.BytesSent, s.Retransmissions, s.MessagesDelivered)
}

// DCID extracts the destination connection ID of a QUIC packet, or 0 if the
// packet is unparseable.
func DCID(payload []byte) uint64 {
	if len(payload) == 0 {
		return 0
	}
	switch payload[0] {
	case headerLong:
		if len(payload) >= 13 {
			return binary.BigEndian.Uint64(payload[5:13])
		}
	case headerShort:
		if len(payload) >= 9 {
			return binary.BigEndian.Uint64(payload[1:9])
		}
	}
	return 0
}

// Demux routes packets arriving on a shared link to the Conn whose ID
// matches the packet's DCID — how one UDP socket hosts many QUIC
// connections.
type Demux struct {
	conns map[uint64]*Conn
}

// NewDemux returns an empty demultiplexer.
func NewDemux() *Demux { return &Demux{conns: map[uint64]*Conn{}} }

// Add registers a connection by its local ID.
func (d *Demux) Add(c *Conn) { d.conns[c.connID] = c }

// Handler is the netem link handler that dispatches by DCID.
func (d *Demux) Handler(now simtime.Time, f netem.Frame) {
	if c, ok := d.conns[DCID(f.Payload)]; ok {
		c.Deliver(now, f)
	}
}
