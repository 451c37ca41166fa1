package rtp

import (
	"encoding/binary"
	"fmt"
)

// Recovery wire formats: the NACK feedback packet (receiver -> sender,
// requesting retransmission of lost sequence numbers) and the XOR parity
// packet (sender -> receiver, protecting a group of consecutive media
// packets). Both ride the same links as RTP media and receiver reports, so
// each family gets a distinct first byte whose top bits are 01: a recovery
// packet can never parse as RTP (version 2, top bits 10), and the three
// non-RTP families (report 'R', NACK 'N', parity 'F') can never parse as
// each other. TestWireFamiliesDisjoint pins the property.

// ------------------------------------------------------------------- NACK

// Nack is a receiver-driven retransmission request: the sequence numbers of
// SSRC's media stream the receiver believes lost. The sender answers from
// its retransmit cache (internal/recovery).
type Nack struct {
	// SSRC identifies the media stream the request is about (the sender's
	// SSRC, like ReceiverReport.SSRC).
	SSRC uint32
	// Seqs are the missing sequence numbers, at most MaxNackSeqs per
	// packet.
	Seqs []uint16
}

// NACK wire format: [magic0 magic1 ver count] SSRC seq*count.
const (
	nackMagic0 = 0x4E // 'N'; top bits 01, so never RTP, and != report/parity
	nackMagic1 = 0x4B // 'K'
	nackVer    = 1
	// nackHeaderLen is the fixed prefix before the seq list.
	nackHeaderLen = 8
	// MaxNackSeqs bounds the seq list of one NACK packet; a receiver with
	// more outstanding losses sends the rest in later packets.
	MaxNackSeqs = 64
)

// IsNack classifies a payload as a marshaled Nack.
func IsNack(b []byte) bool {
	return len(b) >= nackHeaderLen && b[0] == nackMagic0 && b[1] == nackMagic1 && b[2] == nackVer
}

// Marshal appends the wire encoding to b. It panics if the seq list exceeds
// MaxNackSeqs (a programming error in the caller's batching).
func (n *Nack) Marshal(b []byte) []byte {
	if len(n.Seqs) > MaxNackSeqs {
		panic(fmt.Sprintf("rtp: Nack with %d seqs exceeds MaxNackSeqs %d", len(n.Seqs), MaxNackSeqs))
	}
	b = append(b, nackMagic0, nackMagic1, nackVer, byte(len(n.Seqs)))
	b = binary.BigEndian.AppendUint32(b, n.SSRC)
	for _, s := range n.Seqs {
		b = binary.BigEndian.AppendUint16(b, s)
	}
	return b
}

// Unmarshal parses a marshaled Nack. The seq list is appended to
// n.Seqs[:0], so a reused Nack does not allocate. A list longer than
// MaxNackSeqs is malformed: Marshal never writes one.
func (n *Nack) Unmarshal(b []byte) error {
	if !IsNack(b) {
		return fmt.Errorf("%w: not a nack", ErrMalformed)
	}
	count := int(b[3])
	if count > MaxNackSeqs {
		return fmt.Errorf("%w: nack of %d seqs exceeds %d", ErrMalformed, count, MaxNackSeqs)
	}
	if len(b) < nackHeaderLen+2*count {
		return fmt.Errorf("%w: nack truncated (%d seqs, %d bytes)", ErrMalformed, count, len(b))
	}
	n.SSRC = binary.BigEndian.Uint32(b[4:])
	n.Seqs = n.Seqs[:0]
	for i := 0; i < count; i++ {
		n.Seqs = append(n.Seqs, binary.BigEndian.Uint16(b[nackHeaderLen+2*i:]))
	}
	return nil
}

// ------------------------------------------------------------- FEC parity

// Parity is one XOR forward-error-correction packet protecting the Count
// consecutive media packets [BaseSeq, BaseSeq+Count) of SSRC's stream: Data
// is the bytewise XOR of the full RTP packets (header included), each
// right-padded with zeros to the length of the longest, and LenXor is the
// XOR of their lengths. A receiver holding all but one packet of the group
// reconstructs the missing one exactly (internal/recovery.Receiver).
type Parity struct {
	SSRC    uint32
	BaseSeq uint16
	// Count is the protected group size k, at least 2.
	Count uint8
	// LenXor is the XOR of the k packets' lengths; XORing out the known
	// lengths recovers the missing packet's length.
	LenXor uint16
	// Data is the XOR of the padded packets; len(Data) is the length of the
	// longest packet in the group.
	Data []byte
}

// Parity wire format: [magic0 magic1 ver count] SSRC baseSeq lenXor data.
const (
	parityMagic0 = 0x46 // 'F'; top bits 01, so never RTP, and != report/nack
	parityMagic1 = 0x50 // 'P'
	parityVer    = 1
	// ParityHeaderLen is the fixed prefix before the XOR payload.
	ParityHeaderLen = 12
)

// IsParity classifies a payload as a marshaled Parity.
func IsParity(b []byte) bool {
	return len(b) >= ParityHeaderLen && b[0] == parityMagic0 && b[1] == parityMagic1 && b[2] == parityVer
}

// ParitySSRC reads the stream SSRC of a payload IsParity has classified,
// without the full unmarshal the demux path would otherwise pay twice.
func ParitySSRC(b []byte) uint32 { return binary.BigEndian.Uint32(b[4:]) }

// Marshal appends the wire encoding to b.
func (p *Parity) Marshal(b []byte) []byte {
	b = append(b, parityMagic0, parityMagic1, parityVer, p.Count)
	b = binary.BigEndian.AppendUint32(b, p.SSRC)
	b = binary.BigEndian.AppendUint16(b, p.BaseSeq)
	b = binary.BigEndian.AppendUint16(b, p.LenXor)
	return append(b, p.Data...)
}

// Unmarshal parses a marshaled Parity. Data aliases b: the caller must not
// reuse b while the Parity is live.
func (p *Parity) Unmarshal(b []byte) error {
	if !IsParity(b) {
		return fmt.Errorf("%w: not a parity packet", ErrMalformed)
	}
	p.Count = b[3]
	if p.Count < 2 {
		return fmt.Errorf("%w: parity group of %d", ErrMalformed, p.Count)
	}
	p.SSRC = binary.BigEndian.Uint32(b[4:])
	p.BaseSeq = binary.BigEndian.Uint16(b[8:])
	p.LenXor = binary.BigEndian.Uint16(b[10:])
	p.Data = b[ParityHeaderLen:]
	return nil
}
