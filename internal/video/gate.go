package video

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
)

// headerLen is the size of an encoded frame's header: kind byte, width and
// height (uint16 each) and the float32 qscale, little-endian.
const headerLen = 9

// header is an encoded frame's parsed header.
type header struct {
	key    bool
	w, h   int
	qscale float32
}

// castagnoli builds the CRC-32C table on first use, not at package init:
// on CPUs with hardware CRC-32C, making it also builds the folding tables
// of the hardware path, about 1.5 MB of CRC work that a process with no 2D
// video would pay at start-up for nothing.
var castagnoli = sync.OnceValue(func() *crc32.Table { return crc32.MakeTable(crc32.Castagnoli) })

// Checksum returns the CRC-32C (Castagnoli polynomial, hardware-assisted on
// common CPUs) of an encoded frame. A sender records it so that its
// receivers can accept the frame with Gate.Accept instead of decompressing
// it.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli()) }

// ErrChecksum reports a received frame whose bytes differ from the ones its
// sender checksummed.
var ErrChecksum = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)

// Gate accepts one stream's received frames without decompressing them. It
// holds the reference rule's state: the dimensions of the last frame it
// accepted, which a delta frame must match.
//
// A Decoder holds one Gate for Validate, so the header checks and the
// reference rule exist once, here.
type Gate struct {
	refW, refH int
}

// Accept checks that data is byte for byte the frame its sender
// checksummed as sum, then applies Validate's header checks and reference
// rule, and on success makes data the stream's reference. It never reads
// past the header. Every frame an Encoder produces parses, so for such a
// frame and its Checksum, Accept returns nil exactly when Validate would;
// any other bytes fail the checksum.
func (g *Gate) Accept(data []byte, sum uint32) error {
	if Checksum(data) != sum {
		return ErrChecksum
	}
	hd, err := g.check(data, nil)
	if err != nil {
		return err
	}
	g.setRef(hd)
	return nil
}

// check parses data's header and applies the reference rule: a delta frame
// needs a reference of its own size, either the last frame g accepted or
// ref, the last frame a Decoder reconstructed (nil if none).
func (g Gate) check(data []byte, ref *Frame) (header, error) {
	if len(data) < headerLen {
		return header{}, ErrCorrupt
	}
	kind := data[0]
	hd := header{
		key:    kind == frameKey,
		w:      int(binary.LittleEndian.Uint16(data[1:])),
		h:      int(binary.LittleEndian.Uint16(data[3:])),
		qscale: math.Float32frombits(binary.LittleEndian.Uint32(data[5:])),
	}
	if hd.w <= 0 || hd.h <= 0 || hd.qscale <= 0 {
		return header{}, ErrCorrupt
	}
	if !hd.key && kind != frameDelta {
		return header{}, ErrCorrupt
	}
	hasRef := (g.refW == hd.w && g.refH == hd.h) || (ref != nil && ref.W == hd.w && ref.H == hd.h)
	if !hd.key && !hasRef {
		return header{}, fmt.Errorf("%w: delta frame without reference", ErrCorrupt)
	}
	return hd, nil
}

// setRef records an accepted frame as the reference.
func (g *Gate) setRef(hd header) { g.refW, g.refH = hd.w, hd.h }
