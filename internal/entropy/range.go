// Package entropy implements the compression machinery shared by the mesh
// codec and the semantic (keypoint) codec: an adaptive binary range coder in
// the LZMA style plus an LZ77 front end. The paper compresses keypoints with
// LZMA (§4.3); stdlib Go has no LZMA, so this package is the documented
// substitute — same architecture (match finding + adaptive range coding),
// same behaviour class on the low-entropy delta streams we feed it.
//
// The encoder is written for the spatial-persona send path, where float32
// mantissa bits are close to coin flips: each adaptive bit selects its
// update with a mask instead of a branch, the coder state stays in
// registers for a whole symbol, and the match finder hashes each literal
// position once. None of this changes an output byte (see DESIGN.md,
// "Bit-exact kernels").
package entropy

import (
	"errors"
	"fmt"
)

const (
	probBits  = 11
	probInit  = 1 << (probBits - 1) // 1024: p=0.5
	moveBits  = 5
	topValue  = 1 << 24
	probTotal = 1 << probBits
)

// Prob is an adaptive binary probability state (11-bit, LZMA-style).
type Prob uint16

// NewProbs allocates n probability states initialized to p=0.5.
func NewProbs(n int) []Prob {
	ps := make([]Prob, n)
	for i := range ps {
		ps[i] = probInit
	}
	return ps
}

// RangeEncoder is a carry-handling binary range encoder.
type RangeEncoder struct {
	low       uint64
	rng       uint32
	cache     byte
	cacheSize int64
	out       []byte
}

// NewRangeEncoder returns an encoder appending to out (may be nil).
func NewRangeEncoder(out []byte) *RangeEncoder {
	return &RangeEncoder{rng: 0xFFFFFFFF, cacheSize: 1, out: out}
}

// Reset re-initializes the encoder to append a fresh stream to out,
// reusing the receiver.
func (e *RangeEncoder) Reset(out []byte) {
	*e = RangeEncoder{rng: 0xFFFFFFFF, cacheSize: 1, out: out}
}

// shiftLow moves the top byte of low out to the stream (through the
// one-byte cache that resolves carries) and returns the shifted low. The
// coder methods keep low in a register and pass it here about once per
// output byte. It stays out of line: inlined, its append spills the coder
// loops' registers on every bit.
//
//go:noinline
func (e *RangeEncoder) shiftLow(low uint64) uint64 {
	if uint32(low) < 0xFF000000 || low>>32 != 0 {
		carry := byte(low >> 32)
		temp := e.cache
		for {
			e.out = append(e.out, temp+carry)
			temp = 0xFF
			e.cacheSize--
			if e.cacheSize == 0 {
				break
			}
		}
		e.cache = byte(low >> 24)
	}
	e.cacheSize++
	return (low << 8) & 0xFFFFFFFF
}

// encodeBit codes one adaptive bit on register copies of the coder state
// and returns the new state; the caller normalizes. bit must be 0 or 1.
//
// The mantissa bits of keypoint floats are close to coin flips, so a branch
// on bit mispredicts about half the time. mask = -bit is all zeros for 0
// and all ones for 1, and selects between the two updates of the branchy
// form: for 0, rng = bound and p += (probTotal-p)>>moveBits; for 1, low +=
// bound, rng -= bound and p -= p>>moveBits. The arithmetic is the same, so
// the output is too.
func encodeBit(low uint64, rng uint32, p Prob, bit uint32) (uint64, uint32, Prob) {
	mask := -bit
	v := uint32(p)
	bound := (rng >> probBits) * v
	return low + uint64(bound&mask), bound&^mask | (rng-bound)&mask,
		Prob(v + (probTotal-v)>>moveBits&^mask - v>>moveBits&mask)
}

// EncodeBit encodes bit (0 or 1) under the adaptive probability p.
func (e *RangeEncoder) EncodeBit(p *Prob, bit int) {
	low, rng, q := encodeBit(e.low, e.rng, *p, uint32(bit))
	*p = q
	for rng < topValue {
		rng <<= 8
		low = e.shiftLow(low)
	}
	e.low, e.rng = low, rng
}

// EncodeDirect encodes nbits of v (MSB first) at fixed probability 0.5.
func (e *RangeEncoder) EncodeDirect(v uint32, nbits int) {
	low, rng := e.low, e.rng
	for i := nbits - 1; i >= 0; i-- {
		rng >>= 1
		low += uint64(rng & -(v >> uint(i) & 1))
		for rng < topValue {
			rng <<= 8
			low = e.shiftLow(low)
		}
	}
	e.low, e.rng = low, rng
}

// Flush finalizes the stream and returns the encoded bytes.
func (e *RangeEncoder) Flush() []byte {
	for i := 0; i < 5; i++ {
		e.low = e.shiftLow(e.low)
	}
	return e.out
}

// ErrCorrupt is returned when a compressed stream cannot be decoded.
var ErrCorrupt = errors.New("entropy: corrupt stream")

// RangeDecoder mirrors RangeEncoder.
type RangeDecoder struct {
	code uint32
	rng  uint32
	in   []byte
	pos  int
	err  bool
}

// NewRangeDecoder initializes a decoder over the encoder's output.
func NewRangeDecoder(in []byte) (*RangeDecoder, error) {
	d := &RangeDecoder{}
	if err := d.Reset(in); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset re-initializes the decoder over a fresh stream, reusing the
// receiver.
func (d *RangeDecoder) Reset(in []byte) error {
	if len(in) < 5 {
		return ErrCorrupt
	}
	*d = RangeDecoder{rng: 0xFFFFFFFF, in: in, pos: 1} // first byte is always 0
	for i := 0; i < 4; i++ {
		d.code = d.code<<8 | uint32(d.next())
	}
	return nil
}

func (d *RangeDecoder) next() byte {
	if d.pos >= len(d.in) {
		// Reading past the end is how truncation manifests; remember it so
		// callers get a hard error instead of garbage.
		d.err = true
		return 0
	}
	b := d.in[d.pos]
	d.pos++
	return b
}

// Err reports whether the decoder ran off the end of its input.
func (d *RangeDecoder) Err() error {
	if d.err {
		return ErrCorrupt
	}
	return nil
}

// DecodeBit decodes one bit under p. Normalization is split out so the hot
// path inlines, mirroring EncodeBit.
func (d *RangeDecoder) DecodeBit(p *Prob) int {
	bound := (d.rng >> probBits) * uint32(*p)
	var bit int
	if d.code < bound {
		d.rng = bound
		*p += (probTotal - *p) >> moveBits
	} else {
		d.code -= bound
		d.rng -= bound
		*p -= *p >> moveBits
		bit = 1
	}
	if d.rng < topValue {
		d.normalize()
	}
	return bit
}

func (d *RangeDecoder) normalize() {
	for d.rng < topValue {
		d.rng <<= 8
		d.code = d.code<<8 | uint32(d.next())
	}
}

// DecodeDirect decodes nbits encoded with EncodeDirect.
func (d *RangeDecoder) DecodeDirect(nbits int) uint32 {
	var v uint32
	for i := 0; i < nbits; i++ {
		d.rng >>= 1
		bit := uint32(0)
		if d.code >= d.rng {
			d.code -= d.rng
			bit = 1
		}
		v = v<<1 | bit
		for d.rng < topValue {
			d.rng <<= 8
			d.code = d.code<<8 | uint32(d.next())
		}
	}
	return v
}

// BitTree codes fixed-width symbols bit by bit with per-node adaptive
// probabilities (the standard LZMA building block). Symbols are at most
// maxTreeBits wide, so the nodes fit one fixed array and uint8 node indices
// need no bounds checks.
type BitTree struct {
	probs [1 << maxTreeBits]Prob
	bits  int
}

// maxTreeBits is the widest BitTree: the literal and match-length trees.
const maxTreeBits = 8

// NewBitTree returns a tree for symbols of the given bit width (1 to 8).
func NewBitTree(bits int) *BitTree {
	if bits < 1 || bits > maxTreeBits {
		panic(fmt.Sprintf("entropy: BitTree width %d outside 1..%d", bits, maxTreeBits))
	}
	t := &BitTree{bits: bits}
	t.Reset()
	return t
}

// Reset restores every node to p=0.5 so the tree can code a fresh stream.
func (t *BitTree) Reset() {
	for i := range t.probs[:1<<t.bits] {
		t.probs[i] = probInit
	}
}

// Encode writes sym (must fit in the tree's width).
func (t *BitTree) Encode(e *RangeEncoder, sym uint32) {
	e.low, e.rng = e.encodeTree(e.low, e.rng, &t.probs, sym<<(32-t.bits), 1<<t.bits)
}

// encodeTree codes a symbol's bits, MSB first from bit 31 of s, down a
// tree of probs until the node index ctx reaches end (1<<width). The coder
// state comes in and goes out in registers, so a caller can code more bits
// of the same symbol around it without a round trip through e.
func (e *RangeEncoder) encodeTree(low uint64, rng uint32, probs *[1 << maxTreeBits]Prob, s, end uint32) (uint64, uint32) {
	for ctx := uint32(1); ctx < end; {
		bit := s >> 31
		s <<= 1
		low, rng, probs[uint8(ctx)] = encodeBit(low, rng, probs[uint8(ctx)], bit)
		ctx = ctx<<1 | bit
		for rng < topValue {
			rng <<= 8
			low = e.shiftLow(low)
		}
	}
	return low, rng
}

// Decode reads one symbol, with the decoder state in locals as in
// encodeTree. It indexes a slice of the nodes: unlike the encoder's loop,
// this one measured slower with uint8 indices into the array.
func (t *BitTree) Decode(d *RangeDecoder) uint32 {
	probs := t.probs[:1<<t.bits]
	rng, code := d.rng, d.code
	in, pos := d.in, d.pos
	ctx := uint32(1)
	for i := 0; i < t.bits; i++ {
		p := probs[ctx]
		bound := (rng >> probBits) * uint32(p)
		var bit uint32
		if code < bound {
			rng = bound
			probs[ctx] = p + (probTotal-p)>>moveBits
		} else {
			code -= bound
			rng -= bound
			probs[ctx] = p - p>>moveBits
			bit = 1
		}
		for rng < topValue {
			rng <<= 8
			var b byte
			if pos < len(in) {
				b = in[pos]
				pos++
			} else {
				d.err = true
			}
			code = code<<8 | uint32(b)
		}
		ctx = ctx<<1 | bit
	}
	d.rng, d.code, d.pos = rng, code, pos
	return ctx - 1<<t.bits
}
