package entropy

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// LZ parameters. Window and match bounds are fixed for the whole repository;
// the streams we compress (float32 keypoints, quantized mesh residuals)
// are small per frame, so a 64 KiB window always covers them.
const (
	minMatch    = 3
	maxMatch    = minMatch + 254 // length-minMatch fits the 8-bit tree
	maxDistance = 1 << 16
	hashBits    = 15
)

func hash3(b []byte) uint32 {
	v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16
	return (v * 2654435761) >> (32 - hashBits)
}

type lzModels struct {
	isMatch  Prob
	lit      *BitTree
	length   *BitTree
	distSlot *BitTree
	_        [cacheGap]byte
}

// cacheGap pads the coder structs written on every symbol or bit, lzModels
// (isMatch) and Compressor (its RangeEncoder's low and rng), so that two
// coders allocated back to back, as two senders' are, share no cache line
// (nor the adjacent line a CPU prefetches with it) while they run on two
// cores. BenchmarkCompressParallel measures it.
const cacheGap = 128

func newLZModels() *lzModels {
	return &lzModels{
		isMatch:  probInit,
		lit:      NewBitTree(8),
		length:   NewBitTree(8),
		distSlot: NewBitTree(5),
	}
}

// reset restores all adaptive probabilities to p=0.5, making the models
// reusable across independent streams without reallocating.
func (m *lzModels) reset() {
	m.isMatch = probInit
	m.lit.Reset()
	m.length.Reset()
	m.distSlot.Reset()
}

// literal codes one literal: an isMatch bit of 0, then the byte. The coder
// state stays in locals across the two.
func (m *lzModels) literal(e *RangeEncoder, b byte) {
	low, rng, p := encodeBit(e.low, e.rng, m.isMatch, 0)
	m.isMatch = p
	for rng < topValue {
		rng <<= 8
		low = e.shiftLow(low)
	}
	e.low, e.rng = e.encodeTree(low, rng, &m.lit.probs, uint32(b)<<24, 1<<8)
}

// match codes one match: an isMatch bit of 1, the length, then distance-1
// as a bit-width slot plus the low bits directly (cheap for the short
// distances that dominate coherent streams).
func (m *lzModels) match(e *RangeEncoder, length, dist int) {
	e.EncodeBit(&m.isMatch, 1)
	m.length.Encode(e, uint32(length-minMatch))
	d := uint32(dist - 1)
	slot := nbits(d)
	m.distSlot.Encode(e, uint32(slot))
	if slot > 1 {
		e.EncodeDirect(d&((1<<(slot-1))-1), slot-1)
	}
}

// nbits returns the bit width of v (>=1 for v>=0; nbits(0)==0).
func nbits(v uint32) int {
	n := 0
	for v != 0 {
		n++
		v >>= 1
	}
	return n
}

// matchLen returns the length of the common prefix of src[a:] and src[b:]
// capped at limit, comparing 8 bytes at a time. Equivalent to the obvious
// byte loop (the coherent streams we compress have long runs, where the
// word comparison is ~8x cheaper).
func matchLen(src []byte, a, b, limit int) int {
	l := 0
	for l+8 <= limit {
		x := binary.LittleEndian.Uint64(src[a+l:])
		y := binary.LittleEndian.Uint64(src[b+l:])
		if x != y {
			return l + bits.TrailingZeros64(x^y)/8
		}
		l += 8
	}
	for l < limit && src[a+l] == src[b+l] {
		l++
	}
	return l
}

// worthIt reports whether a match of the given length and distance is
// expected to beat coding the same bytes as adaptive literals. Long
// distances cost more bits, so they need longer matches to pay off.
func worthIt(length, dist int) bool {
	switch {
	case dist < 256:
		return length >= minMatch
	case dist < 4096:
		return length >= minMatch+1
	default:
		return length >= minMatch+2
	}
}

// Compressor is a reusable LZ77 + range-coder pipeline. Reuse across calls
// eliminates the dominant allocation of one-shot Compress: the 128 KiB hash
// head table, which a generation stamp makes reusable without clearing.
// Output is byte-identical to the package-level Compress.
type Compressor struct {
	m   *lzModels
	enc RangeEncoder
	// head[h] holds (gen<<32 | position) of the latest insertion for hash
	// h; entries from earlier calls fail the generation check and read as
	// absent, so the table never needs re-initialization.
	head []uint64
	prev []int32
	gen  uint64
	_    [cacheGap]byte
}

// NewCompressor returns an empty, reusable compressor.
func NewCompressor() *Compressor {
	return &Compressor{m: newLZModels(), head: make([]uint64, 1<<hashBits)}
}

// Compress compresses src with LZ77 match finding and adaptive range coding
// and appends the result to dst. The output embeds the uncompressed length.
func (c *Compressor) Compress(dst, src []byte) []byte {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(src)))
	dst = append(dst, hdr[:n]...)
	if len(src) == 0 {
		return dst
	}

	c.gen++
	if c.gen >= 1<<32 {
		// Generation space exhausted (after 4G calls): clear and restart.
		for i := range c.head {
			c.head[i] = 0
		}
		c.gen = 1
	}
	gen := c.gen << 32
	head := c.head
	if cap(c.prev) < len(src) {
		c.prev = make([]int32, len(src))
	}
	prev := c.prev[:len(src)]

	c.m.reset()
	m := c.m
	c.enc.Reset(dst)
	enc := &c.enc

	// lookup returns the chain head for hash h, or -1 for entries written
	// by earlier Compress calls.
	lookup := func(h uint32) int32 {
		if e := head[h]; e>>32 == c.gen {
			return int32(uint32(e))
		}
		return -1
	}
	insert := func(i int) {
		if i+minMatch <= len(src) {
			h := hash3(src[i:])
			prev[i] = lookup(h)
			head[h] = gen | uint64(uint32(i))
		}
	}

	i := 0
	for i < len(src) {
		bestLen, bestDist := 0, 0
		if i+minMatch <= len(src) {
			h := hash3(src[i:])
			first := lookup(h)
			cand := first
			tries := 32
			limit := len(src) - i
			if limit > maxMatch {
				limit = maxMatch
			}
			for cand >= 0 && tries > 0 {
				d := i - int(cand)
				if d > maxDistance {
					break
				}
				// A candidate that differs at bestLen cannot beat the best
				// match, so skip measuring it (it still costs a try).
				if src[int(cand)+bestLen] == src[i+bestLen] {
					l := matchLen(src, int(cand), i, limit)
					if l > bestLen && worthIt(l, d) {
						bestLen, bestDist = l, d
						if l == limit {
							break
						}
					}
				}
				cand = prev[cand]
				tries--
			}
			// Insert i from the hash and chain head the search just read:
			// nothing between the two touches head, so this is insert(i)
			// without hashing and looking up again.
			prev[i] = first
			head[h] = gen | uint64(uint32(i))
		}
		if bestLen >= minMatch && worthIt(bestLen, bestDist) {
			m.match(enc, bestLen, bestDist)
			for k := 1; k < bestLen; k++ {
				insert(i + k)
			}
			i += bestLen
		} else {
			m.literal(enc, src[i])
			i++
		}
	}
	return enc.Flush()
}

// Compress compresses src with LZ77 match finding and adaptive range coding
// and appends the result to dst. One-shot convenience over Compressor; hot
// paths should hold a Compressor and reuse it.
func Compress(dst, src []byte) []byte {
	return NewCompressor().Compress(dst, src)
}

// Decompressor is the reusable counterpart of Compressor.
type Decompressor struct {
	m   *lzModels
	dec RangeDecoder
}

// NewDecompressor returns an empty, reusable decompressor.
func NewDecompressor() *Decompressor {
	return &Decompressor{m: newLZModels()}
}

// Decompress decodes a Compress stream appended after dst. It fails loudly
// on corrupt or truncated input.
func (c *Decompressor) Decompress(dst, src []byte) ([]byte, error) {
	size, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad length header", ErrCorrupt)
	}
	if size == 0 {
		return dst, nil
	}
	if size > 1<<31 {
		return nil, fmt.Errorf("%w: implausible length %d", ErrCorrupt, size)
	}
	if err := c.dec.Reset(src[n:]); err != nil {
		return nil, err
	}
	dec := &c.dec
	c.m.reset()
	m := c.m

	// isMatchBit mirrors the hand-inlined encoder-side bit.
	isMatchBit := func() int {
		p := m.isMatch
		bound := (dec.rng >> probBits) * uint32(p)
		var bit int
		if dec.code < bound {
			dec.rng = bound
			m.isMatch = p + (probTotal-p)>>moveBits
		} else {
			dec.code -= bound
			dec.rng -= bound
			m.isMatch = p - p>>moveBits
			bit = 1
		}
		if dec.rng < topValue {
			dec.normalize()
		}
		return bit
	}

	// Write through a cursor instead of paying append bookkeeping per
	// literal. The declared size bounds the output but does not size the
	// first allocation: a forged header can declare 2 GiB in five bytes, so
	// preallocate in proportion to the input and grow as the output does.
	base := len(dst)
	need := base + int(size)
	out := extend(dst, min(need, max(cap(dst), base+preallocMin+preallocPerByte*len(src))))
	w := base
	for w < need {
		if isMatchBit() == 0 {
			if w == len(out) {
				out = extend(out, min(need, 2*len(out)))
			}
			out[w] = byte(m.lit.Decode(dec))
			w++
		} else {
			length := int(m.length.Decode(dec)) + minMatch
			slot := int(m.distSlot.Decode(dec))
			var d uint32
			if slot > 0 {
				d = 1 << (slot - 1)
				if slot > 1 {
					d |= dec.DecodeDirect(slot - 1)
				}
			}
			dist := int(d) + 1
			start := w - dist
			if start < base {
				return nil, fmt.Errorf("%w: match before window start", ErrCorrupt)
			}
			if w+length > need {
				return nil, fmt.Errorf("%w: match overruns declared size", ErrCorrupt)
			}
			if w+length > len(out) {
				out = extend(out, min(need, max(2*len(out), w+length)))
			}
			if dist >= length {
				copy(out[w:w+length], out[start:start+length])
				w += length
			} else {
				for k := 0; k < length; k++ {
					out[w] = out[start+k]
					w++
				}
			}
		}
		if dec.Err() != nil {
			return nil, dec.Err()
		}
	}
	return out, nil
}

// Decompress's first output allocation is preallocMin plus preallocPerByte
// bytes per input byte, capped at the declared size. Adaptive probabilities
// cap how many bytes one input bit can decode to, so a short forged stream
// fails long before its declared size; real streams that expand further
// grow the output by doubling.
const (
	preallocMin     = 4 << 10
	preallocPerByte = 64
)

// extend returns out resliced to length n, copying it into a new array
// only when its capacity is short.
func extend(out []byte, n int) []byte {
	if n <= cap(out) {
		return out[:n]
	}
	grown := make([]byte, n)
	copy(grown, out)
	return grown
}

// Decompress decodes a Compress stream appended after dst. One-shot
// convenience over Decompressor; hot paths should hold a Decompressor.
func Decompress(dst, src []byte) ([]byte, error) {
	return NewDecompressor().Decompress(dst, src)
}
