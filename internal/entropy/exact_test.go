package entropy

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"telepresence/internal/keypoints"
	"telepresence/internal/simrand"
)

// compressCorpus is a mixed corpus for pinning the LZ match finder: random
// bytes (no matches), low-alphabet bytes (short matches, many hash-chain
// candidates), repetitive text (long matches) and periodic data with
// sparse noise (matches cut short at a mismatch).
func compressCorpus() [][]byte {
	rng := simrand.New(21)
	var corpus [][]byte
	for i := 0; i < 400; i++ {
		buf := make([]byte, rng.Intn(6000))
		switch i % 4 {
		case 0:
			for j := range buf {
				buf[j] = byte(rng.Intn(256))
			}
		case 1:
			alpha := 2 + rng.Intn(6)
			for j := range buf {
				buf[j] = byte(rng.Intn(alpha))
			}
		case 2:
			words := []string{"persona ", "keypoint ", "vision ", "pro ", "spatial "}
			var b []byte
			for len(b) < len(buf) {
				b = append(b, words[rng.Intn(len(words))]...)
			}
			copy(buf, b)
		case 3:
			period := 1 + rng.Intn(300)
			for j := range buf {
				buf[j] = byte(j % period)
				if rng.Intn(50) == 0 {
					buf[j] ^= byte(1 + rng.Intn(255))
				}
			}
		}
		corpus = append(corpus, buf)
	}
	return corpus
}

// TestCompressDigest pins the compressed bytes of the mixed corpus. The
// digest was recorded before the match finder's chain pre-check; the match
// finder must stay bit-exact.
func TestCompressDigest(t *testing.T) {
	const want = "132cd253a6a7efff0156be3814067c95114a5ef7f805e1f43771430075f6fe45"
	c := NewCompressor()
	d := NewDecompressor()
	h := sha256.New()
	var dst, raw []byte
	for i, src := range compressCorpus() {
		dst = c.Compress(dst[:0], src)
		h.Write(dst)
		var err error
		if raw, err = d.Decompress(raw[:0], dst); err != nil || string(raw) != string(src) {
			t.Fatalf("buffer %d: round trip failed (err %v)", i, err)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("compress digest = %s, want %s", got, want)
	}
}

// keypointFrames returns n distinct generator frames laid out as the
// semantic encoder's body: the 74 tracked points and the three
// head angles as little-endian float32, 900 bytes a frame.
func keypointFrames(seed int64, n int) [][]byte {
	g := keypoints.NewGenerator(simrand.New(seed), 0.5)
	out := make([][]byte, n)
	for i := range out {
		f := g.Next()
		var vs []float64
		for _, p := range f.Tracked() {
			vs = append(vs, p.X, p.Y, p.Z)
		}
		vs = append(vs, f.HeadYaw, f.HeadPitch, f.HeadRoll)
		buf := make([]byte, 0, 4*len(vs))
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(v)))
		}
		out[i] = buf
	}
	return out
}

// TestCompressKeypointDigest pins the compressed bytes of 256 keypoint
// frames, the spatial-persona payload. The digest was recorded before the
// coder went branch-free and the literal path stopped re-hashing.
func TestCompressKeypointDigest(t *testing.T) {
	const want = "c32f5192d2b3309a2f2a3e172948c79ba612b5ec22c948ed83367c6f29280873"
	c := NewCompressor()
	d := NewDecompressor()
	h := sha256.New()
	var dst, raw []byte
	for i, src := range keypointFrames(5, 256) {
		dst = c.Compress(dst[:0], src)
		h.Write(dst)
		var err error
		if raw, err = d.Decompress(raw[:0], dst); err != nil || !bytes.Equal(raw, src) {
			t.Fatalf("frame %d: round trip failed (err %v)", i, err)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("keypoint compress digest = %s, want %s", got, want)
	}
}

// refEncoder is the branchy range encoder the coder replaced, kept as the
// reference: one branch per adaptive bit on its value, state in the struct.
type refEncoder struct {
	low       uint64
	rng       uint32
	cache     byte
	cacheSize int64
	out       []byte
	carries   int // shiftLow calls that propagated a carry
}

func newRefEncoder() *refEncoder { return &refEncoder{rng: 0xFFFFFFFF, cacheSize: 1} }

func (e *refEncoder) shiftLow() {
	if uint32(e.low) < 0xFF000000 || e.low>>32 != 0 {
		if e.low>>32 != 0 {
			e.carries++
		}
		carry := byte(e.low >> 32)
		temp := e.cache
		for {
			e.out = append(e.out, temp+carry)
			temp = 0xFF
			e.cacheSize--
			if e.cacheSize == 0 {
				break
			}
		}
		e.cache = byte(e.low >> 24)
	}
	e.cacheSize++
	e.low = (e.low << 8) & 0xFFFFFFFF
}

func (e *refEncoder) encodeBit(p *Prob, bit int) {
	bound := (e.rng >> probBits) * uint32(*p)
	if bit == 0 {
		e.rng = bound
		*p += (probTotal - *p) >> moveBits
	} else {
		e.low += uint64(bound)
		e.rng -= bound
		*p -= *p >> moveBits
	}
	for e.rng < topValue {
		e.rng <<= 8
		e.shiftLow()
	}
}

func (e *refEncoder) encodeTree(probs []Prob, bits int, sym uint32) {
	ctx := uint32(1)
	for i := bits - 1; i >= 0; i-- {
		bit := (sym >> uint(i)) & 1
		e.encodeBit(&probs[ctx], int(bit))
		ctx = ctx<<1 | bit
	}
}

func (e *refEncoder) encodeDirect(v uint32, nbits int) {
	for i := nbits - 1; i >= 0; i-- {
		e.rng >>= 1
		if (v>>uint(i))&1 != 0 {
			e.low += uint64(e.rng)
		}
		for e.rng < topValue {
			e.rng <<= 8
			e.shiftLow()
		}
	}
}

func (e *refEncoder) flush() []byte {
	for i := 0; i < 5; i++ {
		e.shiftLow()
	}
	return e.out
}

// TestCoderMatchesReference drives the coder and refEncoder with the same
// random mix of EncodeBit, BitTree.Encode (8- and 5-bit trees) and
// EncodeDirect, 1.2×10⁶ symbols over eight streams, and
// requires identical bytes and probabilities. Biased stretches drive
// probabilities to both ends of their range (31 and 2017), coin-flip
// stretches keep the branchy form mispredicting, and the streams are long
// enough to propagate carries.
func TestCoderMatchesReference(t *testing.T) {
	rng := simrand.New(77)
	var symbols, carries int
	minP, maxP := Prob(probInit), Prob(probInit)
	for stream := 0; stream < 8; stream++ {
		enc, ref := NewRangeEncoder(nil), newRefEncoder()
		bitProbs, refBitProbs := NewProbs(4), NewProbs(4)
		trees := []*BitTree{NewBitTree(8), NewBitTree(5)}
		refTrees := [][]Prob{NewProbs(1 << 8), NewProbs(1 << 5)}
		bias := 0.5
		for symbols < (stream+1)*150000 {
			if rng.Intn(500) == 0 {
				bias = []float64{0, 0.02, 0.5, 0.98, 1}[rng.Intn(5)]
			}
			bit := 0
			if rng.Float64() < bias {
				bit = 1
			}
			switch op := rng.Intn(10); {
			case op < 6:
				k := rng.Intn(len(bitProbs))
				enc.EncodeBit(&bitProbs[k], bit)
				ref.encodeBit(&refBitProbs[k], bit)
				minP, maxP = min(minP, refBitProbs[k]), max(maxP, refBitProbs[k])
				symbols++
			case op < 9:
				k := rng.Intn(len(trees))
				bits := 8 - 3*k
				sym := uint32(rng.Intn(1 << bits))
				if bias != 0.5 {
					// Biased stretches repeat one symbol, driving its
					// path's nodes to one end.
					sym = uint32(bit) * (1<<bits - 1)
				}
				trees[k].Encode(enc, sym)
				ref.encodeTree(refTrees[k], bits, sym)
				symbols++
			default:
				nbits := rng.Intn(33)
				v := uint32(rng.Int63())
				enc.EncodeDirect(v, nbits)
				ref.encodeDirect(v, nbits)
				symbols++
			}
		}
		got, want := enc.Flush(), ref.flush()
		if !bytes.Equal(got, want) {
			t.Fatalf("stream %d: %d bytes differ from the reference's %d", stream, len(got), len(want))
		}
		for k := range bitProbs {
			if bitProbs[k] != refBitProbs[k] {
				t.Fatalf("stream %d: bit prob %d = %d, reference %d", stream, k, bitProbs[k], refBitProbs[k])
			}
		}
		for k, tr := range trees {
			for i, p := range refTrees[k] {
				if tr.probs[i] != p {
					t.Fatalf("stream %d: tree %d node %d = %d, reference %d", stream, k, i, tr.probs[i], p)
				}
			}
		}
		carries += ref.carries
	}
	if minP != 31 || maxP != 2017 {
		t.Errorf("probabilities reached [%d, %d], want both ends [31, 2017]", minP, maxP)
	}
	if carries == 0 {
		t.Error("no carry propagated; the streams do not exercise shiftLow's carry path")
	}
}
