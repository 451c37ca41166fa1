package entropy

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"

	"telepresence/internal/simrand"
)

func TestRangeCoderBits(t *testing.T) {
	enc := NewRangeEncoder(nil)
	probs := NewProbs(4)
	bits := []int{0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1}
	for i, b := range bits {
		enc.EncodeBit(&probs[i%4], b)
	}
	out := enc.Flush()

	dec, err := NewRangeDecoder(out)
	if err != nil {
		t.Fatal(err)
	}
	dprobs := NewProbs(4)
	for i, want := range bits {
		if got := dec.DecodeBit(&dprobs[i%4]); got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
}

func TestRangeCoderDirect(t *testing.T) {
	enc := NewRangeEncoder(nil)
	vals := []struct {
		v    uint32
		bits int
	}{{0, 1}, {1, 1}, {0xFFFF, 16}, {12345, 16}, {0, 16}, {0xABCDEF, 24}, {1, 32}}
	for _, c := range vals {
		enc.EncodeDirect(c.v, c.bits)
	}
	dec, err := NewRangeDecoder(enc.Flush())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range vals {
		if got := dec.DecodeDirect(c.bits); got != c.v {
			t.Fatalf("direct %d-bit = %d, want %d", c.bits, got, c.v)
		}
	}
}

func TestBitTreeRoundTrip(t *testing.T) {
	enc := NewRangeEncoder(nil)
	tree := NewBitTree(8)
	syms := []uint32{0, 255, 128, 1, 2, 3, 250, 17, 17, 17}
	for _, s := range syms {
		tree.Encode(enc, s)
	}
	dec, err := NewRangeDecoder(enc.Flush())
	if err != nil {
		t.Fatal(err)
	}
	dtree := NewBitTree(8)
	for i, want := range syms {
		if got := dtree.Decode(dec); got != want {
			t.Fatalf("sym %d = %d, want %d", i, got, want)
		}
	}
}

func TestAdaptiveCoderBeatsUniform(t *testing.T) {
	// A 95/5 biased bit stream should compress well below 1 bit/symbol.
	rng := simrand.New(1)
	enc := NewRangeEncoder(nil)
	p := NewProbs(1)
	const n = 100000
	for i := 0; i < n; i++ {
		bit := 0
		if rng.Bernoulli(0.05) {
			bit = 1
		}
		enc.EncodeBit(&p[0], bit)
	}
	out := enc.Flush()
	bitsPerSym := float64(len(out)*8) / n
	// Shannon entropy of Bernoulli(0.05) is ~0.286 bits.
	if bitsPerSym > 0.35 {
		t.Errorf("adaptive coder: %.3f bits/sym, want < 0.35", bitsPerSym)
	}
}

func TestCompressRoundTripCases(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},
		[]byte("a"),
		[]byte("ab"),
		[]byte("abcabcabcabcabcabcabc"),
		bytes.Repeat([]byte{0x55}, 10000),
		[]byte("the quick brown fox jumps over the lazy dog"),
	}
	for i, src := range cases {
		comp := Compress(nil, src)
		got, err := Decompress(nil, comp)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("case %d: round trip mismatch (%d vs %d bytes)", i, len(got), len(src))
		}
	}
}

func TestCompressRoundTripProperty(t *testing.T) {
	f := func(src []byte) bool {
		comp := Compress(nil, src)
		got, err := Decompress(nil, comp)
		return err == nil && bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCompressRepetitiveRatio(t *testing.T) {
	// Delta-coded keypoint frames are highly repetitive; the compressor
	// must exploit that heavily.
	src := bytes.Repeat([]byte{1, 0, 2, 0, 1, 0, 0, 0}, 1000)
	comp := Compress(nil, src)
	if ratio := float64(len(comp)) / float64(len(src)); ratio > 0.05 {
		t.Errorf("repetitive data compressed to %.1f%%, want < 5%%", ratio*100)
	}
}

func TestCompressIncompressibleOverheadBounded(t *testing.T) {
	rng := simrand.New(2)
	src := make([]byte, 10000)
	for i := range src {
		src[i] = byte(rng.Intn(256))
	}
	comp := Compress(nil, src)
	if float64(len(comp)) > float64(len(src))*1.05+16 {
		t.Errorf("random data expanded to %d bytes from %d", len(comp), len(src))
	}
	got, err := Decompress(nil, comp)
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("random round trip failed: %v", err)
	}
}

func TestDecompressCorruptInputs(t *testing.T) {
	src := bytes.Repeat([]byte("semantic keypoints "), 50)
	comp := Compress(nil, src)

	// Truncations must error, not hang or return wrong-length data.
	for _, cut := range []int{0, 1, 4, len(comp) / 2, len(comp) - 1} {
		if got, err := Decompress(nil, comp[:cut]); err == nil && bytes.Equal(got, src) {
			t.Errorf("truncation to %d silently succeeded", cut)
		}
	}
}

func TestDecompressEmptyAndGarbage(t *testing.T) {
	if _, err := Decompress(nil, nil); err == nil {
		t.Error("nil input accepted")
	}
	if _, err := Decompress(nil, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}); err == nil {
		t.Error("implausible length header accepted")
	}
}

func TestDecompressAppendsToDst(t *testing.T) {
	prefix := []byte("prefix")
	src := []byte("payload payload payload")
	comp := Compress(nil, src)
	got, err := Decompress(append([]byte(nil), prefix...), comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(append([]byte(nil), prefix...), src...)) {
		t.Errorf("append semantics broken: %q", got)
	}
}

func TestCompressDeterministic(t *testing.T) {
	src := bytes.Repeat([]byte{9, 8, 7, 9, 8, 7, 1}, 500)
	a := Compress(nil, src)
	b := Compress(nil, src)
	if !bytes.Equal(a, b) {
		t.Error("compression is not deterministic")
	}
}

// Entropy sanity: measured output size tracks the source entropy for biased
// byte distributions.
func TestCompressTracksEntropy(t *testing.T) {
	rng := simrand.New(3)
	const n = 50000
	src := make([]byte, n)
	for i := range src {
		// Geometric-ish distribution over a few symbols.
		v := 0
		for v < 7 && rng.Bernoulli(0.5) {
			v++
		}
		src[i] = byte(v)
	}
	// Empirical entropy.
	var hist [256]float64
	for _, b := range src {
		hist[b]++
	}
	H := 0.0
	for _, c := range hist {
		if c > 0 {
			p := c / n
			H -= p * math.Log2(p)
		}
	}
	comp := Compress(nil, src)
	bitsPerByte := float64(len(comp)*8) / n
	// LZ layer may find spurious matches; allow generous headroom but the
	// result must be in the entropy ballpark, not 8 bits.
	if bitsPerByte > H*1.3+0.3 {
		t.Errorf("compressed to %.2f bits/byte, source entropy %.2f", bitsPerByte, H)
	}
}

// benchFrames is how many distinct inputs a compression benchmark rotates
// over. Re-coding one buffer lets the branch predictor learn its bits and
// reads about twice as fast as a live stream of distinct frames.
const benchFrames = 256

// BenchmarkCompressKeypointLike compresses delta-coded keypoint-like
// frames: 74 keypoints x 3 coordinates as small signed 16-bit values.
func BenchmarkCompressKeypointLike(b *testing.B) {
	rng := simrand.New(4)
	frames := make([][]byte, benchFrames)
	for k := range frames {
		src := make([]byte, 444)
		for i := range src {
			if i%2 == 0 {
				src[i] = byte(rng.Intn(7))
			}
		}
		frames[k] = src
	}
	benchCompress(b, frames)
}

// BenchmarkCompressKeypointFrames compresses distinct generator keypoint
// frames in the semantic encoder's float32 layout, the spatial-persona
// payload.
func BenchmarkCompressKeypointFrames(b *testing.B) {
	benchCompress(b, keypointFrames(6, benchFrames))
}

// benchCompress compresses frames in rotation through one reused
// Compressor, as the encoders do.
func benchCompress(b *testing.B, frames [][]byte) {
	c := NewCompressor()
	var dst []byte
	b.SetBytes(int64(len(frames[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = c.Compress(dst[:0], frames[i%len(frames)])
	}
}

// BenchmarkCompressParallel compresses 60 KB bodies shaped like the video
// encoder's (skip flags, varint run/level pairs, end-of-block markers) on
// every P at once, one Compressor per goroutine. The compressors are
// allocated back to back on one goroutine, as two senders' are, so coder
// state that shared a cache line would show as a speedup well below the
// P count. Run it at -cpu 1,2.
func BenchmarkCompressParallel(b *testing.B) {
	rng := simrand.New(12)
	frames := make([][]byte, 8)
	for k := range frames {
		frames[k] = videoLikeBody(rng, 60<<10)
	}
	cs := make([]*Compressor, runtime.GOMAXPROCS(0))
	for i := range cs {
		cs[i] = NewCompressor()
	}
	var next atomic.Int32
	b.SetBytes(int64(len(frames[0])))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := cs[int(next.Add(1)-1)%len(cs)]
		var dst []byte
		for i := 0; pb.Next(); i++ {
			dst = c.Compress(dst[:0], frames[i%len(frames)])
		}
	})
}

// videoLikeBody returns about n bytes in the layout of a video encoder's
// coefficient stream: per 8x8 block a skip flag, and for a coded block a
// few (run, zigzag level) varint pairs and an end-of-block run.
func videoLikeBody(rng *simrand.Source, n int) []byte {
	body := make([]byte, 0, n+64)
	for len(body) < n {
		if rng.Intn(10) < 6 {
			body = append(body, 0)
			continue
		}
		body = append(body, 1)
		for k := rng.Intn(6); k > 0; k-- {
			body = binary.AppendUvarint(body, uint64(rng.Intn(4)))
			level := 1 + int64(rng.Exponential(2))
			if rng.Intn(2) == 0 {
				level = -level
			}
			body = binary.AppendUvarint(body, uint64(level<<1^level>>63))
		}
		body = binary.AppendUvarint(body, uint64(rng.Intn(8))|1<<20)
	}
	return body
}

func BenchmarkDecompress(b *testing.B) {
	src := bytes.Repeat([]byte("persona"), 1000)
	comp := Compress(nil, src)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(nil, comp); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCompressorReuseBitIdentical pins the reusable Compressor to the
// one-shot Compress output: the generation-stamped hash table and recycled
// models must never change a single output byte, or every golden experiment
// result downstream would move.
func TestCompressorReuseBitIdentical(t *testing.T) {
	rng := simrand.New(9)
	c := NewCompressor()
	d := NewDecompressor()
	var dst, raw []byte
	for i := 0; i < 50; i++ {
		src := make([]byte, rng.Intn(3000))
		for j := range src {
			src[j] = byte(rng.Intn(1 << uint(1+i%8)))
		}
		want := Compress(nil, src)
		got := c.Compress(dst[:0], src)
		if !bytes.Equal(want, got) {
			t.Fatalf("call %d: reused compressor output differs (%d vs %d bytes)", i, len(got), len(want))
		}
		dst = got
		raw, _ = d.Decompress(raw[:0], got)
		if !bytes.Equal(raw, src) {
			t.Fatalf("call %d: reused decompressor round trip failed", i)
		}
	}
}

// TestCompressorSteadyStateAllocs pins the reusable pipeline's allocation
// budget so hot-path regressions fail tier-1 instead of only showing in
// benchmarks.
func TestCompressorSteadyStateAllocs(t *testing.T) {
	c := NewCompressor()
	d := NewDecompressor()
	src := bytes.Repeat([]byte("keypointframe"), 70)
	var dst, raw []byte
	c.Compress(dst[:0], src) // warm the scratch buffers
	allocs := testing.AllocsPerRun(100, func() {
		dst = c.Compress(dst[:0], src)
		var err error
		raw, err = d.Decompress(raw[:0], dst)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state compress+decompress allocates %.1f times per op, want 0", allocs)
	}
}
