package video

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"telepresence/internal/entropy"
	"telepresence/internal/simrand"
)

// TestDCTRoundTrip runs random residual blocks through the integer
// transform with a unit quantiser (every step one orthonormal DCT unit)
// and back: the transform's row norms are folded into the quantiser
// exactly, so every pixel comes back within one grey level.
func TestDCTRoundTrip(t *testing.T) {
	var unit quantTables
	for i := range 64 {
		unit.setStep(i, 1)
	}
	rng := simrand.New(1)
	for n := 0; n < 2000; n++ {
		var block, orig block8
		for y := range block {
			for x := range block[y] {
				orig[y][x] = int32(rng.Intn(511) - 255)
				block[y][x] = orig[y][x] << inShift
			}
		}
		block.forward()
		for i := range 64 {
			y, x := i>>3, i&7
			block[y][x] = unit.quantise(block[y][x], i) * unit.deq[i]
		}
		block.inverse()
		for y := range block {
			for x := range block[y] {
				got := descale(block[y][x])
				if d := got - orig[y][x]; d < -1 || d > 1 {
					t.Fatalf("block %d (%d,%d): %d round-trips to %d", n, x, y, orig[y][x], got)
				}
			}
		}
	}
}

func TestDCTEnergyCompaction(t *testing.T) {
	// A smooth gradient block should concentrate energy in low
	// frequencies. Each output is scaled to its orthonormal DCT
	// coefficient by the transform's row norms.
	var block block8
	for y := range block {
		for x := range block[y] {
			block[y][x] = int32(x+y) << inShift
		}
	}
	block.forward()
	var low, total float64
	for y := range block {
		for x := range block[y] {
			c := float64(block[y][x])
			e := c * c / (transformNorm[y] * transformNorm[x])
			total += e
			if x < 2 && y < 2 {
				low += e
			}
		}
	}
	if low/total < 0.95 {
		t.Errorf("low-frequency energy fraction %.3f, want > 0.95", low/total)
	}
}

func TestFrameAtClamps(t *testing.T) {
	f := NewFrame(4, 4)
	f.Set(3, 3, 77)
	if f.At(10, 10) != 77 {
		t.Errorf("At should clamp to edge, got %d", f.At(10, 10))
	}
	if f.At(-5, -5) != f.At(0, 0) {
		t.Error("negative clamp broken")
	}
	f.Set(100, 100, 1) // must not panic or write
}

func TestEncodeDecodeKeyFrame(t *testing.T) {
	rng := simrand.New(2)
	scene := NewScene(rng, 160, 120, 30)
	enc, err := NewEncoder(Config{W: 160, H: 120, FPS: 30, Quality: 2, GOP: 30, SkipThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder()
	f := scene.Next()
	ef, err := enc.Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	if !ef.Key {
		t.Error("first frame not a keyframe")
	}
	got, err := dec.Decode(ef.Data)
	if err != nil {
		t.Fatal(err)
	}
	if p := PSNR(f, got); p < 30 {
		t.Errorf("keyframe PSNR = %.1f dB, want > 30", p)
	}
}

func TestEncodeDecodeSequenceNoDrift(t *testing.T) {
	rng := simrand.New(3)
	scene := NewScene(rng, 160, 120, 30)
	enc, _ := NewEncoder(Config{W: 160, H: 120, FPS: 30, Quality: 1.5, GOP: 30, SkipThreshold: 2})
	dec := NewDecoder()
	for i := 0; i < 90; i++ {
		f := scene.Next()
		ef, err := enc.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(ef.Data)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if p := PSNR(f, got); p < 26 {
			t.Fatalf("frame %d PSNR = %.1f dB (drift?)", i, p)
		}
	}
}

func TestGOPStructure(t *testing.T) {
	rng := simrand.New(4)
	scene := NewScene(rng, 96, 96, 30)
	enc, _ := NewEncoder(Config{W: 96, H: 96, FPS: 30, Quality: 1, GOP: 10, SkipThreshold: 2})
	for i := 0; i < 30; i++ {
		ef, err := enc.Encode(scene.Next())
		if err != nil {
			t.Fatal(err)
		}
		if want := i%10 == 0; ef.Key != want {
			t.Errorf("frame %d key=%v, want %v", i, ef.Key, want)
		}
	}
}

func TestPFramesSmallerThanIFrames(t *testing.T) {
	rng := simrand.New(5)
	scene := NewScene(rng, 160, 120, 30)
	scene.NoiseLevel = 0 // isolate inter prediction from camera noise
	enc, _ := NewEncoder(Config{W: 160, H: 120, FPS: 30, Quality: 1, GOP: 100, SkipThreshold: 2})
	// Static content: after the keyframe, every block should skip and P
	// frames collapse to almost nothing.
	f := scene.Next()
	iFrame, _ := enc.Encode(f)
	iLen := len(iFrame.Data) // the next Encode reuses the EncodedFrame
	p1, _ := enc.Encode(f)
	if p1.Key {
		t.Fatal("expected P frame")
	}
	if len(p1.Data) >= iLen/5 {
		t.Errorf("static P frame %d B vs I %d B: skip mode ineffective", len(p1.Data), iLen)
	}
	// Moving content: P frames still beat I frames.
	pTotal, pCount := 0, 0
	for i := 0; i < 20; i++ {
		ef, _ := enc.Encode(scene.Next())
		if !ef.Key {
			pTotal += len(ef.Data)
			pCount++
		}
	}
	if pMean := float64(pTotal) / float64(pCount); pMean >= float64(iLen) {
		t.Errorf("moving P mean %.0f B not below I %d B", pMean, iLen)
	}
}

func TestRateControlConverges(t *testing.T) {
	rng := simrand.New(6)
	const target = 500_000.0 // 500 kbps
	scene := NewScene(rng, 320, 180, 30)
	cfg := DefaultConfig(320, 180, target)
	enc, _ := NewEncoder(cfg)
	var bytes int
	const n = 150
	for i := 0; i < n; i++ {
		ef, err := enc.Encode(scene.Next())
		if err != nil {
			t.Fatal(err)
		}
		if i >= 30 { // after convergence window
			bytes += len(ef.Data)
		}
	}
	got := float64(bytes) * 8 / float64(n-30) * 30
	if got < target*0.6 || got > target*1.6 {
		t.Errorf("rate control: %.0f bps, want ~%.0f", got, target)
	}
}

func TestDecoderErrors(t *testing.T) {
	dec := NewDecoder()
	if _, err := dec.Decode(nil); err == nil {
		t.Error("nil frame accepted")
	}
	// Delta frame without reference.
	rng := simrand.New(7)
	scene := NewScene(rng, 64, 64, 30)
	enc, _ := NewEncoder(Config{W: 64, H: 64, FPS: 30, Quality: 1, GOP: 5, SkipThreshold: 2})
	enc.Encode(scene.Next()) // I
	p, _ := enc.Encode(scene.Next())
	if p.Key {
		t.Fatal("expected P frame")
	}
	if _, err := NewDecoder().Decode(p.Data); err == nil {
		t.Error("cold-start P frame accepted")
	}
}

func TestDecodeCorruptNoPanic(t *testing.T) {
	rng := simrand.New(8)
	scene := NewScene(rng, 64, 64, 30)
	enc, _ := NewEncoder(Config{W: 64, H: 64, FPS: 30, Quality: 1, GOP: 5, SkipThreshold: 2})
	ef, _ := enc.Encode(scene.Next())
	mut := append([]byte(nil), ef.Data...)
	for trial := 0; trial < 200; trial++ {
		i := rng.Intn(len(mut))
		old := mut[i]
		mut[i] ^= byte(1 + rng.Intn(255))
		dec := NewDecoder()
		_, _ = dec.Decode(mut) // must not panic
		mut[i] = old
	}
}

// TestDecodeCorruptKeepsReference pins why Decode double-buffers: a P-frame
// that fails partway through its blocks must leave the reference intact, so
// the intact copy of that frame, decoded next, gives the pixels it gives on a
// decoder that never saw the corrupt copy.
func TestDecodeCorruptKeepsReference(t *testing.T) {
	scene := NewScene(simrand.New(9), 64, 64, 30)
	enc, _ := NewEncoder(Config{W: 64, H: 64, FPS: 30, Quality: 1, GOP: 30, SkipThreshold: 0})
	var stream [][]byte
	for i := 0; i < 3; i++ {
		ef, err := enc.Encode(scene.Next())
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, append([]byte(nil), ef.Data...))
	}
	p := stream[2]
	if p[0] != frameDelta {
		t.Fatal("expected P frame")
	}
	// Keep the first half of the coefficient stream and pad the rest with a
	// byte that is neither a skip nor a coded flag: the blocks of the first
	// half decode, then the frame fails.
	body, err := entropy.NewDecompressor().Decompress(nil, p[9:])
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), body[:len(body)/2]...)
	for len(bad) < len(body) {
		bad = append(bad, 2)
	}
	corrupt := entropy.NewCompressor().Compress(append([]byte(nil), p[:9]...), bad)

	clean, dirty := NewDecoder(), NewDecoder()
	for _, fr := range stream[:2] {
		if _, err := clean.Decode(fr); err != nil {
			t.Fatal(err)
		}
		if _, err := dirty.Decode(fr); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dirty.Decode(corrupt); err == nil {
		t.Fatal("corrupt P frame decoded")
	}
	want, err := clean.Decode(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dirty.Decode(p)
	if err != nil {
		t.Fatal(err)
	}
	if PSNR(got, want) != math.Inf(1) {
		t.Errorf("after a corrupt P frame the next frame decodes to other pixels (PSNR %.1f dB)", PSNR(got, want))
	}
}

func TestEncodeWrongSize(t *testing.T) {
	enc, _ := NewEncoder(Config{W: 64, H: 64, FPS: 30, Quality: 1})
	if _, err := enc.Encode(NewFrame(32, 32)); err == nil {
		t.Error("mismatched frame size accepted")
	}
}

func TestNewEncoderValidation(t *testing.T) {
	if _, err := NewEncoder(Config{W: 0, H: 10}); err == nil {
		t.Error("zero width accepted")
	}
}

func TestHigherQualityMoreBitsBetterPSNR(t *testing.T) {
	run := func(q float64) (int, float64) {
		scene := NewScene(simrand.New(9), 160, 120, 30)
		enc, _ := NewEncoder(Config{W: 160, H: 120, FPS: 30, Quality: q, GOP: 100, SkipThreshold: 0})
		dec := NewDecoder()
		f := scene.Next()
		ef, _ := enc.Encode(f)
		got, err := dec.Decode(ef.Data)
		if err != nil {
			t.Fatal(err)
		}
		return len(ef.Data), PSNR(f, got)
	}
	loBytes, loPSNR := run(0.3)
	hiBytes, hiPSNR := run(3)
	if hiBytes <= loBytes {
		t.Errorf("higher quality fewer bits: %d vs %d", hiBytes, loBytes)
	}
	if hiPSNR <= loPSNR {
		t.Errorf("higher quality worse PSNR: %.1f vs %.1f", hiPSNR, loPSNR)
	}
}

func TestSceneDeterminism(t *testing.T) {
	a := NewScene(simrand.New(10), 80, 60, 30)
	b := NewScene(simrand.New(10), 80, 60, 30)
	for i := 0; i < 10; i++ {
		fa, fb := a.Next(), b.Next()
		for j := range fa.Pix {
			if fa.Pix[j] != fb.Pix[j] {
				t.Fatalf("scene diverged at frame %d pixel %d", i, j)
			}
		}
	}
}

func TestSceneHasMotion(t *testing.T) {
	s := NewScene(simrand.New(11), 80, 60, 30)
	a := s.Next().Clone() // Next reuses its buffer; Clone to hold a frame
	var diff int
	for i := 0; i < 30; i++ {
		b := s.Next().Clone()
		for j := range a.Pix {
			d := int(a.Pix[j]) - int(b.Pix[j])
			if d < 0 {
				d = -d
			}
			diff += d
		}
		a = b
	}
	if diff == 0 {
		t.Error("scene is static")
	}
}

func TestPSNRIdentical(t *testing.T) {
	f := NewFrame(8, 8)
	if !math.IsInf(PSNR(f, f.Clone()), 1) {
		t.Error("identical frames should have infinite PSNR")
	}
	if PSNR(f, NewFrame(4, 4)) != 0 {
		t.Error("mismatched sizes should return 0")
	}
}

func BenchmarkEncode360p(b *testing.B) {
	scene := NewScene(simrand.New(12), 640, 360, 30)
	enc, _ := NewEncoder(DefaultConfig(640, 360, 1.5e6))
	frames := make([]*Frame, 16)
	for i := range frames {
		frames[i] = scene.Next().Clone()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(frames[i%16]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompressBody360p compresses the uncompressed bodies of a
// rate-controlled 640x360 stream (keyframes and deltas) in rotation through
// one reused Compressor: the encoder's entropy stage on its own.
func BenchmarkCompressBody360p(b *testing.B) {
	scene := NewScene(simrand.New(14), 640, 360, 30)
	enc, _ := NewEncoder(DefaultConfig(640, 360, 1.5e6))
	bodies := make([][]byte, 120)
	size := 0
	for i := range bodies {
		if _, err := enc.Encode(scene.Next()); err != nil {
			b.Fatal(err)
		}
		bodies[i] = append([]byte(nil), enc.body...)
		size += len(bodies[i])
	}
	c := entropy.NewCompressor()
	var dst []byte
	b.SetBytes(int64(size / len(bodies)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = c.Compress(dst[:0], bodies[i%len(bodies)])
	}
}

func BenchmarkDecode360p(b *testing.B) {
	scene := NewScene(simrand.New(13), 640, 360, 30)
	enc, _ := NewEncoder(DefaultConfig(640, 360, 1.5e6))
	ef, _ := enc.Encode(scene.Next())
	dec := NewDecoder()
	b.SetBytes(int64(len(ef.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(ef.Data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidate360p times Validate on the keyframe BenchmarkDecode360p
// decodes: the entropy decode and coefficient walk without reconstruction.
func BenchmarkValidate360p(b *testing.B) {
	scene := NewScene(simrand.New(13), 640, 360, 30)
	enc, _ := NewEncoder(DefaultConfig(640, 360, 1.5e6))
	ef, _ := enc.Encode(scene.Next())
	dec := NewDecoder()
	b.SetBytes(int64(len(ef.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dec.Validate(ef.Data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccept360p times the session's receive check on the same
// keyframe: the frame's CRC-32C against the sender's, then the header rule.
func BenchmarkAccept360p(b *testing.B) {
	scene := NewScene(simrand.New(13), 640, 360, 30)
	enc, _ := NewEncoder(DefaultConfig(640, 360, 1.5e6))
	ef, _ := enc.Encode(scene.Next())
	sum := Checksum(ef.Data)
	var g Gate
	b.SetBytes(int64(len(ef.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Accept(ef.Data, sum); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGateAcceptMatchesValidate pins Gate.Accept to Validate on encoder
// output: the same verdict for every frame of two interleaved streams of
// different sizes with frames dropped, so both the checksum path and the
// reference rule (a delta frame needs an accepted reference of its size)
// are exercised. A frame with one flipped bit fails the checksum.
func TestGateAcceptMatchesValidate(t *testing.T) {
	rng := simrand.New(21)
	type stream struct {
		scene *Scene
		enc   *Encoder
	}
	var streams []stream
	for _, sz := range [][2]int{{96, 64}, {64, 48}} {
		enc, err := NewEncoder(Config{W: sz[0], H: sz[1], FPS: 30, Quality: 1, GOP: 6, SkipThreshold: 2})
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, stream{NewScene(simrand.New(int64(sz[0])), sz[0], sz[1], 30), enc})
	}
	val := NewDecoder()
	var g Gate
	var accepted, rejected int
	for i := 0; i < 120; i++ {
		st := streams[rng.Intn(len(streams))]
		ef, err := st.enc.Encode(st.scene.Next())
		if err != nil {
			t.Fatal(err)
		}
		if rng.Float64() < 0.3 {
			continue // lost in transit
		}
		sum := Checksum(ef.Data)
		vErr := val.Validate(ef.Data)
		gErr := g.Accept(ef.Data, sum)
		if (vErr == nil) != (gErr == nil) {
			t.Fatalf("frame %d (key %v): Validate err=%v, Accept err=%v", i, ef.Key, vErr, gErr)
		}
		if gErr == nil {
			accepted++
		} else {
			rejected++
		}
		bad := append([]byte(nil), ef.Data...)
		bad[len(bad)/2] ^= 0x10
		if err := g.Accept(bad, sum); !errors.Is(err, ErrChecksum) {
			t.Fatalf("frame %d: Accept of a corrupted copy returned %v, want ErrChecksum", i, err)
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("%d accepted, %d rejected: both verdicts must occur", accepted, rejected)
	}
}

// TestValidateMatchesDecode pins Validate to Decode over a live stream:
// same accept/reject verdicts for intact, cold-start and corrupt input,
// since Validate is the reference the session's receive check
// (Gate.Accept) is held to.
func TestValidateMatchesDecode(t *testing.T) {
	rng := simrand.New(14)
	scene := NewScene(rng, 96, 96, 30)
	enc, _ := NewEncoder(Config{W: 96, H: 96, FPS: 30, Quality: 1, GOP: 10, SkipThreshold: 2})
	val := NewDecoder()
	ref := NewDecoder()
	for i := 0; i < 30; i++ {
		ef, err := enc.Encode(scene.Next())
		if err != nil {
			t.Fatal(err)
		}
		vErr := val.Validate(ef.Data)
		_, dErr := ref.Decode(ef.Data)
		if (vErr == nil) != (dErr == nil) {
			t.Fatalf("frame %d: Validate err=%v, Decode err=%v", i, vErr, dErr)
		}
	}
	// Cold start on a P frame must be rejected by both.
	enc.Encode(scene.Next()) // ensure next frame is a delta
	p, _ := enc.Encode(scene.Next())
	if p.Key {
		t.Fatal("expected P frame")
	}
	if NewDecoder().Validate(p.Data) == nil {
		t.Error("Validate accepted cold-start P frame")
	}
	if _, err := NewDecoder().Decode(p.Data); err == nil {
		t.Error("Decode accepted cold-start P frame")
	}
	// Truncated data must be rejected by both.
	if val.Validate(p.Data[:5]) == nil {
		t.Error("Validate accepted truncated frame")
	}
	if _, err := ref.Decode(p.Data[:5]); err == nil {
		t.Error("Decode accepted truncated frame")
	}
}

// TestSetTargetBpsRetargetsMidStream pins the congestion-control hook: after
// SetTargetBps lowers the target mid-stream, the rate controller steers
// steady-state frame sizes down toward the new budget.
func TestSetTargetBpsRetargetsMidStream(t *testing.T) {
	enc, err := NewEncoder(Config{W: 320, H: 240, FPS: 30, TargetBps: 1.2e6, Quality: 1,
		GOP: 300, SkipThreshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	scene := NewScene(simrand.New(1), 320, 240, 30)
	meanSize := func(frames int) float64 {
		var total int
		for i := 0; i < frames; i++ {
			ef, err := enc.Encode(scene.Next())
			if err != nil {
				t.Fatal(err)
			}
			total += len(ef.Data)
		}
		return float64(total) / float64(frames)
	}
	meanSize(60) // converge at 1.2 Mbps
	before := meanSize(30)
	enc.SetTargetBps(0.3e6)
	if got := enc.TargetBps(); got != 0.3e6 {
		t.Fatalf("TargetBps = %v after SetTargetBps", got)
	}
	meanSize(60) // converge at the new target
	after := meanSize(30)
	if after >= before*0.55 {
		t.Errorf("mean frame size %.0f -> %.0f B; want a ~4x target cut to shrink frames by >45%%",
			before, after)
	}
}

// TestSteadyStateAllocs pins the "allocation-free in steady state" contract
// of the capture path: once the scene's render target and the encoder's
// reference frames and scratch exist, Scene.Next and Encode allocate
// nothing per frame.
func TestSteadyStateAllocs(t *testing.T) {
	scene := NewScene(simrand.New(15), 320, 180, 30)
	cfg := DefaultConfig(320, 180, 1e6)
	cfg.GOP = 4 // keyframes and delta frames both inside the measured run
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*cfg.GOP; i++ { // warm the scratch buffers
		if _, err := enc.Encode(scene.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(50, func() { scene.Next() }); a != 0 {
		t.Errorf("Scene.Next allocates %.1f times per frame, want 0", a)
	}
	f := scene.Next()
	if a := testing.AllocsPerRun(50, func() {
		if _, err := enc.Encode(f); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Encode allocates %.1f times per frame, want 0", a)
	}
}

func BenchmarkSceneNext(b *testing.B) {
	for _, r := range []struct {
		name string
		w, h int
	}{{"360p", 640, 360}, {"1080p", 1920, 1080}} {
		b.Run(r.name, func(b *testing.B) {
			scene := NewScene(simrand.New(16), r.w, r.h, 30)
			scene.Next()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scene.Next()
			}
		})
	}
}

// BenchmarkSceneEncode renders and encodes one frame per iteration, the
// order a session's sender runs them in, so the render of the next frame
// overlaps the encode of this one.
func BenchmarkSceneEncode(b *testing.B) {
	for _, r := range []struct {
		name string
		w, h int
		bps  float64
	}{{"360p", 640, 360, 1.4e6}, {"1080p", 1920, 1080, 4.3e6}} {
		b.Run(r.name, func(b *testing.B) {
			scene := NewScene(simrand.New(18), r.w, r.h, 30)
			enc, _ := NewEncoder(DefaultConfig(r.w, r.h, r.bps))
			if _, err := enc.Encode(scene.Next()); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := enc.Encode(scene.Next()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDecodeMatchesEncoderReference checks that the decoder's output is the
// encoder's reconstruction, byte for byte, over rate-controlled sequences.
// Rate control moves qscale every frame, and the header carries it as a
// float32, so both sides must quantise with that float32.
func TestDecodeMatchesEncoderReference(t *testing.T) {
	for _, c := range []struct{ w, h int }{{640, 360}, {1280, 720}, {97, 55}} {
		scene := NewScene(simrand.New(int64(c.w)), c.w, c.h, 30)
		enc, err := NewEncoder(DefaultConfig(c.w, c.h, 1.2e6))
		if err != nil {
			t.Fatal(err)
		}
		dec := NewDecoder()
		differ := 0
		for i := 0; i < 150; i++ {
			ef, err := enc.Encode(scene.Next())
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.Decode(ef.Data)
			if err != nil {
				t.Fatalf("%dx%d frame %d: %v", c.w, c.h, i, err)
			}
			if !bytes.Equal(got.Pix, enc.ref.Pix) {
				differ++
			}
		}
		if differ > 0 {
			t.Errorf("%dx%d: %d of 150 decoded frames differ from the encoder's reference", c.w, c.h, differ)
		}
	}
}

// TestSceneNoiseStatistics adds a scene's sensor noise to a flat grey
// frame and checks the draws: each frame's mean is 0, its standard
// deviation is the rounded normal's, √(σ²+1/12), and neither neighbouring
// pixels nor one pixel in consecutive frames are correlated. A table or
// index generator that repeated would show as correlation, and would let
// P-frames skip blocks a camera's noise would force to be coded.
func TestSceneNoiseStatistics(t *testing.T) {
	const w, h, frames, grey = 640, 360, 10, 128
	for seed := int64(1); seed <= 3; seed++ {
		s := NewScene(simrand.New(seed), w, h, 30)
		s.initNoise()
		wantSD := math.Sqrt(s.NoiseLevel*s.NoiseLevel + 1.0/12)
		prev := make([]float64, w*h)
		cur := make([]float64, w*h)
		pix := make([]uint8, w*h)
		for f := 0; f < frames; f++ {
			for i := range pix {
				pix[i] = grey
			}
			s.addNoise(pix)
			var sum, sq, lag, across float64
			for i, p := range pix {
				d := float64(p) - grey
				cur[i] = d
				sum += d
				sq += d * d
				if i > 0 {
					lag += d * cur[i-1]
				}
				across += d * prev[i]
			}
			n := float64(len(pix))
			mean, sd := sum/n, math.Sqrt(sq/n)
			if math.Abs(mean) > 0.02 {
				t.Errorf("seed %d frame %d: mean %.4f, want within ±0.02 of 0", seed, f, mean)
			}
			if math.Abs(sd/wantSD-1) > 0.02 {
				t.Errorf("seed %d frame %d: sd %.4f, want %.4f ±2%%", seed, f, sd, wantSD)
			}
			if r := lag / sq; math.Abs(r) > 0.02 {
				t.Errorf("seed %d frame %d: lag-1 pixel correlation %.4f", seed, f, r)
			}
			if r := across / sq; f > 0 && math.Abs(r) > 0.02 {
				t.Errorf("seed %d frame %d: correlation with the previous frame %.4f", seed, f, r)
			}
			prev, cur = cur, prev
		}
	}
}
