package semantic

import (
	"errors"
	"math"
	"testing"

	"telepresence/internal/keypoints"
	"telepresence/internal/simrand"
	"telepresence/internal/stats"
)

func genFrames(seed int64, n int) []keypoints.Frame {
	g := keypoints.NewGenerator(simrand.New(seed), keypoints.DefaultMotionConfig())
	out := make([]keypoints.Frame, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

func TestFloat32RoundTripExact(t *testing.T) {
	enc, dec := NewEncoder(ModeFloat32), NewDecoder()
	for _, f := range genFrames(1, 50) {
		f := f
		wire := enc.Encode(&f)
		got, err := dec.Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		want := f.Tracked()
		for i, p := range got.Points {
			if p.Dist(want[i]) > 1e-6 {
				t.Fatalf("seq %d point %d off by %v", f.Seq, i, p.Dist(want[i]))
			}
		}
		if math.Abs(got.Yaw-f.HeadYaw) > 1e-6 {
			t.Fatalf("yaw %v != %v", got.Yaw, f.HeadYaw)
		}
		if got.Seq != f.Seq {
			t.Fatalf("seq %d != %d", got.Seq, f.Seq)
		}
	}
}

func TestQuantizedRoundTripWithinStep(t *testing.T) {
	enc, dec := NewEncoder(ModeQuantized), NewDecoder()
	maxErr := 2 * quantRange / (1<<quantBits - 1) // one quantization step
	for _, f := range genFrames(2, 200) {
		f := f
		got, err := dec.Decode(enc.Encode(&f))
		if err != nil {
			t.Fatal(err)
		}
		want := f.Tracked()
		for i, p := range got.Points {
			if d := p.Dist(want[i]); d > maxErr*2 {
				t.Fatalf("seq %d point %d error %v > %v", f.Seq, i, d, maxErr*2)
			}
		}
	}
}

func TestQuantizedEmitsKeyframesAndDeltas(t *testing.T) {
	enc := NewEncoder(ModeQuantized)
	enc.KeyframeInterval = 10
	keys, deltas := 0, 0
	for _, f := range genFrames(3, 50) {
		f := f
		wire := enc.Encode(&f)
		switch wire[0] {
		case kindKeyframe:
			keys++
		case kindDelta:
			deltas++
		}
	}
	if keys != 5 || deltas != 45 {
		t.Errorf("keys/deltas = %d/%d, want 5/45", keys, deltas)
	}
}

// The paper's headline number: 74 keypoints as float32 at 90 FPS, LZMA'd,
// come to 0.64±0.02 Mbps. Our lzma-like coder must land in the same band.
func TestFloat32BitrateMatchesPaper(t *testing.T) {
	enc := NewEncoder(ModeFloat32)
	sizes := &stats.Sample{}
	for _, f := range genFrames(4, 2000) { // the paper's 2000-frame capture
		f := f
		sizes.Add(float64(len(enc.Encode(&f))))
	}
	mbps := BitrateBps(sizes.Mean(), 90) / 1e6
	if mbps < 0.5 || mbps > 0.75 {
		t.Errorf("float32 semantic stream = %.3f Mbps, want 0.5-0.75 (paper: 0.64±0.02)", mbps)
	}
}

func TestQuantizedMuchSmallerThanFloat32(t *testing.T) {
	frames := genFrames(5, 500)
	encF, encQ := NewEncoder(ModeFloat32), NewEncoder(ModeQuantized)
	var fBytes, qBytes int
	for _, f := range frames {
		f := f
		fBytes += len(encF.Encode(&f))
		qBytes += len(encQ.Encode(&f))
	}
	if qBytes*2 >= fBytes {
		t.Errorf("quantized (%d B) not at least 2x smaller than float32 (%d B)", qBytes, fBytes)
	}
}

func TestDecodeRejectsAnyCorruption(t *testing.T) {
	enc := NewEncoder(ModeFloat32)
	f := genFrames(6, 1)[0]
	wire := enc.Encode(&f)
	// Flip one byte anywhere in the body: decode must fail (all-or-nothing
	// delivery, the semantic-communication property from §4.3).
	for i := headerLen; i < len(wire); i += 7 {
		mut := append([]byte(nil), wire...)
		mut[i] ^= 0x01
		if _, err := NewDecoder().Decode(mut); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
	// Truncations must fail too.
	for _, cut := range []int{0, 5, headerLen, len(wire) - 1} {
		if _, err := NewDecoder().Decode(wire[:cut]); err == nil {
			t.Fatalf("truncation to %d accepted", cut)
		}
	}
}

func TestQuantizedLossBreaksChainUntilKeyframe(t *testing.T) {
	enc := NewEncoder(ModeQuantized)
	enc.KeyframeInterval = 20
	dec := NewDecoder()
	frames := genFrames(7, 60)

	wires := make([][]byte, len(frames))
	for i := range frames {
		wires[i] = enc.Encode(&frames[i])
	}
	// Deliver 0..9, drop 10, then try the rest.
	for i := 0; i < 10; i++ {
		if _, err := dec.Decode(wires[i]); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	recovered := -1
	for i := 11; i < len(wires); i++ {
		_, err := dec.Decode(wires[i])
		if err == nil {
			recovered = i
			break
		}
		if !errors.Is(err, ErrLostSync) {
			t.Fatalf("frame %d: unexpected error %v", i, err)
		}
	}
	// Keyframes at 0,21,42 (interval counts deltas): recovery must happen
	// at the first keyframe after the loss and not before.
	if recovered == -1 {
		t.Fatal("never recovered after loss")
	}
	if wires[recovered][0] != kindKeyframe {
		t.Errorf("recovered on a non-keyframe at %d", recovered)
	}
	if !dec.InSync() {
		t.Error("decoder should be in sync after keyframe")
	}
}

func TestDecoderStartsOnDeltaRefuses(t *testing.T) {
	enc := NewEncoder(ModeQuantized)
	frames := genFrames(8, 3)
	_ = enc.Encode(&frames[0]) // keyframe, never delivered
	wire := enc.Encode(&frames[1])
	if wire[0] != kindDelta {
		t.Fatal("second frame should be a delta")
	}
	if _, err := NewDecoder().Decode(wire); !errors.Is(err, ErrLostSync) {
		t.Errorf("cold-start delta decode error = %v, want ErrLostSync", err)
	}
}

func TestBitrateBps(t *testing.T) {
	if got := BitrateBps(1000, 90); got != 720000 {
		t.Errorf("BitrateBps = %v, want 720000", got)
	}
}

func TestModeString(t *testing.T) {
	if ModeFloat32.String() != "float32" || ModeQuantized.String() != "quantized" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode string wrong")
	}
}

func TestEncoderDeterministic(t *testing.T) {
	f := genFrames(9, 1)[0]
	a := NewEncoder(ModeFloat32).Encode(&f)
	b := NewEncoder(ModeFloat32).Encode(&f)
	if string(a) != string(b) {
		t.Error("encoding not deterministic")
	}
}

// benchFrames is how many distinct frames the codec benchmarks rotate over.
// Re-encoding one frame lets the branch predictor learn its bits and reads
// about twice as fast as a live stream.
const benchFrames = 256

func BenchmarkEncodeFloat32(b *testing.B) {
	enc := NewEncoder(ModeFloat32)
	frames := genFrames(10, benchFrames)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Encode(&frames[i%benchFrames])
	}
}

func BenchmarkEncodeQuantized(b *testing.B) {
	enc := NewEncoder(ModeQuantized)
	frames := genFrames(11, benchFrames)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Encode(&frames[i%benchFrames])
	}
}

func BenchmarkDecodeFloat32(b *testing.B) {
	enc := NewEncoder(ModeFloat32)
	wires := make([][]byte, benchFrames)
	for i, f := range genFrames(12, benchFrames) {
		wires[i] = enc.Encode(&f)
	}
	dec := NewDecoder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(wires[i%benchFrames]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncodeSteadyStateAllocBudget pins Encode's per-frame allocation cost:
// one wire-frame buffer (owned by the caller) plus nothing else once the
// internal scratch is warm.
func TestEncodeSteadyStateAllocBudget(t *testing.T) {
	for _, mode := range []Mode{ModeFloat32, ModeQuantized} {
		gen := keypoints.NewGenerator(simrand.New(7), keypoints.DefaultMotionConfig())
		enc := NewEncoder(mode)
		for i := 0; i < 10; i++ { // warm scratch and compressor
			f := gen.Next()
			enc.Encode(&f)
		}
		allocs := testing.AllocsPerRun(100, func() {
			f := gen.Next()
			if len(enc.Encode(&f)) == 0 {
				t.Fatal("empty wire frame")
			}
		})
		if allocs > 2 {
			t.Errorf("%v: Encode allocates %.1f per frame, budget 2 (output + growth slack)", mode, allocs)
		}
	}
}

// TestValidateMatchesDecode pins Validate to Decode: for every frame of a
// live stream (both modes, including a delta-chain break) the two must
// agree on accept/reject, since the session layer counts decodability
// through Validate.
func TestValidateMatchesDecode(t *testing.T) {
	for _, mode := range []Mode{ModeFloat32, ModeQuantized} {
		gen := keypoints.NewGenerator(simrand.New(8), keypoints.DefaultMotionConfig())
		enc := NewEncoder(mode)
		enc.KeyframeInterval = 10
		val := NewDecoder()
		ref := NewDecoder()
		for i := 0; i < 40; i++ {
			f := gen.Next()
			wire := enc.Encode(&f)
			if i%7 == 3 {
				// Drop this frame at both decoders (delta chain break in
				// quantized mode; no-op for independent float32 frames).
				continue
			}
			vErr := val.Validate(wire)
			_, dErr := ref.Decode(wire)
			if (vErr == nil) != (dErr == nil) {
				t.Fatalf("%v frame %d: Validate err=%v, Decode err=%v", mode, i, vErr, dErr)
			}
		}
		// Corrupt frames must be rejected by both.
		f := gen.Next()
		wire := enc.Encode(&f)
		wire[len(wire)-1] ^= 0xFF
		if val.Validate(wire) == nil {
			t.Fatalf("%v: Validate accepted corrupt frame", mode)
		}
		if _, err := ref.Decode(wire); err == nil {
			t.Fatalf("%v: Decode accepted corrupt frame", mode)
		}
	}
}
