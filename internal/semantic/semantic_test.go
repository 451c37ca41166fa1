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
	g := keypoints.NewGenerator(simrand.New(seed), 0.5)
	out := make([]keypoints.Frame, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

func TestFloat32RoundTripExact(t *testing.T) {
	enc, dec := NewEncoder(), NewDecoder()
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

// The paper's headline number: 74 keypoints as float32 at 90 FPS, LZMA'd,
// come to 0.64±0.02 Mbps. Our lzma-like coder must land in the same band.
func TestFloat32BitrateMatchesPaper(t *testing.T) {
	enc := NewEncoder()
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

func TestDecodeRejectsAnyCorruption(t *testing.T) {
	enc := NewEncoder()
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
	// The mode byte sits outside the CRC; any mode but float32 (0) is a
	// corrupt frame to both Decode and Validate.
	for _, mode := range []byte{1, 2, 0xFF} {
		mut := append([]byte(nil), wire...)
		mut[1] = mode
		if _, err := NewDecoder().Decode(mut); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("mode byte %d: Decode error = %v, want ErrCorruptFrame", mode, err)
		}
		if err := NewDecoder().Validate(mut); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("mode byte %d: Validate error = %v, want ErrCorruptFrame", mode, err)
		}
	}
}

func TestBitrateBps(t *testing.T) {
	if got := BitrateBps(1000, 90); got != 720000 {
		t.Errorf("BitrateBps = %v, want 720000", got)
	}
}

func TestEncoderDeterministic(t *testing.T) {
	f := genFrames(9, 1)[0]
	a := NewEncoder().Encode(&f)
	b := NewEncoder().Encode(&f)
	if string(a) != string(b) {
		t.Error("encoding not deterministic")
	}
}

// benchFrames is how many distinct frames the codec benchmarks rotate over.
// Re-encoding one frame lets the branch predictor learn its bits and reads
// about twice as fast as a live stream.
const benchFrames = 256

func BenchmarkEncodeFloat32(b *testing.B) {
	enc := NewEncoder()
	frames := genFrames(10, benchFrames)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Encode(&frames[i%benchFrames])
	}
}

func BenchmarkDecodeFloat32(b *testing.B) {
	enc := NewEncoder()
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
	gen := keypoints.NewGenerator(simrand.New(7), 0.5)
	enc := NewEncoder()
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
		t.Errorf("Encode allocates %.1f per frame, budget 2 (output + growth slack)", allocs)
	}
}

// TestValidateMatchesDecode pins Validate to Decode: for every frame of a
// live stream the two must agree on accept/reject, since the session layer
// counts decodability through Validate.
func TestValidateMatchesDecode(t *testing.T) {
	gen := keypoints.NewGenerator(simrand.New(8), 0.5)
	enc := NewEncoder()
	val := NewDecoder()
	ref := NewDecoder()
	for i := 0; i < 40; i++ {
		f := gen.Next()
		wire := enc.Encode(&f)
		vErr := val.Validate(wire)
		_, dErr := ref.Decode(wire)
		if (vErr == nil) != (dErr == nil) {
			t.Fatalf("frame %d: Validate err=%v, Decode err=%v", i, vErr, dErr)
		}
	}
	// Corrupt frames must be rejected by both.
	f := gen.Next()
	wire := enc.Encode(&f)
	wire[len(wire)-1] ^= 0xFF
	if val.Validate(wire) == nil {
		t.Fatal("Validate accepted corrupt frame")
	}
	if _, err := ref.Decode(wire); err == nil {
		t.Fatal("Decode accepted corrupt frame")
	}
}
