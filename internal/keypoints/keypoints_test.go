package keypoints

import (
	"math"
	"testing"

	"telepresence/internal/simrand"
)

func TestTrackedCounts(t *testing.T) {
	// The paper: 32 (mouth & eyes) + 2x21 (hands) = 74 keypoints.
	idx := TrackedFaceIndices()
	if len(idx) != 32 {
		t.Fatalf("tracked face keypoints = %d, want 32 (paper §4.3)", len(idx))
	}
	if TrackedTotal != 74 {
		t.Fatalf("TrackedTotal = %d, want 74", TrackedTotal)
	}
	var f Frame
	f.Face = NeutralFace()
	if got := len(f.Tracked()); got != 74 {
		t.Fatalf("Tracked() returned %d points, want 74", got)
	}
}

func TestTrackedIndicesAreEyesAndMouth(t *testing.T) {
	for _, i := range TrackedFaceIndices() {
		eyes := i >= rightEyeStart && i <= leftEyeEnd
		mouth := i >= mouthStart && i <= mouthEnd
		if !eyes && !mouth {
			t.Errorf("tracked index %d is neither eye nor mouth", i)
		}
	}
}

func TestNeutralFacePlausible(t *testing.T) {
	face := NeutralFace()
	// All points within a 20 cm head box.
	for i, p := range face {
		if math.Abs(p.X) > 0.1 || math.Abs(p.Y) > 0.15 || math.Abs(p.Z) > 0.1 {
			t.Errorf("face point %d out of head box: %+v", i, p)
		}
	}
	// Left/right eye symmetry about X=0.
	for k := 0; k < 6; k++ {
		r, l := face[rightEyeStart+k], face[leftEyeStart+k]
		if math.Abs(r.X+l.X) > 1e-9 || math.Abs(r.Y-l.Y) > 1e-9 {
			t.Errorf("eye symmetry broken at %d: %+v vs %+v", k, r, l)
		}
	}
}

func TestNeutralHandStructure(t *testing.T) {
	hand := NeutralHand(1)
	if hand[0] != (Point{}) {
		t.Errorf("wrist not at origin: %+v", hand[0])
	}
	// Fingertips are the farthest joints of each finger.
	for f := 0; f < 5; f++ {
		base := hand[1+f*4]
		tip := hand[1+f*4+3]
		if tip.Dist(hand[0]) <= base.Dist(hand[0]) {
			t.Errorf("finger %d: tip closer to wrist than base", f)
		}
	}
	// Mirroring flips X only.
	left := NeutralHand(-1)
	for i := range hand {
		if left[i].X != -hand[i].X || left[i].Y != hand[i].Y || left[i].Z != hand[i].Z {
			t.Errorf("mirror broken at joint %d", i)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1 := NewGenerator(simrand.New(5), 0.5)
	g2 := NewGenerator(simrand.New(5), 0.5)
	for i := 0; i < 200; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("frame %d diverged", i)
		}
	}
}

func TestGeneratorSeqIncrements(t *testing.T) {
	g := NewGenerator(simrand.New(1), 0.5)
	for i := 0; i < 10; i++ {
		if f := g.Next(); f.Seq != uint32(i) {
			t.Fatalf("Seq = %d, want %d", f.Seq, i)
		}
	}
}

func TestGeneratorTemporalCoherence(t *testing.T) {
	// Consecutive frames at 90 FPS must move each keypoint by far less
	// than the head scale, as natural motion does.
	g := NewGenerator(simrand.New(2), 0.5)
	prev := g.Next()
	var maxStep float64
	for i := 0; i < 900; i++ { // 10 seconds
		cur := g.Next()
		pp, cp := prev.Tracked(), cur.Tracked()
		for j := range cp {
			if d := cp[j].Dist(pp[j]); d > maxStep {
				maxStep = d
			}
		}
		prev = cur
	}
	if maxStep > 0.02 {
		t.Errorf("max per-frame keypoint step = %.4f m, want < 0.02 (temporal coherence)", maxStep)
	}
	if maxStep == 0 {
		t.Error("stream is static; motion generator not working")
	}
}

func TestGeneratorHeadPoseBounded(t *testing.T) {
	g := NewGenerator(simrand.New(3), 0.5)
	for i := 0; i < 9000; i++ {
		f := g.Next()
		if math.Abs(f.HeadYaw) > 1.2 || math.Abs(f.HeadPitch) > 1.0 || math.Abs(f.HeadRoll) > 1.0 {
			t.Fatalf("head pose unbounded at frame %d: %v/%v/%v", i, f.HeadYaw, f.HeadPitch, f.HeadRoll)
		}
	}
}

func TestGeneratorBlinksHappen(t *testing.T) {
	g := NewGenerator(simrand.New(4), 0.5)
	neutral := NeutralFace()
	eyeClosed := 0
	for i := 0; i < 90*60; i++ { // one minute
		f := g.Next()
		// During a blink the eye contour collapses toward its own center.
		spread := 0.0
		for k := 0; k < 6; k++ {
			spread += math.Abs(f.Face[rightEyeStart+k].Y - f.Face[rightEyeStart].Y)
		}
		neutralSpread := 0.0
		for k := 0; k < 6; k++ {
			neutralSpread += math.Abs(neutral[rightEyeStart+k].Y - neutral[rightEyeStart].Y)
		}
		if spread < neutralSpread*0.5 {
			eyeClosed++
		}
	}
	if eyeClosed == 0 {
		t.Error("no blinks observed in 60 s of conversation")
	}
}

func TestGeneratorSpeakingAlternates(t *testing.T) {
	g := NewGenerator(simrand.New(6), 0.5)
	speakFrames := 0
	const n = 90 * 120 // two minutes
	for i := 0; i < n; i++ {
		g.Next()
		if g.Speaking() {
			speakFrames++
		}
	}
	frac := float64(speakFrames) / n
	if frac < 0.2 || frac > 0.8 {
		t.Errorf("speaking fraction = %.2f over 2 min, want 0.2-0.8", frac)
	}
}

func TestPointOps(t *testing.T) {
	p := Point{1, 2, 3}
	if q := p.Add(Point{1, 1, 1}); q != (Point{2, 3, 4}) {
		t.Errorf("Add = %+v", q)
	}
	if q := p.Scale(2); q != (Point{2, 4, 6}) {
		t.Errorf("Scale = %+v", q)
	}
	if d := (Point{0, 0, 0}).Dist(Point{3, 4, 0}); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
}
