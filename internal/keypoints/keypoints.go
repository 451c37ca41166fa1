// Package keypoints models the semantic data a spatial persona transmits:
// the canonical 68-point dlib facial layout, the 21-point OpenPose hand
// layout, and a stochastic "natural conversation" motion generator that
// stands in for the paper's human participants and ZED 2i captures (§4.3).
//
// The paper determined that FaceTime tracks only the eye and mouth regions
// of the face plus both hands: 32 facial + 2x21 hand = 74 keypoints. The
// Tracked helpers select exactly that subset.
package keypoints

import (
	"math"

	"telepresence/internal/simrand"
)

// Point is a 3D keypoint position in meters, head-local coordinates.
type Point struct{ X, Y, Z float64 }

// Add returns p+q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y, p.Z + q.Z} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s, p.Z * s} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// Canonical layout sizes.
const (
	FaceCount    = 68 // dlib 68-point facial layout
	HandCount    = 21 // OpenPose hand layout
	TrackedFace  = 32 // eyes (12) + eyebrows (10) + mouth area subset (10)... see TrackedFaceIndices
	TrackedTotal = TrackedFace + 2*HandCount
)

// dlib 68-point regions (standard indexing).
const (
	jawStart, jawEnd             = 0, 16
	rightBrowStart, rightBrowEnd = 17, 21
	leftBrowStart, leftBrowEnd   = 22, 26
	noseStart, noseEnd           = 27, 35
	rightEyeStart, rightEyeEnd   = 36, 41
	leftEyeStart, leftEyeEnd     = 42, 47
	mouthStart, mouthEnd         = 48, 67
)

// TrackedFaceIndices returns the 32 facial keypoints FaceTime's spatial
// persona actually conveys: the 12 eye-contour points and the 20 mouth
// points (the paper: "the spatial persona primarily tracks the eye and
// mouth areas for facial expressions"; 12+20 = 32 keypoints).
func TrackedFaceIndices() []int {
	idx := make([]int, 0, TrackedFace)
	for i := rightEyeStart; i <= leftEyeEnd; i++ {
		idx = append(idx, i)
	}
	for i := mouthStart; i <= mouthEnd; i++ {
		idx = append(idx, i)
	}
	return idx
}

// Frame is one captured sample of a user's tracked body: full face, both
// hands, plus the rigid head pose.
type Frame struct {
	// Face holds the full 68-point layout in head-local coordinates.
	Face [FaceCount]Point
	// LeftHand and RightHand hold the 21-point hand layouts.
	LeftHand, RightHand [HandCount]Point
	// HeadYaw, HeadPitch, HeadRoll are the rigid head pose in radians.
	HeadYaw, HeadPitch, HeadRoll float64
	// Seq is the capture sequence number.
	Seq uint32
}

// Tracked flattens the transmitted subset (32 face + 42 hand points) into a
// contiguous slice of 74 points, the semantic payload of one frame.
func (f *Frame) Tracked() []Point {
	out := make([]Point, 0, TrackedTotal)
	for _, i := range TrackedFaceIndices() {
		out = append(out, f.Face[i])
	}
	out = append(out, f.LeftHand[:]...)
	out = append(out, f.RightHand[:]...)
	return out
}

// NeutralFace returns the rest pose of the 68-point layout: a stylized but
// geometrically plausible face in a ~16 cm-wide head frame.
func NeutralFace() [FaceCount]Point {
	var face [FaceCount]Point
	// Jaw line: parabola across the lower face.
	for i := jawStart; i <= jawEnd; i++ {
		t := float64(i-jawStart)/float64(jawEnd-jawStart)*2 - 1 // -1..1
		face[i] = Point{X: 0.08 * t, Y: -0.04 - 0.05*(1-t*t), Z: 0.02 * (1 - t*t)}
	}
	brow := func(start int, cx float64) {
		for k := 0; k < 5; k++ {
			t := float64(k)/4*2 - 1
			face[start+k] = Point{X: cx + 0.02*t, Y: 0.035 + 0.005*(1-t*t), Z: 0.045}
		}
	}
	brow(rightBrowStart, -0.04)
	brow(leftBrowStart, 0.04)
	// Nose bridge and base.
	for k := 0; k < 4; k++ {
		face[noseStart+k] = Point{X: 0, Y: 0.025 - 0.015*float64(k), Z: 0.05 + 0.005*float64(k)}
	}
	for k := 0; k < 5; k++ {
		t := float64(k)/4*2 - 1
		face[noseStart+4+k] = Point{X: 0.012 * t, Y: -0.015, Z: 0.055 * (1 - 0.3*t*t)}
	}
	// Eyes are mirrored point-for-point about the X=0 plane.
	eye := func(start int, mirror float64) {
		for k := 0; k < 6; k++ {
			ang := float64(k) / 6 * 2 * math.Pi
			face[start+k] = Point{
				X: mirror * (0.035 + 0.016*math.Cos(ang)),
				Y: 0.02 + 0.008*math.Sin(ang),
				Z: 0.04,
			}
		}
	}
	eye(rightEyeStart, -1)
	eye(leftEyeStart, 1)
	// Mouth: outer ring (12) + inner ring (8).
	for k := 0; k < 12; k++ {
		ang := float64(k) / 12 * 2 * math.Pi
		face[mouthStart+k] = Point{X: 0.025 * math.Cos(ang), Y: -0.045 + 0.012*math.Sin(ang), Z: 0.045}
	}
	for k := 0; k < 8; k++ {
		ang := float64(k) / 8 * 2 * math.Pi
		face[mouthStart+12+k] = Point{X: 0.015 * math.Cos(ang), Y: -0.045 + 0.006*math.Sin(ang), Z: 0.046}
	}
	return face
}

// NeutralHand returns the rest pose of a 21-point hand: wrist at origin,
// five fingers of four joints each. mirror=-1 flips for the left hand.
func NeutralHand(mirror float64) [HandCount]Point {
	var hand [HandCount]Point
	hand[0] = Point{} // wrist
	fingerX := []float64{-0.03, -0.015, 0, 0.015, 0.03}
	fingerL := []float64{0.05, 0.08, 0.085, 0.08, 0.065}
	for f := 0; f < 5; f++ {
		for j := 1; j <= 4; j++ {
			frac := float64(j) / 4
			hand[1+f*4+j-1] = Point{
				X: mirror * fingerX[f],
				Y: fingerL[f] * frac,
				Z: 0.01 * frac,
			}
		}
	}
	return hand
}

// FPS is the capture rate: the paper streams keypoints at 90 FPS, and the
// session layer ticks each spatial sender at it.
const FPS float64 = 90

// sensorNoise is the per-point, per-frame tracking jitter (meters, std
// dev). Real keypoint extractors (dlib/OpenPose on RGB-D) have
// sub-millimeter jitter; it is what makes raw float coordinates nearly
// incompressible, the effect behind the paper's 0.64 Mbps.
const sensorNoise float64 = 0.0004

// Generator synthesizes a temporally coherent keypoint stream: head pose
// follows Ornstein-Uhlenbeck drift, blinks arrive as a Poisson process,
// mouth motion follows a speech envelope, and hands gesture while speaking.
type Generator struct {
	speakingFraction float64 // fraction of time this user talks
	rng              *simrand.Source
	base             Frame

	yaw, pitch, roll *simrand.OU
	handAmp          *simrand.OU
	noise            *simrand.Source
	speaking         bool
	speakLeft        float64 // seconds until speaking state flips
	blinkLeft        float64 // seconds until next blink
	blinkPhase       float64 // >0 while a blink is in progress
	mouthPhase       float64
	t                float64
	seq              uint32
}

// NewGenerator returns a generator of a typical meeting participant, seeded
// from rng, who talks speakingFraction of the time.
func NewGenerator(rng *simrand.Source, speakingFraction float64) *Generator {
	g := &Generator{speakingFraction: speakingFraction, rng: rng}
	g.base.Face = NeutralFace()
	g.base.LeftHand = NeutralHand(-1)
	g.base.RightHand = NeutralHand(1)
	g.yaw = simrand.NewOU(rng.Split("yaw"), 0, 0.8, 0.15)
	g.pitch = simrand.NewOU(rng.Split("pitch"), 0, 1.0, 0.08)
	g.roll = simrand.NewOU(rng.Split("roll"), 0, 1.2, 0.05)
	g.handAmp = simrand.NewOU(rng.Split("hand"), 0, 0.5, 0.4)
	g.noise = rng.Split("noise")
	g.speakLeft = rng.Exponential(4)
	g.blinkLeft = rng.Exponential(3.5)
	return g
}

// Next produces the following frame of the stream.
func (g *Generator) Next() Frame {
	dt := 1 / FPS
	g.t += dt
	f := g.base
	f.Seq = g.seq
	g.seq++

	// Rigid head pose.
	f.HeadYaw = g.yaw.Step(dt)
	f.HeadPitch = g.pitch.Step(dt)
	f.HeadRoll = g.roll.Step(dt)

	// Speaking state machine.
	g.speakLeft -= dt
	if g.speakLeft <= 0 {
		g.speaking = !g.speaking
		mean := 4.0 * g.speakingFraction
		if !g.speaking {
			mean = 4.0 * (1 - g.speakingFraction)
		}
		if mean < 0.5 {
			mean = 0.5
		}
		g.speakLeft = g.rng.Exponential(mean)
	}

	// Mouth: a ~5 Hz syllabic open/close while speaking, tiny tremor
	// otherwise.
	amp := 0.002
	if g.speaking {
		g.mouthPhase += dt * 2 * math.Pi * 5
		amp = 0.010 * (0.6 + 0.4*math.Sin(g.mouthPhase*0.31))
	}
	open := amp * (0.5 + 0.5*math.Sin(g.mouthPhase))
	for k := 0; k < 12; k++ { // outer ring
		i := mouthStart + k
		s := math.Sin(float64(k) / 12 * 2 * math.Pi)
		f.Face[i].Y += open * s
	}
	for k := 0; k < 8; k++ { // inner ring opens further
		i := mouthStart + 12 + k
		s := math.Sin(float64(k) / 8 * 2 * math.Pi)
		f.Face[i].Y += 1.5 * open * s
	}

	// Blinks: Poisson arrivals, ~150 ms duration, eyelids close (upper and
	// lower eye contour points converge).
	g.blinkLeft -= dt
	if g.blinkLeft <= 0 && g.blinkPhase <= 0 {
		g.blinkPhase = 0.15
		g.blinkLeft = g.rng.Exponential(3.5)
	}
	if g.blinkPhase > 0 {
		g.blinkPhase -= dt
		closure := math.Sin(math.Pi * (1 - g.blinkPhase/0.15)) // 0..1..0
		for _, start := range []int{rightEyeStart, leftEyeStart} {
			cy := f.Face[start].Y
			for k := 0; k < 6; k++ {
				f.Face[start+k].Y = f.Face[start+k].Y*(1-closure) + cy*closure
			}
		}
	}

	// Hands: gesture amplitude rises while speaking.
	level := g.handAmp.Step(dt)
	if g.speaking {
		level += 0.5
	}
	if level < 0 {
		level = 0
	}
	wave := math.Sin(2*math.Pi*1.3*g.t) * 0.03 * level
	lift := math.Sin(2*math.Pi*0.7*g.t+1) * 0.02 * level
	for i := range f.LeftHand {
		f.LeftHand[i].X += wave
		f.LeftHand[i].Y += lift
	}
	for i := range f.RightHand {
		f.RightHand[i].X -= wave
		f.RightHand[i].Y += lift * 0.8
	}

	// Sensor noise: independent per point per frame, as a real extractor
	// produces.
	jit := func(p *Point) {
		p.X += g.noise.Normal(0, sensorNoise)
		p.Y += g.noise.Normal(0, sensorNoise)
		p.Z += g.noise.Normal(0, sensorNoise)
	}
	for i := range f.Face {
		jit(&f.Face[i])
	}
	for i := range f.LeftHand {
		jit(&f.LeftHand[i])
	}
	for i := range f.RightHand {
		jit(&f.RightHand[i])
	}
	return f
}

// Speaking reports whether the synthetic user is currently talking.
func (g *Generator) Speaking() bool { return g.speaking }
