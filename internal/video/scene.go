package video

import (
	"math"

	"telepresence/internal/simrand"
)

// Scene synthesizes talking-head frames for 2D-persona experiments: a static
// background (the paper notes 2D-persona backgrounds are static and need not
// be delivered), a head ellipse with natural drift, a syllabic mouth, hand
// blobs while gesturing, and mild camera sensor noise — the content mix that
// determines videoconferencing bitrates.
//
// A scene renders on its caller's goroutine, one frame per Next, into one
// render target. A Source renders and codes a scene's frames ahead on an
// idle core.
type Scene struct {
	W, H int

	rng      *simrand.Source
	noiseRng *simrand.Source
	headX    *simrand.OU
	headY    *simrand.OU
	headS    *simrand.OU
	handAmp  *simrand.OU
	bg       []uint8
	frame    *Frame                // render target, allocated by the first Next
	noiseTab *[noiseTableLen]int16 // sensor-noise quantiles; nil without noise
	pcg      uint64                // noise index generator state
	pcgInc   uint64                // and its odd increment
	t        float64
	fps      float64
	// NoiseLevel is the camera noise std dev in grey levels. Set it before
	// the first Next; later writes are ignored.
	NoiseLevel float64
}

// NewScene builds a scene of the given dimensions at fps.
func NewScene(rng *simrand.Source, w, h int, fps float64) *Scene {
	s := &Scene{
		W: w, H: h, fps: fps,
		rng:        rng,
		noiseRng:   rng.Split("noise"),
		headX:      simrand.NewOU(rng.Split("hx"), 0, 0.6, 0.05),
		headY:      simrand.NewOU(rng.Split("hy"), 0, 0.8, 0.03),
		headS:      simrand.NewOU(rng.Split("hs"), 1, 0.5, 0.04),
		handAmp:    simrand.NewOU(rng.Split("ha"), 0.3, 0.4, 0.3),
		NoiseLevel: 1.2,
	}
	// Static background: soft diagonal gradient with some furniture-like
	// rectangles.
	s.bg = make([]uint8, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 90 + 50*float64(x)/float64(w) + 20*float64(y)/float64(h)
			s.bg[y*w+x] = uint8(v)
		}
	}
	for r := 0; r < 4; r++ {
		x0, y0 := rng.Intn(w*3/4), rng.Intn(h*3/4)
		x1, y1 := x0+rng.Intn(w/4)+8, y0+rng.Intn(h/4)+8
		shade := uint8(60 + rng.Intn(120))
		for y := y0; y < y1 && y < h; y++ {
			for x := x0; x < x1 && x < w; x++ {
				s.bg[y*w+x] = shade
			}
		}
	}
	return s
}

// Next renders and returns the following frame. The returned Frame is the
// scene's render target: it is valid until the next call to Next; Clone it
// to retain.
func (s *Scene) Next() *Frame {
	if s.frame == nil { // first call
		s.initNoise()
		s.frame = NewFrame(s.W, s.H)
	}
	s.render()
	return s.frame
}

// render draws the following frame into the render target. It is the only
// code that advances the scene's state.
func (s *Scene) render() {
	dt := 1 / s.fps
	s.t += dt
	f := s.frame
	copy(f.Pix, s.bg)

	cx := float64(s.W)/2 + s.headX.Step(dt)*float64(s.W)/4
	cy := float64(s.H)*0.45 + s.headY.Step(dt)*float64(s.H)/6
	scale := s.headS.Step(dt)
	rx := float64(s.W) * 0.14 * scale
	ry := float64(s.H) * 0.28 * scale

	fill := func(ecx, ecy, erx, ery float64, shade uint8) {
		// Clip the ellipse's bounding box to the frame up front; the
		// interior test is unchanged, so painted pixels are identical to
		// the historical per-pixel bounds-checked Set.
		x0, x1 := int(ecx-erx)-1, int(ecx+erx)+1
		y0, y1 := int(ecy-ery)-1, int(ecy+ery)+1
		if x0 < 0 {
			x0 = 0
		}
		if x1 >= s.W {
			x1 = s.W - 1
		}
		if y0 < 0 {
			y0 = 0
		}
		if y1 >= s.H {
			y1 = s.H - 1
		}
		for y := y0; y <= y1; y++ {
			row := f.Pix[y*s.W : y*s.W+s.W : y*s.W+s.W]
			dy := (float64(y) - ecy) / ery
			dy2 := dy * dy
			for x := x0; x <= x1; x++ {
				dx := (float64(x) - ecx) / erx
				if dx*dx+dy2 <= 1 {
					row[x] = shade
				}
			}
		}
	}
	// Shoulders, head, eyes.
	fill(cx, cy+ry*1.6, rx*2.3, ry*0.9, 70)
	fill(cx, cy, rx, ry, 190)
	fill(cx-rx*0.35, cy-ry*0.15, rx*0.12, ry*0.06, 30)
	fill(cx+rx*0.35, cy-ry*0.15, rx*0.12, ry*0.06, 30)
	// Mouth: 5 Hz syllabic open/close.
	mouth := 0.5 + 0.5*math.Sin(2*math.Pi*5*s.t)
	fill(cx, cy+ry*0.4, rx*0.3, ry*(0.03+0.08*mouth), 40)
	// Hands while gesturing.
	amp := s.handAmp.Step(dt)
	if amp > 0 {
		hx := cx - rx*2 + math.Sin(2*math.Pi*1.3*s.t)*rx*amp
		hy := cy + ry*1.2 + math.Cos(2*math.Pi*0.9*s.t)*ry*0.3*amp
		fill(hx, hy, rx*0.35, rx*0.35, 185)
		fill(2*cx-hx, hy, rx*0.35, rx*0.35, 185)
	}
	if s.noiseTab != nil {
		s.addNoise(f.Pix)
	}
}

// Sensor noise. Each pixel adds an entry of a table of noiseTableLen
// values, picked by a PCG generator the scene seeds from its noise stream:
// PCG-RXS-M-XS-64 (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
// Statistically Good Algorithms for Random Number Generation", 2014), whose
// every 64-bit output gives noisePerWord indices from its high bits. The
// table holds the quantiles of round(Normal(0, NoiseLevel)) at evenly
// spaced probabilities, so its marginal is the rounded normal's to within
// 1/noiseTableLen, its mean is exactly 0, and no scene's table is off by
// the sampling error of a few thousand draws.
const (
	noiseBits     = 12
	noiseTableLen = 1 << noiseBits
	noisePerWord  = 64 / noiseBits // addNoise unrolls this many

	pcgMul = 6364136223846793005
	pcgOut = 12605985483967701277
)

// initNoise builds the noise table for the current NoiseLevel and seeds
// the index generator.
func (s *Scene) initNoise() {
	if s.NoiseLevel <= 0 {
		return
	}
	s.noiseTab = new([noiseTableLen]int16)
	for i := range s.noiseTab {
		z := math.Sqrt2 * math.Erfinv(2*(float64(i)+0.5)/noiseTableLen-1)
		// Beyond ±255 every pixel saturates alike.
		s.noiseTab[i] = int16(max(-255, min(255, math.Round(s.NoiseLevel*z))))
	}
	s.pcg = uint64(s.noiseRng.Int63())
	s.pcgInc = uint64(s.noiseRng.Int63())<<1 | 1
}

// addNoise adds one table entry to each pixel of pix in raster order,
// clamped to 0-255.
func (s *Scene) addNoise(pix []uint8) {
	tab := s.noiseTab
	state, inc := s.pcg, s.pcgInc
	const mask = noiseTableLen - 1
	for len(pix) > 0 {
		// One PCG step: advance the LCG, permute the old state.
		old := state
		state = old*pcgMul + inc
		r := ((old >> (old>>59 + 5)) ^ old) * pcgOut
		r ^= r >> 43
		if len(pix) < noisePerWord {
			for i, p := range pix {
				pix[i] = clampPix(int32(p) + int32(tab[r>>(64-noiseBits)]))
				r <<= noiseBits
			}
			break
		}
		p := pix[:noisePerWord:noisePerWord]
		p[0] = clampPix(int32(p[0]) + int32(tab[r>>(64-noiseBits)]))
		p[1] = clampPix(int32(p[1]) + int32(tab[r>>(64-2*noiseBits)&mask]))
		p[2] = clampPix(int32(p[2]) + int32(tab[r>>(64-3*noiseBits)&mask]))
		p[3] = clampPix(int32(p[3]) + int32(tab[r>>(64-4*noiseBits)&mask]))
		p[4] = clampPix(int32(p[4]) + int32(tab[r>>(64-5*noiseBits)&mask]))
		pix = pix[noisePerWord:]
	}
	s.pcg = state
}
