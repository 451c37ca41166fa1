// Package video implements the 2D-persona path: a block-transform video
// codec (8x8 integer transform, JPEG-style quantization, inter-frame
// prediction, adaptive range coding) with closed-loop rate control, plus a
// synthetic talking-head scene generator. Zoom/Webex/Teams and FaceTime's
// 2D persona all deliver this kind of stream (§4.2); per-app resolution and
// target bitrate come from the vca package.
//
// The per-pixel arithmetic is integer: the scene's sensor noise comes from
// a per-scene table indexed by a PCG generator, and the codec uses the
// H.264 8x8 integer core transform with table-driven multiply-shift
// quantisation, built on both sides from the float32 qscale the frame
// header carries. Its output bytes are pinned by digests (TestSceneDigest,
// TestEncodeDigest), not by parity with a float reference.
//
// Both codec directions run allocation-free in steady state: the encoder
// reconstructs into its one reference frame in place, the decoder
// double-buffers its reference (a corrupt frame must leave the last good
// one intact), both reuse their coefficient and body scratch, and both hold
// reusable entropy coders. Encode's returned EncodedFrame and Decode's
// returned Frame are therefore owned by the codec and valid only until the
// next call — callers that retain them must copy.
package video

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"telepresence/internal/entropy"
)

// Frame is a grayscale (luma) image. Chroma would add a roughly constant
// factor and is not needed for any of the paper's findings.
type Frame struct {
	W, H int
	Pix  []uint8
}

// NewFrame allocates a zeroed frame.
func NewFrame(w, h int) *Frame {
	return &Frame{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel at (x,y), clamping out-of-range coordinates to the
// edge (convenient for block fetches at image borders).
func (f *Frame) At(x, y int) uint8 {
	if x < 0 {
		x = 0
	}
	if x >= f.W {
		x = f.W - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= f.H {
		y = f.H - 1
	}
	return f.Pix[y*f.W+x]
}

// Set writes the pixel at (x,y); out-of-range writes are ignored.
func (f *Frame) Set(x, y int, v uint8) {
	if x >= 0 && x < f.W && y >= 0 && y < f.H {
		f.Pix[y*f.W+x] = v
	}
}

// Clone deep-copies the frame.
func (f *Frame) Clone() *Frame {
	return &Frame{W: f.W, H: f.H, Pix: append([]uint8(nil), f.Pix...)}
}

// PSNR computes peak signal-to-noise ratio between two equally sized frames.
func PSNR(a, b *Frame) float64 {
	if a.W != b.W || a.H != b.H {
		return 0
	}
	var mse float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		mse += d * d
	}
	mse /= float64(len(a.Pix))
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}

// --- 8x8 integer transform ---

// block8 is one 8x8 block of transform input, coefficients or output,
// indexed [row][column].
type block8 [8][8]int32

// fwd8 is the H.264 High-profile 8-point forward core transform (Malvar
// et al., IEEE TCSVT 2003), in place, using only adds and shifts. Its
// basis rows are orthogonal with squared norms transformNorm; they
// approximate the DCT's.
func fwd8(v *[8]int32) {
	s07, s16, s25, s34 := v[0]+v[7], v[1]+v[6], v[2]+v[5], v[3]+v[4]
	d07, d16, d25, d34 := v[0]-v[7], v[1]-v[6], v[2]-v[5], v[3]-v[4]
	a0, a1, a2, a3 := s07+s34, s16+s25, s07-s34, s16-s25
	a4 := d16 + d25 + d07 + d07>>1
	a5 := d07 - d34 - d25 - d25>>1
	a6 := d07 + d34 - d16 - d16>>1
	a7 := d16 - d25 + d34 + d34>>1
	v[0], v[4] = a0+a1, a0-a1
	v[2], v[6] = a2+a3>>1, a2>>1-a3
	v[1], v[7] = a4+a7>>2, a4>>2-a7
	v[3], v[5] = a5+a6>>2, a6-a5>>2
}

// inv8 is the H.264 8-point inverse core transform, in place: the
// transpose of fwd8's basis, so inv8(fwd8(v)) is v scaled per
// coefficient by transformNorm.
func inv8(v *[8]int32) {
	e0, e2 := v[0]+v[4], v[0]-v[4]
	e4, e6 := v[2]>>1-v[6], v[2]+v[6]>>1
	e1 := v[5] - v[3] - v[7] - v[7]>>1
	e3 := v[1] + v[7] - v[3] - v[3]>>1
	e5 := v[7] - v[1] + v[5] + v[5]>>1
	e7 := v[3] + v[5] + v[1] + v[1]>>1
	f0, f6 := e0+e6, e0-e6
	f2, f4 := e2+e4, e2-e4
	f1, f7 := e1+e7>>2, e7-e1>>2
	f3, f5 := e3+e5>>2, e3>>2-e5
	v[0], v[7] = f0+f7, f0-f7
	v[1], v[6] = f2+f5, f2-f5
	v[2], v[5] = f4+f3, f4-f3
	v[3], v[4] = f6+f1, f6-f1
}

// forward applies fwd8 to every row, then every column.
func (b *block8) forward() {
	for y := range b {
		fwd8(&b[y])
	}
	var col [8]int32
	for x := 0; x < 8; x++ {
		for k := range col {
			col[k] = b[k][x]
		}
		fwd8(&col)
		for k := range col {
			b[k][x] = col[k]
		}
	}
}

// inverse applies inv8 to every column, then every row.
func (b *block8) inverse() {
	var col [8]int32
	for x := 0; x < 8; x++ {
		for k := range col {
			col[k] = b[k][x]
		}
		inv8(&col)
		for k := range col {
			b[k][x] = col[k]
		}
	}
	for y := range b {
		inv8(&b[y])
	}
}

// jpegLuma is the standard JPEG luminance quantization table.
var jpegLuma = [64]int{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

var zigzagOrder = [64]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// Config sets up an encoder.
type Config struct {
	W, H int
	// FPS is the frame rate (VCAs typically run 30).
	FPS float64
	// TargetBps is the closed-loop rate-control target (0 = fixed quality).
	TargetBps float64
	// Quality in (0,10]: initial/fixed quantizer scale; larger is better
	// quality and more bits. 1.0 corresponds to the plain JPEG table.
	Quality float64
	// GOP is the keyframe interval in frames.
	GOP int
	// SkipThreshold is the mean absolute block difference below which a
	// block is skipped in P-frames.
	SkipThreshold float64
}

// DefaultConfig returns a videoconferencing-shaped configuration.
func DefaultConfig(w, h int, targetBps float64) Config {
	return Config{W: w, H: h, FPS: 30, TargetBps: targetBps, Quality: 1,
		GOP: 60, SkipThreshold: 2.0}
}

// EncodedFrame is one compressed frame.
type EncodedFrame struct {
	// Data is owned by the encoder and valid until the next Encode call;
	// copy to retain.
	Data []byte
	Key  bool
	// QScale records the quantizer used (for diagnostics/ABR tests).
	QScale float64
}

// Encoder compresses frames. It keeps the decoder-visible reconstruction as
// its prediction reference so encoder and decoder never drift.
type Encoder struct {
	cfg     Config
	ref     *Frame // last reconstruction, overwritten in place by Encode
	n       int    // frames encoded
	qscale  float64
	bitDebt float64 // rate-control integrator

	body  []byte       // coefficient stream scratch
	out   []byte       // header + compressed output scratch
	frame EncodedFrame // returned by Encode
	cmp   *entropy.Compressor
}

// NewEncoder validates cfg and returns an encoder.
func NewEncoder(cfg Config) (*Encoder, error) {
	if cfg.W <= 0 || cfg.H <= 0 {
		return nil, fmt.Errorf("video: bad dimensions %dx%d", cfg.W, cfg.H)
	}
	if cfg.GOP <= 0 {
		cfg.GOP = 60
	}
	if cfg.Quality <= 0 {
		cfg.Quality = 1
	}
	if cfg.FPS <= 0 {
		cfg.FPS = 30
	}
	return &Encoder{cfg: cfg, qscale: cfg.Quality, cmp: entropy.NewCompressor()}, nil
}

// Config returns the encoder configuration (with defaults applied).
func (e *Encoder) Config() Config { return e.cfg }

// SetTargetBps retargets the closed-loop rate controller mid-stream: the
// next Encode's quantizer adaptation steers frame sizes toward the new
// target. This is the knob a congestion controller turns (see
// internal/ratecontrol); <= 0 disables rate control (fixed quality).
func (e *Encoder) SetTargetBps(bps float64) { e.cfg.TargetBps = bps }

// TargetBps returns the current rate-control target.
func (e *Encoder) TargetBps() float64 { return e.cfg.TargetBps }

const (
	frameKey   = 0x49 // 'I'
	frameDelta = 0x50 // 'P'
)

// Encode compresses f. Frames must match the configured dimensions. The
// returned EncodedFrame (and its Data) is owned by the encoder and
// overwritten by the next Encode call; copy what must outlive it.
//
// The reconstruction overwrites the reference block by block. Prediction is
// co-located, so a block reads only its own reference pixels, and it reads
// each of them before writing it; a skipped block's reconstruction is the
// reference it already holds. An edge block's out-of-frame positions clamp
// onto edge pixels that may already be overwritten, but Set discards
// exactly those positions. Encode cannot fail after its size check, so the
// reference is never left half-written.
func (e *Encoder) Encode(f *Frame) (*EncodedFrame, error) {
	if f.W != e.cfg.W || f.H != e.cfg.H {
		return nil, fmt.Errorf("video: frame %dx%d vs config %dx%d", f.W, f.H, e.cfg.W, e.cfg.H)
	}
	key := e.n%e.cfg.GOP == 0 || e.ref == nil
	e.n++

	bw := (f.W + 7) / 8
	bh := (f.H + 7) / 8
	if e.ref == nil {
		e.ref = NewFrame(f.W, f.H)
	}
	ref := e.ref

	// Payload: per block, a skip flag byte stream and coefficient stream.
	body := e.body[:0]
	var vbuf [binary.MaxVarintLen64]byte
	putUv := func(v uint64) {
		n := binary.PutUvarint(vbuf[:], v)
		body = append(body, vbuf[:n]...)
	}
	zig := func(v int32) uint64 { return uint64(uint32(v<<1) ^ uint32(v>>31)) }

	qs := float32(e.qscale)
	qt := newQuantTables(qs)
	var block block8
	w := f.W
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			ox, oy := bx*8, by*8
			interior := ox+8 <= f.W && oy+8 <= f.H
			// P-frame skip decision against the reference reconstruction.
			if !key {
				var sad int
				if interior {
					// The skip test is monotone in sad, so stop summing once
					// it has failed: the flag is unchanged.
					base := oy*w + ox
					for y := 0; y < 8 && float64(sad)/64 < e.cfg.SkipThreshold; y++ {
						cur := f.Pix[base+y*w : base+y*w+8 : base+y*w+8]
						prev := ref.Pix[base+y*w : base+y*w+8 : base+y*w+8]
						for x := 0; x < 8; x++ {
							d := int(cur[x]) - int(prev[x])
							m := d >> 63 // branch-free |d|
							sad += (d ^ m) - m
						}
					}
				} else {
					for y := 0; y < 8; y++ {
						for x := 0; x < 8; x++ {
							d := int(f.At(ox+x, oy+y)) - int(ref.At(ox+x, oy+y))
							if d < 0 {
								d = -d
							}
							sad += d
						}
					}
				}
				if float64(sad)/64 < e.cfg.SkipThreshold {
					body = append(body, 0) // skip: the reference is the reconstruction
					continue
				}
				body = append(body, 1) // coded
			}
			// Residual (or intra) block.
			if interior {
				base := oy*w + ox
				for y := range block {
					cur := f.Pix[base+y*w : base+y*w+8 : base+y*w+8]
					if key {
						for x := range block[y] {
							block[y][x] = (int32(cur[x]) - 128) << inShift
						}
					} else {
						prev := ref.Pix[base+y*w : base+y*w+8 : base+y*w+8]
						for x := range block[y] {
							block[y][x] = (int32(cur[x]) - int32(prev[x])) << inShift
						}
					}
				}
			} else {
				for y := range block {
					for x := range block[y] {
						v := int32(f.At(ox+x, oy+y))
						if !key {
							v -= int32(ref.At(ox+x, oy+y))
						} else {
							v -= 128
						}
						block[y][x] = v << inShift
					}
				}
			}
			block.forward()
			// Quantize + zigzag + run-length code.
			run := 0
			for _, zi := range zigzagOrder {
				c := qt.quantise(block[zi>>3&7][zi&7], zi)
				block[zi>>3&7][zi&7] = c * qt.deq[zi] // dequantize for recon
				if c == 0 {
					run++
					continue
				}
				putUv(uint64(run))
				putUv(zig(c))
				run = 0
			}
			putUv(uint64(run) | 1<<20) // end-of-block marker: impossible run
			// Reconstruct exactly as the decoder will.
			block.inverse()
			var pred []uint8 // a keyframe predicts 128
			if interior {
				base := oy*w + ox
				for y := range block {
					dst := ref.Pix[base+y*w : base+y*w+8]
					if !key {
						pred = dst
					}
					addResidual(dst, pred, &block[y])
				}
			} else {
				for y := range block {
					for x := range block[y] {
						p := int32(128)
						if !key {
							p = int32(ref.At(ox+x, oy+y))
						}
						ref.Set(ox+x, oy+y, clampPix(p+descale(block[y][x])))
					}
				}
			}
		}
	}
	e.body = body

	hdr := e.out[:0]
	if key {
		hdr = append(hdr, frameKey)
	} else {
		hdr = append(hdr, frameDelta)
	}
	var d [8]byte
	binary.LittleEndian.PutUint16(d[0:], uint16(f.W))
	binary.LittleEndian.PutUint16(d[2:], uint16(f.H))
	binary.LittleEndian.PutUint32(d[4:], math.Float32bits(qs))
	hdr = append(hdr, d[:]...)
	e.out = e.cmp.Compress(hdr, body)

	e.frame = EncodedFrame{Data: e.out, Key: key, QScale: float64(qs)}
	e.adaptRate(len(e.out))
	return &e.frame, nil
}

// descale rounds an inverse-transform output to grey levels.
func descale(v int32) int32 { return (v + 1<<(outShift-1)) >> outShift }

// addResidual writes one reconstructed block row: pred plus the descaled
// residual res, clamped, into dst. A nil pred is a keyframe's, 128.
func addResidual(dst, pred []uint8, res *[8]int32) {
	dst = dst[:8]
	if pred == nil {
		for x, r := range res {
			dst[x] = clampPix(128 + descale(r))
		}
		return
	}
	pred = pred[:8]
	for x, r := range res {
		dst[x] = clampPix(int32(pred[x]) + descale(r))
	}
}

// clampPix clamps v to a pixel value.
func clampPix(v int32) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// transformNorm is the squared norm of each fwd8 basis row.
var transformNorm = [8]float64{8, 289. / 32, 5, 289. / 32, 8, 289. / 32, 5, 289. / 32}

// Fixed-point scales of the quantiser tables. Residuals enter the forward
// transform shifted left by inShift. The reciprocals carry recipShift
// fractional bits, enough for the coarsest step, and the inverse
// transform's output outShift, enough that a table entry's rounding is
// below the finest step's own error; more would risk int32 overflow in
// the inverse transform.
const (
	inShift    = 3
	recipShift = 32
	outShift   = 13
)

// quantTables is one frame's quantiser: the JPEG table scaled by the
// frame's qscale (higher qscale means finer steps, better quality and more
// bits), with the transform's row norms folded in. A step is the JPEG
// entry over qscale, floored at 0.5, in units of an orthonormal DCT
// coefficient.
type quantTables struct {
	// recip quantises a forward-transform output y to
	// round(|y|*recip >> recipShift), with y's sign.
	recip [64]int32
	// deq dequantises a level c to c*deq, the inverse transform's input.
	deq [64]int32
}

// newQuantTables builds the tables for the qscale a frame header carries.
// Encoder and decoder both build them from this float32, so the encoder's
// reconstruction is the decoder's output.
func newQuantTables(qscale float32) quantTables {
	var t quantTables
	for i, v := range jpegLuma {
		t.setStep(i, float64(v)/float64(qscale))
	}
	return t
}

// setStep sets coefficient i's step to q, floored at 0.5 and capped at
// 1e4. Rate control keeps qscale within [0.02, 10], so q within [1, 6050];
// the cap bounds the tables for forged headers, NaN included.
func (t *quantTables) setStep(i int, q float64) {
	if !(q <= 1e4) {
		q = 1e4
	}
	q = max(q, 0.5)
	norm := math.Sqrt(transformNorm[i>>3] * transformNorm[i&7])
	t.recip[i] = int32(math.Round((1 << recipShift) / (norm * q * (1 << inShift))))
	t.deq[i] = int32(math.Round((1 << outShift) * q / norm))
}

// quantise returns y's level under qt's step i, rounding half away from
// zero.
func (qt *quantTables) quantise(y int32, i int) int32 {
	s := y >> 31
	m := int64((y ^ s) - s)
	c := int32((m*int64(qt.recip[i]) + 1<<(recipShift-1)) >> recipShift)
	return (c ^ s) - s
}

// adaptRate is a simple closed-loop controller nudging qscale so that mean
// frame size approaches TargetBps/FPS. Real VCAs do the same at the encoder
// level (the paper observes the resulting per-app bitrates in Figure 5).
func (e *Encoder) adaptRate(actualBytes int) {
	if e.cfg.TargetBps <= 0 {
		return
	}
	targetBytes := e.cfg.TargetBps / 8 / e.cfg.FPS
	ratio := float64(actualBytes) / targetBytes
	// Proportional step with damping; clamp to a sane quantizer window.
	e.qscale *= math.Pow(ratio, -0.3)
	if e.qscale < 0.02 {
		e.qscale = 0.02
	}
	if e.qscale > 10 {
		e.qscale = 10
	}
}

// Decoder decompresses the encoder's output.
type Decoder struct {
	ref   *Frame
	spare *Frame
	body  []byte
	dec   *entropy.Decompressor

	// gate is Validate's reference bookkeeping (dimensions only).
	gate Gate
}

// NewDecoder returns an empty decoder.
func NewDecoder() *Decoder { return &Decoder{dec: entropy.NewDecompressor()} }

// ErrCorrupt reports an undecodable video frame.
var ErrCorrupt = errors.New("video: corrupt frame")

// Decode reconstructs one frame. The returned Frame is the decoder's
// reference buffer: it is valid (and must not be modified) only until the
// next Decode call; copy with Clone to retain.
func (d *Decoder) Decode(data []byte) (*Frame, error) {
	// Decode predicts only from pixels it reconstructed: a zero Gate
	// holds no reference of its own.
	hd, err := Gate{}.check(data, d.ref)
	if err != nil {
		return nil, err
	}
	key, w, h := hd.key, hd.w, hd.h
	body, err := d.dec.Decompress(d.body[:0], data[headerLen:])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	d.body = body

	qt := newQuantTables(hd.qscale)

	pos := 0
	getUv := func() (uint64, error) {
		v, n := binary.Uvarint(body[pos:])
		if n <= 0 {
			return 0, ErrCorrupt
		}
		pos += n
		return v, nil
	}

	bw, bh := (w+7)/8, (h+7)/8
	// Every block costs at least a byte (a skip flag or an end-of-block
	// marker), so a body shorter than the block count cannot decode; say so
	// before allocating a frame of the header's dimensions.
	if len(body) < bw*bh {
		return nil, ErrCorrupt
	}
	out := d.spare
	if out == nil || out.W != w || out.H != h {
		out = NewFrame(w, h)
	}
	d.spare = nil
	var block block8
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			ox, oy := bx*8, by*8
			interior := ox+8 <= w && oy+8 <= h
			if !key {
				if pos >= len(body) {
					return nil, ErrCorrupt
				}
				flag := body[pos]
				pos++
				if flag == 0 { // skipped block
					if interior {
						base := oy*w + ox
						for y := 0; y < 8; y++ {
							copy(out.Pix[base+y*w:base+y*w+8], d.ref.Pix[base+y*w:base+y*w+8])
						}
					} else {
						for y := 0; y < 8; y++ {
							for x := 0; x < 8; x++ {
								out.Set(ox+x, oy+y, d.ref.At(ox+x, oy+y))
							}
						}
					}
					continue
				}
				if flag != 1 {
					return nil, ErrCorrupt
				}
			}
			block = block8{}
			zi := 0
			for {
				run, err := getUv()
				if err != nil {
					return nil, err
				}
				if run >= 1<<20 { // end of block
					break
				}
				zi += int(run)
				val, err := getUv()
				if err != nil {
					return nil, err
				}
				if zi >= 64 {
					return nil, ErrCorrupt
				}
				c := int32(val>>1) ^ -int32(val&1)
				k := zigzagOrder[zi]
				block[k>>3&7][k&7] = c * qt.deq[k]
				zi++
			}
			block.inverse()
			var pred []uint8 // a keyframe predicts 128
			if interior {
				base := oy*w + ox
				for y := range block {
					if !key {
						pred = d.ref.Pix[base+y*w : base+y*w+8]
					}
					addResidual(out.Pix[base+y*w:base+y*w+8], pred, &block[y])
				}
			} else {
				for y := range block {
					for x := range block[y] {
						p := int32(128)
						if !key {
							p = int32(d.ref.At(ox+x, oy+y))
						}
						out.Set(ox+x, oy+y, clampPix(p+descale(block[y][x])))
					}
				}
			}
		}
	}
	d.spare = d.ref
	d.ref = out
	return out, nil
}

// Validate parses one encoded frame exactly as Decode does — same header
// checks, same entropy decode, same coefficient-stream walk, same
// reference-presence rules — but skips pixel reconstruction. For a given
// stream, drive a Decoder with either Decode or Validate, not a mixture:
// Validate tracks only the reference dimensions, so a delta frame Decoded
// after a Validated keyframe has no reference pixels to reconstruct from
// and errors.
//
// The session receive path does not call Validate: it accepts frames by
// checksum with Gate.Accept, which agrees with Validate on every frame an
// Encoder produced. Validate stays the reference that agreement is tested
// against, and what the benchmark's replay times.
func (d *Decoder) Validate(data []byte) error {
	hd, err := d.gate.check(data, d.ref)
	if err != nil {
		return err
	}
	key, w, h := hd.key, hd.w, hd.h
	body, err := d.dec.Decompress(d.body[:0], data[headerLen:])
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	d.body = body

	pos := 0
	getUv := func() (uint64, error) {
		v, n := binary.Uvarint(body[pos:])
		if n <= 0 {
			return 0, ErrCorrupt
		}
		pos += n
		return v, nil
	}
	bw, bh := (w+7)/8, (h+7)/8
	for b := 0; b < bw*bh; b++ {
		if !key {
			if pos >= len(body) {
				return ErrCorrupt
			}
			flag := body[pos]
			pos++
			if flag == 0 {
				continue // skipped block
			}
			if flag != 1 {
				return ErrCorrupt
			}
		}
		zi := 0
		for {
			run, err := getUv()
			if err != nil {
				return err
			}
			if run >= 1<<20 { // end of block
				break
			}
			zi += int(run)
			if _, err := getUv(); err != nil {
				return err
			}
			if zi >= 64 {
				return ErrCorrupt
			}
			zi++
		}
	}
	d.gate.setRef(hd)
	return nil
}
