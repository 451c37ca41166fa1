// Package persona assembles the spatial-persona asset: the pre-captured
// head mesh with its LOD chain (what Vision Pro builds offline from the
// TrueDepth cameras, §2) and the keypoint rig that deforms it from received
// semantic frames. Reconstruction happens entirely on the receiver, which is
// why viewport changes never wait on the network (§4.3's display-latency
// experiment).
package persona

import (
	"fmt"
	"math"

	"telepresence/internal/keypoints"
	"telepresence/internal/mesh"
	"telepresence/internal/semantic"
	"telepresence/internal/simrand"
	"telepresence/internal/video"
)

// Config controls asset generation.
type Config struct {
	// Name labels the asset (usually the user id).
	Name string
	// TargetTriangles is the full-quality mesh budget (default: the
	// paper's 78,030).
	TargetTriangles int
	// BuildLODs generates the whole LOD chain; disable for tests that
	// only need the full mesh.
	BuildLODs bool
	// BindK is how many keypoints influence each vertex.
	BindK int
}

// Asset is a rig-bound persona ready for reconstruction.
type Asset struct {
	Name string
	// LODs holds the mesh chain in decreasing quality; LODs[0] is full.
	LODs []*mesh.Mesh
	// Neutral is the tracked keypoint set in the asset's rest pose.
	Neutral []keypoints.Point

	// binding: per full-LOD vertex, the influencing keypoints and weights.
	bindIdx [][]int
	bindW   [][]float64
}

// NewAsset generates a head, its LOD chain, and the rig binding.
func NewAsset(rng *simrand.Source, cfg Config) (*Asset, error) {
	if cfg.TargetTriangles == 0 {
		cfg.TargetTriangles = mesh.PersonaTriangles
	}
	if cfg.BindK <= 0 {
		cfg.BindK = 3
	}
	full := mesh.GenerateHead(rng, mesh.HeadConfig{
		TargetTriangles: cfg.TargetTriangles, Radius: 0.10, Variation: 1,
	})
	a := &Asset{Name: cfg.Name, LODs: []*mesh.Mesh{full}}
	if cfg.BuildLODs {
		if full.TriangleCount() == mesh.PersonaTriangles {
			lods, err := mesh.LODChain(full)
			if err != nil {
				return nil, err
			}
			a.LODs = lods
		} else {
			// Scaled-down chain with the same ratios as the paper's.
			cur := full
			for _, frac := range []float64{0.577, 0.270, 0.0005} {
				target := int(float64(full.TriangleCount()) * frac)
				if target < 4 {
					target = 4
				}
				s, err := mesh.Simplify(cur, target)
				if err != nil {
					return nil, err
				}
				a.LODs = append(a.LODs, s)
				cur = s
			}
		}
	}

	// Neutral tracked keypoints, scaled to the head size.
	var nf keypoints.Frame
	nf.Face = keypoints.NeutralFace()
	nf.LeftHand = keypoints.NeutralHand(-1)
	nf.RightHand = keypoints.NeutralHand(1)
	a.Neutral = nf.Tracked()

	a.bind(cfg.BindK)
	return a, nil
}

// bind precomputes, for each vertex of the full LOD, its BindK nearest
// facial keypoints with inverse-distance weights. Hands are separate bodies
// and do not deform the head mesh.
func (a *Asset) bind(k int) {
	full := a.LODs[0]
	nFace := keypoints.TrackedFace
	a.bindIdx = make([][]int, full.VertexCount())
	a.bindW = make([][]float64, full.VertexCount())
	for vi, v := range full.Vertices {
		type cand struct {
			i int
			d float64
		}
		best := make([]cand, 0, k+1)
		for ki := 0; ki < nFace; ki++ {
			kp := a.Neutral[ki]
			d := math.Sqrt((v.X-kp.X)*(v.X-kp.X) + (v.Y-kp.Y)*(v.Y-kp.Y) + (v.Z-kp.Z)*(v.Z-kp.Z))
			best = append(best, cand{ki, d})
			// Keep the k smallest by insertion.
			for j := len(best) - 1; j > 0 && best[j].d < best[j-1].d; j-- {
				best[j], best[j-1] = best[j-1], best[j]
			}
			if len(best) > k {
				best = best[:k]
			}
		}
		idx := make([]int, len(best))
		w := make([]float64, len(best))
		var sum float64
		for j, c := range best {
			idx[j] = c.i
			// Inverse-distance with a falloff radius: far vertices (back
			// of the skull) barely move with expressions.
			w[j] = 1 / (c.d/0.03 + 1)
			w[j] *= w[j]
			sum += w[j]
		}
		if sum > 0 {
			for j := range w {
				w[j] /= sum
			}
		}
		a.bindIdx[vi] = idx
		a.bindW[vi] = w
	}
}

// Pose deforms the full-quality mesh according to a decoded semantic frame:
// rigid head rotation plus expression displacement from the facial
// keypoints. The returned mesh is freshly allocated.
func (a *Asset) Pose(df *semantic.DecodedFrame) (*mesh.Mesh, error) {
	if len(df.Points) != keypoints.TrackedTotal {
		return nil, fmt.Errorf("persona: frame has %d points, want %d", len(df.Points), keypoints.TrackedTotal)
	}
	full := a.LODs[0]
	out := &mesh.Mesh{
		Vertices:  make([]mesh.Vec3, full.VertexCount()),
		Triangles: full.Triangles, // topology shared, geometry fresh
	}
	sy, cy := math.Sincos(df.Yaw)
	sp, cp := math.Sincos(df.Pitch)
	sr, cr := math.Sincos(df.Roll)
	for vi, v := range full.Vertices {
		// Expression displacement.
		var dx, dy, dz float64
		for j, ki := range a.bindIdx[vi] {
			w := a.bindW[vi][j]
			n := a.Neutral[ki]
			p := df.Points[ki]
			dx += w * (p.X - n.X)
			dy += w * (p.Y - n.Y)
			dz += w * (p.Z - n.Z)
		}
		x, y, z := v.X+dx, v.Y+dy, v.Z+dz
		// Rigid pose: roll (Z), pitch (X), yaw (Y).
		x, y = x*cr-y*sr, x*sr+y*cr
		y, z = y*cp-z*sp, y*sp+z*cp
		x, z = x*cy+z*sy, -x*sy+z*cy
		out.Vertices[vi] = mesh.Vec3{X: x, Y: y, Z: z}
	}
	return out, nil
}

// Reconstructor is the receiver-side pipeline: semantic decode plus local
// posing. It owns the latest good pose, so rendering any new viewpoint is a
// purely local operation.
type Reconstructor struct {
	asset *Asset
	dec   *semantic.Decoder
	last  *semantic.DecodedFrame
	// FramesDecoded and FramesRejected count pipeline health.
	FramesDecoded, FramesRejected int
}

// NewReconstructor builds a reconstructor over an asset.
func NewReconstructor(asset *Asset) *Reconstructor {
	return &Reconstructor{asset: asset, dec: semantic.NewDecoder()}
}

// Feed consumes one semantic wire frame. Errors follow the semantic
// package's all-or-nothing contract.
func (r *Reconstructor) Feed(wire []byte) error {
	df, err := r.dec.Decode(wire)
	if err != nil {
		r.FramesRejected++
		return err
	}
	r.FramesDecoded++
	r.last = df
	return nil
}

// HavePose reports whether at least one frame has been reconstructed.
func (r *Reconstructor) HavePose() bool { return r.last != nil }

// CurrentMesh returns the posed mesh for the most recent good frame.
func (r *Reconstructor) CurrentMesh() (*mesh.Mesh, error) {
	if r.last == nil {
		return nil, fmt.Errorf("persona: no frame reconstructed yet")
	}
	return r.asset.Pose(r.last)
}

// Splat rasterizes a mesh into a video frame with a perspective point
// splat and a z-buffer: the "pre-render the spatial persona to 2D video"
// path that FaceTime uses toward non-Vision-Pro devices (§4.1) and the
// remote-rendering ablation (Implications 4).
func Splat(m *mesh.Mesh, camPos mesh.Vec3, w, h int) *video.Frame {
	f := video.NewFrame(w, h)
	zbuf := make([]float64, w*h)
	for i := range zbuf {
		zbuf[i] = math.Inf(1)
	}
	focal := float64(h) // ~53 deg vertical FOV
	for _, v := range m.Vertices {
		dz := v.Z - camPos.Z
		if dz >= -1e-6 {
			continue // behind the camera plane (camera looks toward -Z)
		}
		d := -dz
		px := int(float64(w)/2 + (v.X-camPos.X)/d*focal)
		py := int(float64(h)/2 - (v.Y-camPos.Y)/d*focal)
		if px < 0 || px >= w || py < 0 || py >= h {
			continue
		}
		if d < zbuf[py*w+px] {
			zbuf[py*w+px] = d
			// Depth-shaded: nearer is brighter.
			shade := 255 - int(math.Min(1, d/1.5)*180)
			f.Set(px, py, uint8(shade))
		}
	}
	return f
}
