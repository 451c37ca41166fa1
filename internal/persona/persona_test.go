package persona

import (
	"math"
	"testing"

	"telepresence/internal/keypoints"
	"telepresence/internal/mesh"
	"telepresence/internal/semantic"
	"telepresence/internal/simrand"
)

func smallAsset(t *testing.T, seed int64) *Asset {
	t.Helper()
	a, err := NewAsset(simrand.New(seed), Config{
		Name: "u2", TargetTriangles: 2000, BuildLODs: true, BindK: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAssetLODChainRatios(t *testing.T) {
	a := smallAsset(t, 1)
	if len(a.LODs) != 4 {
		t.Fatalf("%d LODs, want 4", len(a.LODs))
	}
	full := a.LODs[0].TriangleCount()
	for i := 1; i < len(a.LODs); i++ {
		if a.LODs[i].TriangleCount() >= a.LODs[i-1].TriangleCount() {
			t.Errorf("LOD %d (%d tris) not smaller than LOD %d (%d)",
				i, a.LODs[i].TriangleCount(), i-1, a.LODs[i-1].TriangleCount())
		}
	}
	// Proxy LOD is tiny.
	if proxy := a.LODs[3].TriangleCount(); proxy > full/50 {
		t.Errorf("proxy LOD %d too large vs full %d", proxy, full)
	}
	for i, l := range a.LODs {
		if err := l.Validate(); err != nil {
			t.Errorf("LOD %d invalid: %v", i, err)
		}
	}
}

func TestPoseNeutralIsNearIdentity(t *testing.T) {
	a := smallAsset(t, 2)
	var nf keypoints.Frame
	nf.Face = keypoints.NeutralFace()
	nf.LeftHand = keypoints.NeutralHand(-1)
	nf.RightHand = keypoints.NeutralHand(1)
	df := &semantic.DecodedFrame{Points: nf.Tracked()}
	posed, err := a.Pose(df)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := range posed.Vertices {
		if d := posed.Vertices[i].Sub(a.LODs[0].Vertices[i]).Len(); d > worst {
			worst = d
		}
	}
	if worst > 1e-9 {
		t.Errorf("neutral pose moved vertices by %v", worst)
	}
}

func TestPoseYawRotates(t *testing.T) {
	a := smallAsset(t, 3)
	var nf keypoints.Frame
	nf.Face = keypoints.NeutralFace()
	nf.LeftHand = keypoints.NeutralHand(-1)
	nf.RightHand = keypoints.NeutralHand(1)
	df := &semantic.DecodedFrame{Points: nf.Tracked(), Yaw: math.Pi / 2}
	posed, err := a.Pose(df)
	if err != nil {
		t.Fatal(err)
	}
	// 90 degree yaw: x' = x cos + z sin, z' = -x sin + z cos -> (z, -x).
	for i, v := range a.LODs[0].Vertices[:50] {
		got := posed.Vertices[i]
		want := mesh.Vec3{X: v.Z, Y: v.Y, Z: -v.X}
		if got.Sub(want).Len() > 1e-9 {
			t.Fatalf("vertex %d rotated to %+v, want %+v", i, got, want)
		}
	}
}

func TestPoseExpressionMovesMouthRegion(t *testing.T) {
	a := smallAsset(t, 4)
	var nf keypoints.Frame
	nf.Face = keypoints.NeutralFace()
	nf.LeftHand = keypoints.NeutralHand(-1)
	nf.RightHand = keypoints.NeutralHand(1)
	pts := nf.Tracked()
	// Open the mouth: push all mouth keypoints (indices 12..31 of the
	// tracked set) down by 1 cm.
	moved := append([]keypoints.Point(nil), pts...)
	for i := 12; i < 32; i++ {
		moved[i].Y -= 0.01
	}
	neutral, _ := a.Pose(&semantic.DecodedFrame{Points: pts})
	open, err := a.Pose(&semantic.DecodedFrame{Points: moved})
	if err != nil {
		t.Fatal(err)
	}
	var movedCount int
	var maxMove float64
	for i := range neutral.Vertices {
		d := open.Vertices[i].Sub(neutral.Vertices[i]).Len()
		if d > 1e-4 {
			movedCount++
		}
		if d > maxMove {
			maxMove = d
		}
	}
	if movedCount == 0 {
		t.Fatal("expression did not move any vertices")
	}
	if movedCount == len(neutral.Vertices) {
		t.Error("expression moved every vertex; binding has no locality")
	}
	if maxMove > 0.011 {
		t.Errorf("max vertex move %v exceeds keypoint displacement", maxMove)
	}
}

func TestPoseWrongPointCount(t *testing.T) {
	a := smallAsset(t, 5)
	if _, err := a.Pose(&semantic.DecodedFrame{Points: make([]keypoints.Point, 3)}); err == nil {
		t.Error("wrong point count accepted")
	}
}

func TestReconstructorEndToEnd(t *testing.T) {
	a := smallAsset(t, 6)
	rec := NewReconstructor(a)
	if rec.HavePose() {
		t.Error("fresh reconstructor claims a pose")
	}
	if _, err := rec.CurrentMesh(); err == nil {
		t.Error("CurrentMesh before any frame should error")
	}
	gen := keypoints.NewGenerator(simrand.New(7), 0.5)
	enc := semantic.NewEncoder()
	for i := 0; i < 10; i++ {
		f := gen.Next()
		if err := rec.Feed(enc.Encode(&f)); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if rec.FramesDecoded != 10 || rec.FramesRejected != 0 {
		t.Errorf("decoded/rejected = %d/%d", rec.FramesDecoded, rec.FramesRejected)
	}
	m, err := rec.CurrentMesh()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReconstructorRejectsCorrupt(t *testing.T) {
	a := smallAsset(t, 8)
	rec := NewReconstructor(a)
	gen := keypoints.NewGenerator(simrand.New(9), 0.5)
	enc := semantic.NewEncoder()
	f := gen.Next()
	wire := enc.Encode(&f)
	wire[len(wire)-1] ^= 0xFF
	if err := rec.Feed(wire); err == nil {
		t.Fatal("corrupt frame accepted")
	}
	if rec.FramesRejected != 1 {
		t.Errorf("FramesRejected = %d", rec.FramesRejected)
	}
}

// The architectural property behind §4.3's display-latency experiment: once
// a frame is reconstructed, rendering it from a NEW viewpoint requires no
// further network data.
func TestViewpointChangeIsLocal(t *testing.T) {
	a := smallAsset(t, 10)
	rec := NewReconstructor(a)
	gen := keypoints.NewGenerator(simrand.New(11), 0.5)
	enc := semantic.NewEncoder()
	f := gen.Next()
	if err := rec.Feed(enc.Encode(&f)); err != nil {
		t.Fatal(err)
	}
	m, _ := rec.CurrentMesh()
	// Render from the front and from an offset viewpoint with no
	// additional Feed.
	front := Splat(m, mesh.Vec3{Z: 0.5}, 160, 120)
	side := Splat(m, mesh.Vec3{X: 0.2, Z: 0.5}, 160, 120)
	count := func(p []uint8) int {
		n := 0
		for _, v := range p {
			if v != 0 {
				n++
			}
		}
		return n
	}
	if count(front.Pix) == 0 || count(side.Pix) == 0 {
		t.Fatal("splat produced empty images")
	}
	// The two viewpoints see different projections.
	same := 0
	for i := range front.Pix {
		if front.Pix[i] == side.Pix[i] {
			same++
		}
	}
	if same == len(front.Pix) {
		t.Error("front and side renders identical; viewpoint ignored")
	}
}

func TestSplatZBuffer(t *testing.T) {
	// Two vertices projecting to the same pixel: the nearer one wins.
	m := &mesh.Mesh{
		Vertices:  []mesh.Vec3{{X: 0, Y: 0, Z: -1}, {X: 0, Y: 0, Z: -3}},
		Triangles: []mesh.Triangle{}, // splat only needs vertices
	}
	f := Splat(m, mesh.Vec3{}, 64, 64)
	center := f.At(32, 32)
	if center == 0 {
		t.Fatal("nothing splatted at center")
	}
	// Nearer vertex (d=1) shades brighter than the far one would.
	mFar := &mesh.Mesh{Vertices: []mesh.Vec3{{X: 0, Y: 0, Z: -3}}}
	fFar := Splat(mFar, mesh.Vec3{}, 64, 64)
	if center <= fFar.At(32, 32) {
		t.Errorf("z-buffer broken: near shade %d vs far %d", center, fFar.At(32, 32))
	}
}

func BenchmarkPose(b *testing.B) {
	a, err := NewAsset(simrand.New(12), Config{
		Name: "bench", TargetTriangles: 20000, BuildLODs: false, BindK: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	gen := keypoints.NewGenerator(simrand.New(13), 0.5)
	f := gen.Next()
	enc := semantic.NewEncoder()
	dec := semantic.NewDecoder()
	df, _ := dec.Decode(enc.Encode(&f))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Pose(df); err != nil {
			b.Fatal(err)
		}
	}
}
