package vca

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"telepresence/internal/geo"
	"telepresence/internal/netem"
	"telepresence/internal/simtime"
	"telepresence/internal/video"
)

// burstPresets are the Gilbert–Elliott channels of the receive-check grid,
// from sparse short bursts to long near-total outages.
var burstPresets = []struct {
	name                     string
	goodToBad, badToGood, pB float64
}{
	{"light", 0.01, 0.4, 0.6},
	{"default", 0.02, 0.25, 0.9},
	{"heavy", 0.05, 0.15, 1},
}

// lossyCell is one session of the receive-check grid and the burst preset
// (an index into burstPresets) its media pipes run.
type lossyCell struct {
	cfg    SessionConfig
	preset int
}

// receiveGrid is a set of lossy sessions that together exercise every
// receive-side path: P2P Zoom under each recovery strategy, burst preset
// and seed, and one three-party SFU session per app with loss on every
// downlink. Under -short it keeps two presets and 2 s sessions: head-less
// frames happen at a stream's start, and a single burst exercises the
// reference rule.
func receiveGrid() []lossyCell {
	presets, seeds := []int{0, 1, 2}, []int64{1, 2}
	dur := 3 * simtime.Second
	if testing.Short() {
		presets = []int{1, 2}
		dur = 2 * simtime.Second
	}
	var grid []lossyCell
	for _, rec := range []string{"none", "nack", "fec", "hybrid"} {
		for _, preset := range presets {
			for _, seed := range seeds {
				cfg := zoomP2P(seed, &RecoveryConfig{Strategy: rec})
				cfg.Duration = dur
				grid = append(grid, lossyCell{cfg, preset})
			}
		}
	}
	for k, app := range []App{Zoom, Webex, Teams, FaceTime} {
		cfg := DefaultSessionConfig(app, []Participant{
			vp("u1", geo.Ashburn), vp("u2", geo.NewYork), vp("u3", geo.Ashburn),
		})
		if app == FaceTime {
			cfg.Participants[2].Device = MacBook // one 2D participant puts FaceTime on the 2D path
		}
		cfg.Duration = dur
		cfg.Seed = int64(11 + k)
		cfg.VideoFPS = 15
		grid = append(grid, lossyCell{cfg, presets[k%len(presets)]})
	}
	return grid
}

// runLossy runs cfg with burst loss on every access pipe that carries
// media toward a receiver: both P2P uplinks, or every SFU downlink. The
// preset index picks the channel; hook, if set, becomes the session's
// frame hook.
func runLossy(t *testing.T, cfg SessionConfig, preset int, hook func(i, j int, frame []byte, err error)) (*Session, *Results) {
	t.Helper()
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := burstPresets[preset]
	for k := range cfg.Participants {
		sh := sess.DownlinkShaper(k)
		if sess.Plan().P2P {
			sh = sess.UplinkShaper(k)
		}
		sh.Burst = netem.NewGilbertElliott(p.goodToBad, p.badToGood, p.pB)
	}
	sess.frameHook = hook
	return sess, sess.Run()
}

// TestReceiveCheckMatchesValidate pins the checksum receive check to the
// decompressing one it replaces: over a lossy grid, every frame the
// reassembler completes gets the same verdict from acceptVideo as from a
// video.Decoder's Validate on the same edge. The grid must also produce a
// frame that fails the checksum (a frame assembled without its head
// packet), or the mismatch path is untested.
func TestReceiveCheckMatchesValidate(t *testing.T) {
	var frames, rejected, checksumMisses int
	for gi, c := range receiveGrid() {
		name := fmt.Sprintf("cell%d/%s/%s", gi, c.cfg.App, burstPresets[c.preset].name)
		n := len(c.cfg.Participants)
		before := frames
		refs := make([][]*video.Decoder, n)
		for i := range refs {
			refs[i] = make([]*video.Decoder, n)
			for j := range refs[i] {
				refs[i][j] = video.NewDecoder()
			}
		}
		runLossy(t, c.cfg, c.preset, func(i, j int, frame []byte, err error) {
			frames++
			vErr := refs[i][j].Validate(frame[8:])
			if (err == nil) != (vErr == nil) {
				t.Fatalf("%s: frame %d->%d sent at %v: receive check err=%v, Validate err=%v",
					name, i, j, getTime(frame[:8]), err, vErr)
			}
			if err != nil {
				rejected++
			}
			if errors.Is(err, errNoChecksum) || errors.Is(err, video.ErrChecksum) {
				checksumMisses++
			}
		})
		if frames == before {
			t.Errorf("%s: no 2D frame completed", name)
		}
	}
	t.Logf("%d frames, %d rejected, %d checksum misses", frames, rejected, checksumMisses)
	if rejected == 0 {
		t.Error("no frame rejected: the grid never exercised the reference rule")
	}
	if checksumMisses == 0 {
		t.Error("no checksum miss: the grid never produced a head-less frame")
	}
}

// TestFrameSumsStayBounded pins the checksum table's bound: a 2 s outage
// on one direction of a P2P call piles up the records of frames that never
// arrive, and the first frame completed after recovery drops them, so at
// the end no edge holds a record older than its last completed frame, and
// every record left is a frame still in flight.
func TestFrameSumsStayBounded(t *testing.T) {
	cfg := zoomP2P(5, &RecoveryConfig{Strategy: "nack"})
	cfg.Duration = 5 * simtime.Second
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := sess.Scheduler()
	site := sched.Site("test/outage")
	outStart, outEnd := 1*simtime.Second, 3*simtime.Second
	var peak int
	sched.At(simtime.Time(outStart), site, func() { sess.UplinkShaper(0).LossProb = 1 })
	sched.At(simtime.Time(outEnd), site, func() {
		peak = len(sess.stream(0, 1).sums)
		sess.UplinkShaper(0).LossProb = 0
	})
	var last [2][2]simtime.Time // last completed frame's stamp per edge
	sess.frameHook = func(i, j int, frame []byte, err error) {
		if !errors.Is(err, errNoChecksum) {
			last[i][j] = getTime(frame[:8])
		}
	}
	sess.Run()

	// A 30 fps stream loses about 60 frames to the outage.
	if peak < 50 {
		t.Fatalf("%d records at the end of the outage; the outage did not pile up lost frames", peak)
	}
	end := sched.Now()
	for _, e := range [][2]int{{0, 1}, {1, 0}} {
		i, j := e[0], e[1]
		if last[i][j] < simtime.Time(outEnd) {
			t.Fatalf("edge %d->%d completed no frame after the outage", i, j)
		}
		for _, r := range sess.stream(i, j).sums {
			if r.sent <= last[i][j] {
				t.Errorf("edge %d->%d holds the record of a frame sent at %v, not after its last completed frame (%v)",
					i, j, r.sent, last[i][j])
			}
			if age := end.Sub(r.sent); age > 500*simtime.Millisecond {
				t.Errorf("edge %d->%d holds a record %v old at session end", i, j, age)
			}
		}
	}
}

// TestFrameSumsTake pins the table's lookup: a hit returns its checksum
// and drops that record and every older one; a stamp with no record (a
// head-less frame's garbage stamp) misses and leaves the table as it was.
func TestFrameSumsTake(t *testing.T) {
	var tab frameSums
	for k := 1; k <= 5; k++ {
		tab.add(simtime.Time(k*100), uint32(k))
	}
	for _, stamp := range []simtime.Time{0, 150, 600, simtime.Time(1 << 62)} {
		if _, ok := tab.take(stamp); ok || len(tab) != 5 {
			t.Fatalf("take(%v) hit or evicted: %d records left", stamp, len(tab))
		}
	}
	if sum, ok := tab.take(300); !ok || sum != 3 {
		t.Fatalf("take(300) = %d, %v; want 3, true", sum, ok)
	}
	if want := (frameSums{{400, 4}, {500, 5}}); !reflect.DeepEqual(tab, want) {
		t.Fatalf("after take(300): %v, want %v", tab, want)
	}
	if _, ok := tab.take(200); ok {
		t.Fatal("take(200) hit a record already dropped")
	}
}
