package vca

import (
	"fmt"
	"testing"

	"telepresence/internal/geo"
	"telepresence/internal/netem"
	"telepresence/internal/simrand"
	"telepresence/internal/simtime"
)

// TestStreamConservation checks the session's frame and packet
// conservation laws over a seeded random grid of app, party size (2 or
// 3), recovery strategy, rate control (off or gcc) and loss (none, or a
// Gilbert–Elliott burst plus 5% loss on user 0's uplink):
//
//   - per stream, decoded + undecodable ≤ the sender's FramesSent;
//   - per user, FramesDecoded and FramesUndecodable are the sums over
//     the user's incoming streams;
//   - per link, DeliveredFrames + DroppedLoss + DroppedQueue ≤ SentFrames
//     (the rest is in flight at session end);
//   - per link, DroppedBurst ≤ DroppedLoss.
//
// The apps take turns, and the 2D cells take the strategies in a seeded
// order; spatial sessions reject active recovery, so their cells run
// without it. Under -short the grid keeps its first four cells, one per
// app.
func TestStreamConservation(t *testing.T) {
	apps := []App{FaceTime, Zoom, Webex, Teams}
	strategies := []string{"none", "nack", "fec", "hybrid"}
	cells := 10
	if testing.Short() {
		cells = 4
	}
	rng := simrand.New(2024)
	order := rng.Perm(len(strategies)) // 2D cells take the strategies in this order, cyclically
	var video int
	var lossy, dropped int64
	for c := 0; c < cells; c++ {
		app := apps[c%len(apps)]
		strategy := "none"
		if app != FaceTime {
			strategy = strategies[order[video%len(order)]]
			video++
		}
		users := 2 + rng.Intn(2)
		gcc := rng.Intn(2) == 1
		loss := rng.Intn(2) == 1
		seed := rng.Int63()

		parts := []Participant{vp("u1", geo.Ashburn), vp("u2", geo.NewYork), vp("u3", geo.Ashburn)}[:users]
		cfg := DefaultSessionConfig(app, parts)
		cfg.Duration = 2 * simtime.Second
		cfg.Seed = seed
		if app != FaceTime {
			cfg.Recovery = &RecoveryConfig{Strategy: strategy}
		}
		if gcc {
			cfg.RateControl = &RateControlConfig{Controller: "gcc"}
		}
		name := fmt.Sprintf("cell%d/%s/users=%d/%s/gcc=%v/loss=%v", c, app, users, strategy, gcc, loss)
		sess, err := NewSession(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if loss {
			sh := sess.UplinkShaper(0)
			sh.Burst = netem.NewGilbertElliott(0.02, 0.25, 0.9)
			sh.LossProb = 0.05
		}
		res := sess.Run()

		var reached int
		for j, u := range res.Users {
			var decoded, undecodable int
			for i := range res.Users {
				if i == j {
					continue
				}
				st := sess.stream(i, j)
				if got, sent := st.decoded+st.undecodable, res.Users[i].FramesSent; got > sent {
					t.Errorf("%s: stream %d->%d: %d decoded + %d undecodable > %d sent",
						name, i, j, st.decoded, st.undecodable, sent)
				}
				decoded += st.decoded
				undecodable += st.undecodable
			}
			if u.FramesDecoded != decoded || u.FramesUndecodable != undecodable {
				t.Errorf("%s: u%d stats (%d decoded, %d undecodable), its streams (%d, %d)",
					name, j, u.FramesDecoded, u.FramesUndecodable, decoded, undecodable)
			}
			reached += decoded + undecodable
		}
		if reached == 0 {
			t.Errorf("%s: no frame reached a receiver; the laws above are vacuous", name)
		}

		for k := range res.Users {
			for _, l := range []struct {
				dir string
				ls  netem.LinkStats
			}{{"up", sess.UplinkStats(k)}, {"down", sess.DownlinkStats(k)}} {
				dir, ls := l.dir, l.ls
				if out := ls.DeliveredFrames + ls.DroppedLoss + ls.DroppedQueue; out > ls.SentFrames {
					t.Errorf("%s: %s%d: %d delivered + %d lost + %d queue-dropped > %d sent",
						name, dir, k, ls.DeliveredFrames, ls.DroppedLoss, ls.DroppedQueue, ls.SentFrames)
				}
				if ls.DroppedBurst > ls.DroppedLoss {
					t.Errorf("%s: %s%d: %d burst drops > %d losses", name, dir, k, ls.DroppedBurst, ls.DroppedLoss)
				}
				dropped += ls.DroppedLoss
			}
		}
		if loss {
			lossy++
		}
	}
	if lossy == 0 || dropped == 0 {
		t.Errorf("%d lossy cells, %d frames lost: the grid never exercised loss", lossy, dropped)
	}
}
