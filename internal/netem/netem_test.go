package netem

import (
	"math"
	"testing"

	"telepresence/internal/simrand"
	"telepresence/internal/simtime"
)

func newLink(t *testing.T, cfg Config) (*simtime.Scheduler, *Link) {
	t.Helper()
	s := simtime.NewScheduler()
	return s, NewLink(s, simrand.New(1), cfg)
}

func TestPropagationDelay(t *testing.T) {
	s, l := newLink(t, Config{DelayMs: 25})
	var at simtime.Time
	l.SetHandler(func(now simtime.Time, f Frame) { at = now })
	l.Send(Frame{Size: 100})
	s.Run()
	if want := simtime.Time(25 * simtime.Millisecond); at != want {
		t.Errorf("delivered at %v, want %v", at, want)
	}
}

func TestSerializationDelay(t *testing.T) {
	// 8000-bit frame at 1 Mbps = 8 ms serialization.
	s, l := newLink(t, Config{RateBps: 1e6})
	var at simtime.Time
	l.SetHandler(func(now simtime.Time, f Frame) { at = now })
	l.Send(Frame{Size: 1000})
	s.Run()
	if want := simtime.Time(8 * simtime.Millisecond); at != want {
		t.Errorf("delivered at %v, want %v", at, want)
	}
}

func TestQueueingBackToBack(t *testing.T) {
	// Two frames sent simultaneously at 1 Mbps: second waits for first.
	s, l := newLink(t, Config{RateBps: 1e6})
	var times []simtime.Time
	l.SetHandler(func(now simtime.Time, f Frame) { times = append(times, now) })
	l.Send(Frame{Size: 1000})
	l.Send(Frame{Size: 1000})
	s.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(times))
	}
	if times[0] != simtime.Time(8*simtime.Millisecond) || times[1] != simtime.Time(16*simtime.Millisecond) {
		t.Errorf("delivery times %v, want [8ms 16ms]", times)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	s, l := newLink(t, Config{RateBps: 1e6, QueueBytes: 1500})
	delivered := 0
	l.SetHandler(func(simtime.Time, Frame) { delivered++ })
	sent := 0
	for i := 0; i < 10; i++ {
		if l.Send(Frame{Size: 1000}) {
			sent++
		}
	}
	s.Run()
	// First frame transmits immediately; one more fits in the 1500 B queue.
	if sent != 2 {
		t.Errorf("accepted %d frames, want 2", sent)
	}
	if delivered != sent {
		t.Errorf("delivered %d, want %d", delivered, sent)
	}
	if got := l.Stats().DroppedQueue; got != 8 {
		t.Errorf("DroppedQueue = %d, want 8", got)
	}
	if got := l.Stats().DroppedB; got != 8000 {
		t.Errorf("DroppedB = %d, want 8000", got)
	}
}

func TestQueueDrainsOverTime(t *testing.T) {
	s, l := newLink(t, Config{RateBps: 1e6, QueueBytes: 4000})
	delivered := 0
	l.SetHandler(func(simtime.Time, Frame) { delivered++ })
	// Send 1000-byte frames at exactly link rate: all should survive.
	for i := 0; i < 50; i++ {
		i := i
		s.At(simtime.Time(i*8*int(simtime.Millisecond)), 0, func() {
			_ = i
			l.Send(Frame{Size: 1000})
		})
	}
	s.Run()
	if delivered != 50 {
		t.Errorf("delivered %d/50 at exactly link rate", delivered)
	}
	if l.QueuedBytes() != 0 {
		t.Errorf("queue not drained: %d bytes", l.QueuedBytes())
	}
}

func TestRandomLoss(t *testing.T) {
	s, l := newLink(t, Config{LossProb: 0.3})
	delivered := 0
	l.SetHandler(func(simtime.Time, Frame) { delivered++ })
	const n = 20000
	for i := 0; i < n; i++ {
		l.Send(Frame{Size: 100})
	}
	s.Run()
	rate := float64(n-delivered) / n
	if rate < 0.27 || rate > 0.33 {
		t.Errorf("loss rate = %.3f, want ~0.30", rate)
	}
	st := l.Stats()
	if st.DroppedLoss+int64(delivered) != n {
		t.Errorf("accounting mismatch: %d lost + %d delivered != %d", st.DroppedLoss, delivered, n)
	}
	if st.DroppedB+st.DeliveredB != st.SentBytes || st.DroppedB != 100*st.DroppedLoss {
		t.Errorf("byte accounting: %d dropped + %d delivered, %d sent, %d lost frames of 100 B",
			st.DroppedB, st.DeliveredB, st.SentBytes, st.DroppedLoss)
	}
}

func TestShaperExtraDelay(t *testing.T) {
	// The paper's tc experiment: add up to 1000 ms of delay mid-session.
	s, l := newLink(t, Config{DelayMs: 10})
	var times []simtime.Time
	l.SetHandler(func(now simtime.Time, f Frame) { times = append(times, now) })
	l.Send(Frame{Size: 100})
	s.Run()
	l.Shaper().ExtraDelayMs = 1000
	l.Send(Frame{Size: 100})
	s.Run()
	if times[0] != simtime.Time(10*simtime.Millisecond) {
		t.Errorf("unshaped delivery at %v", times[0])
	}
	want := times[0].Add(1010 * simtime.Millisecond)
	if times[1] != want {
		t.Errorf("shaped delivery at %v, want %v", times[1], want)
	}
}

func TestShaperRateCap(t *testing.T) {
	s, l := newLink(t, Config{}) // infinite intrinsic rate
	l.Shaper().RateBps = 0.7e6   // the paper's 0.7 Mbps uplink cap
	var last simtime.Time
	n := 0
	l.SetHandler(func(now simtime.Time, f Frame) { last, n = now, n+1 })
	// 1 Mbps offered load for 1 second: 125 frames of 1000 B.
	for i := 0; i < 125; i++ {
		i := i
		s.At(simtime.Time(i*8*int(simtime.Millisecond)), 0, func() { l.Send(Frame{Size: 1000}) })
	}
	s.RunFor(5 * simtime.Second)
	if n == 0 {
		t.Fatal("nothing delivered")
	}
	gotRate := float64(n*1000*8) / last.Seconds()
	if gotRate > 0.72e6 {
		t.Errorf("delivered rate %.0f bps exceeds 0.7 Mbps cap", gotRate)
	}
}

func TestShaperClear(t *testing.T) {
	s, l := newLink(t, Config{DelayMs: 5})
	l.Shaper().ExtraDelayMs = 500
	l.Shaper().Clear()
	var at simtime.Time
	l.SetHandler(func(now simtime.Time, f Frame) { at = now })
	l.Send(Frame{Size: 10})
	s.Run()
	if at != simtime.Time(5*simtime.Millisecond) {
		t.Errorf("delivery after Clear at %v, want 5ms", at)
	}
}

func TestTapsSeeAllDirections(t *testing.T) {
	s, l := newLink(t, Config{LossProb: 1})
	var dirs []Direction
	l.AddTap(func(_ simtime.Time, _ Frame, d Direction) { dirs = append(dirs, d) })
	l.Send(Frame{Size: 10})
	s.Run()
	if len(dirs) != 2 || dirs[0] != Ingress || dirs[1] != Dropped {
		t.Errorf("tap saw %v, want [ingress dropped]", dirs)
	}
}

func TestZeroSizeFrameNormalized(t *testing.T) {
	s, l := newLink(t, Config{})
	var got Frame
	l.SetHandler(func(_ simtime.Time, f Frame) { got = f })
	l.Send(Frame{Payload: []byte("abcd")})
	s.Run()
	if got.Size != 4 {
		t.Errorf("Size = %d, want 4 (derived from payload)", got.Size)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	bad := []Config{
		{DelayMs: -1},
		{JitterMs: -0.5},
		{RateBps: -1e6},
		{QueueBytes: -1},
		{LossProb: -0.1},
		{LossProb: 1.5},
		{ReorderProb: -0.1},
		{ReorderProb: 1.01},
	}
	for _, cfg := range bad {
		cfg := cfg
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid config accepted: %+v", cfg)
				}
			}()
			NewLink(simtime.NewScheduler(), simrand.New(1), cfg)
		}()
	}
}

func TestNaNRejectedEverywhere(t *testing.T) {
	// NaN fails every ordered comparison, so naive range checks let it
	// through; every validation entry point must treat it as invalid.
	nan := math.NaN()
	for _, cfg := range []Config{
		{DelayMs: nan}, {JitterMs: nan}, {RateBps: nan},
		{LossProb: nan}, {ReorderProb: nan},
	} {
		cfg := cfg
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLink accepted NaN config %+v", cfg)
				}
			}()
			NewLink(simtime.NewScheduler(), simrand.New(1), cfg)
		}()
	}
	for _, s := range []Shaper{
		{ExtraDelayMs: nan}, {RateBps: nan}, {LossProb: nan},
		{Burst: &GilbertElliott{GoodToBad: nan}},
		{Burst: &GilbertElliott{LossBad: nan}},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("Shaper.Validate accepted NaN: %+v", s)
		}
	}
	s, l := newLink(t, Config{})
	l.Shaper().ExtraDelayMs = nan
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Send accepted a NaN shaper delay")
			}
		}()
		l.Send(Frame{Size: 10})
		s.Run()
	}()
}

func TestShaperValidate(t *testing.T) {
	ok := Shaper{ExtraDelayMs: 100, RateBps: 1e6, LossProb: 0.3,
		Burst: NewGilbertElliott(0.01, 0.2, 0.9)}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid shaper rejected: %v", err)
	}
	bad := []Shaper{
		{ExtraDelayMs: -1},
		{RateBps: -1},
		{LossProb: -0.01},
		{LossProb: 1.01},
		{Burst: &GilbertElliott{GoodToBad: 1.5}},
		{Burst: &GilbertElliott{BadToGood: -0.2}},
		{Burst: &GilbertElliott{LossBad: 2}},
		{Burst: &GilbertElliott{LossGood: -1}},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("invalid shaper accepted: %+v", s)
		}
	}
}

func TestSendPanicsOnInvalidShaper(t *testing.T) {
	s, l := newLink(t, Config{})
	l.Shaper().LossProb = 1.5
	defer func() {
		if recover() == nil {
			t.Fatal("Send accepted a shaper with LossProb 1.5")
		}
	}()
	l.Send(Frame{Size: 10})
	s.Run()
}

// TestQueueReleasedAtSerialization is the regression test for the
// queue-accounting bug on long-delay, rate-capped links (the §4.3 regime):
// queued bytes used to be released at *delivery*, so frames sitting in the
// 500 ms propagation pipe still occupied the drop-tail queue and a link
// carrying exactly its line rate reported spurious DroppedQueue.
func TestQueueReleasedAtSerialization(t *testing.T) {
	s, l := newLink(t, Config{DelayMs: 500, RateBps: 1e6, QueueBytes: 4000})
	delivered := 0
	l.SetHandler(func(simtime.Time, Frame) { delivered++ })
	// Two back-to-back 1000 B frames every 16 ms is exactly 1 Mbps: the
	// serializer keeps up (each pair is fully serialized before the next
	// arrives), so nothing should ever overflow the queue.
	const pairs = 125
	for i := 0; i < pairs; i++ {
		i := i
		s.At(simtime.Time(i*16*int(simtime.Millisecond)), 0, func() {
			l.Send(Frame{Size: 1000})
			l.Send(Frame{Size: 1000})
		})
	}
	s.Run()
	if got := l.Stats().DroppedQueue; got != 0 {
		t.Errorf("DroppedQueue = %d at exactly line rate; propagation-pipe bytes still occupy the queue", got)
	}
	if delivered != 2*pairs {
		t.Errorf("delivered %d/%d frames", delivered, 2*pairs)
	}
	if got := l.QueuedBytes(); got != 0 {
		t.Errorf("drained link reports QueuedBytes = %d", got)
	}
}

// TestQueuedBytesExcludesPropagationPipe pins the accounting instant: a
// queued frame's bytes leave the queue when its serialization completes
// (its slice of busyUntil), not when it lands after the propagation delay.
func TestQueuedBytesExcludesPropagationPipe(t *testing.T) {
	s, l := newLink(t, Config{DelayMs: 200, RateBps: 1e6})
	l.SetHandler(func(simtime.Time, Frame) {})
	// A transmits immediately (8 ms), B and C queue behind it.
	for i := 0; i < 3; i++ {
		l.Send(Frame{Size: 1000})
	}
	if got := l.QueuedBytes(); got != 2000 {
		t.Fatalf("after sends: QueuedBytes = %d, want 2000 (B+C)", got)
	}
	// t=17ms: B's serialization completed at 16 ms; B flies the pipe until
	// 216 ms but must no longer occupy the queue.
	s.RunFor(17 * simtime.Millisecond)
	if got := l.QueuedBytes(); got != 1000 {
		t.Fatalf("after B serializes: QueuedBytes = %d, want 1000 (C only)", got)
	}
	// t=25ms: C serialized too; all three frames are still in flight.
	s.RunFor(8 * simtime.Millisecond)
	if got := l.QueuedBytes(); got != 0 {
		t.Fatalf("after C serializes: QueuedBytes = %d, want 0", got)
	}
	if got := l.Stats().DeliveredFrames; got != 0 {
		t.Fatalf("frames delivered before the 200 ms pipe: %d", got)
	}
	s.Run()
	if got := l.Stats().DeliveredFrames; got != 3 {
		t.Fatalf("delivered %d/3", got)
	}
}

// TestMidBacklogRateChange pins the shaper's documented rate semantics: a
// rate change applies to frames sent after it; frames already admitted to
// the backlog keep the serialization schedule computed at admission.
func TestMidBacklogRateChange(t *testing.T) {
	s, l := newLink(t, Config{RateBps: 1e6})
	var times []simtime.Time
	l.SetHandler(func(now simtime.Time, f Frame) { times = append(times, now) })
	l.Send(Frame{Size: 1000}) // serializes at 1 Mbps: done 8 ms
	l.Send(Frame{Size: 1000}) // queued at 1 Mbps: done 16 ms
	// Halve the rate mid-backlog: the two admitted frames keep their
	// schedule; the next frame serializes at 0.5 Mbps after the backlog.
	l.Shaper().RateBps = 0.5e6
	l.Send(Frame{Size: 1000}) // 16 ms + 16 ms = done 32 ms
	s.Run()
	want := []simtime.Time{
		simtime.Time(8 * simtime.Millisecond),
		simtime.Time(16 * simtime.Millisecond),
		simtime.Time(32 * simtime.Millisecond),
	}
	if len(times) != len(want) {
		t.Fatalf("delivered %d frames, want %d", len(times), len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("frame %d delivered at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestReorderDelivery(t *testing.T) {
	// ReorderProb 1 adds a uniform extra delay to every frame; frames sent
	// 1 ms apart with a 2*25+1 ms reorder window must arrive out of order
	// at least once in 200 sends, and nothing may be lost.
	s, l := newLink(t, Config{DelayMs: 25, ReorderProb: 1})
	var order []int
	l.SetHandler(func(_ simtime.Time, f Frame) { order = append(order, int(f.Payload[0])<<8|int(f.Payload[1])) })
	const n = 200
	for i := 0; i < n; i++ {
		i := i
		s.At(simtime.Time(i*int(simtime.Millisecond)), 0, func() {
			l.Send(Frame{Payload: []byte{byte(i >> 8), byte(i)}})
		})
	}
	s.Run()
	if len(order) != n {
		t.Fatalf("delivered %d/%d frames", len(order), n)
	}
	inversions := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Error("ReorderProb=1 produced perfectly ordered delivery")
	}
	st := l.Stats()
	if st.DroppedLoss != 0 || st.DroppedQueue != 0 {
		t.Errorf("reordering dropped frames: %+v", st)
	}
}

func TestShaperClearMidSession(t *testing.T) {
	// Clear while shaped frames are still in flight: in-flight frames keep
	// their impairments, frames sent after Clear run clean.
	s, l := newLink(t, Config{DelayMs: 5})
	var times []simtime.Time
	l.SetHandler(func(now simtime.Time, f Frame) { times = append(times, now) })
	l.Shaper().ExtraDelayMs = 500
	l.Send(Frame{Size: 10}) // shaped: arrives at 505 ms
	l.Shaper().Clear()
	l.Send(Frame{Size: 10}) // clean: arrives at 5 ms, before the shaped one
	s.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(times))
	}
	if times[0] != simtime.Time(5*simtime.Millisecond) {
		t.Errorf("post-Clear frame at %v, want 5ms", times[0])
	}
	if times[1] != simtime.Time(505*simtime.Millisecond) {
		t.Errorf("in-flight shaped frame at %v, want 505ms (Clear must not touch it)", times[1])
	}
}

// TestClearedRateCapKeepsFIFO pins serializer ordering across a mid-backlog
// cap removal: frames sent after the cap clears serialize instantly but
// still depart behind the capped-era backlog, never overtaking it.
func TestClearedRateCapKeepsFIFO(t *testing.T) {
	s, l := newLink(t, Config{DelayMs: 10})
	l.Shaper().RateBps = 8000 // 1000 B = 1 s serialization
	var order []byte
	l.SetHandler(func(_ simtime.Time, f Frame) { order = append(order, f.Payload[0]) })
	l.Send(Frame{Size: 1000, Payload: []byte{1}})
	l.Send(Frame{Size: 1000, Payload: []byte{2}})
	l.Shaper().Clear()
	l.Send(Frame{Size: 1000, Payload: []byte{3}})
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("delivery order %v, want [1 2 3] (uncapped frame overtook the backlog)", order)
	}
}

func TestGilbertElliottBurstLoss(t *testing.T) {
	s, l := newLink(t, Config{})
	ge := NewGilbertElliott(0.02, 0.25, 1)
	l.Shaper().Burst = ge
	var got []bool // per send: delivered?
	l.SetHandler(func(simtime.Time, Frame) {})
	const n = 50000
	for i := 0; i < n; i++ {
		got = append(got, l.Send(Frame{Size: 100}))
		s.Run()
	}
	st := l.Stats()
	if st.DroppedBurst == 0 {
		t.Fatal("no burst drops with an always-lossy bad state")
	}
	if st.DroppedBurst != st.DroppedLoss {
		t.Errorf("DroppedBurst %d != DroppedLoss %d with only the burst model active",
			st.DroppedBurst, st.DroppedLoss)
	}
	// Stationary loss = pBad*LossBad with pBad = pGB/(pGB+pBG) = 0.074.
	rate := float64(st.DroppedLoss) / n
	if rate < 0.05 || rate > 0.10 {
		t.Errorf("burst loss rate %.3f, want ~0.074", rate)
	}
	// Burstiness: mean run length of consecutive drops should approach the
	// 1/BadToGood = 4-frame dwell, far above the ~1.08 an independent 7.4%
	// coin would produce.
	runs, inRun := 0, false
	for _, ok := range got {
		if !ok && !inRun {
			runs++
		}
		inRun = !ok
	}
	meanRun := float64(st.DroppedLoss) / float64(runs)
	if meanRun < 2 {
		t.Errorf("mean drop-burst length %.2f, want >=2 (losses not bursty)", meanRun)
	}
	// Reset returns the chain to Good.
	ge.bad = true
	ge.Reset()
	if ge.InBadState() {
		t.Error("Reset left the chain in the bad state")
	}
}

func TestPipeIsBidirectional(t *testing.T) {
	s := simtime.NewScheduler()
	p := NewPipe(s, simrand.New(3), Config{Name: "wan", DelayMs: 30})
	gotAB, gotBA := false, false
	p.AB.SetHandler(func(simtime.Time, Frame) { gotAB = true })
	p.BA.SetHandler(func(simtime.Time, Frame) { gotBA = true })
	p.AB.Send(Frame{Size: 1})
	p.BA.Send(Frame{Size: 1})
	s.Run()
	if !gotAB || !gotBA {
		t.Errorf("pipe delivery ab=%v ba=%v", gotAB, gotBA)
	}
	if p.AB.Name() == p.BA.Name() {
		t.Error("pipe directions share a name")
	}
}

func TestDirectionString(t *testing.T) {
	if Ingress.String() != "ingress" || Egress.String() != "egress" || Dropped.String() != "dropped" {
		t.Error("direction strings wrong")
	}
	if Direction(42).String() == "" {
		t.Error("unknown direction should still format")
	}
}

func TestStatsAccounting(t *testing.T) {
	s, l := newLink(t, Config{})
	l.SetHandler(func(simtime.Time, Frame) {})
	for i := 0; i < 10; i++ {
		l.Send(Frame{Size: 500})
	}
	s.Run()
	st := l.Stats()
	if st.SentFrames != 10 || st.SentBytes != 5000 {
		t.Errorf("sent %d/%d, want 10/5000", st.SentFrames, st.SentBytes)
	}
	if st.DeliveredFrames != 10 || st.DeliveredB != 5000 {
		t.Errorf("delivered %d/%d, want 10/5000", st.DeliveredFrames, st.DeliveredB)
	}
}

// TestQueuedBytesExactAccounting is the regression test for the serializer
// accounting bug: a frame transmitted straight from an idle serializer never
// increments queued, but its delivery used to decrement queued anyway
// whenever enough genuinely queued bytes were present — silently stealing
// bytes from queued frames and under-enforcing QueueBytes.
func TestQueuedBytesExactAccounting(t *testing.T) {
	s, l := newLink(t, Config{RateBps: 1e6}) // 1000-byte frame = 8 ms serialization
	l.SetHandler(func(simtime.Time, Frame) {})
	// A transmits immediately (idle serializer, not queued); B and C queue.
	for i := 0; i < 3; i++ {
		if !l.Send(Frame{Size: 1000}) {
			t.Fatalf("send %d dropped", i)
		}
	}
	if got := l.QueuedBytes(); got != 2000 {
		t.Fatalf("after sends: QueuedBytes = %d, want 2000 (B+C)", got)
	}
	// After A delivers (~8 ms), the queue must still hold exactly B+C: A
	// was never queued, so its delivery must not decrement.
	s.RunFor(9 * simtime.Millisecond)
	if got := l.QueuedBytes(); got != 2000 {
		t.Fatalf("after A delivers: QueuedBytes = %d, want 2000 (bytes stolen from queued frames)", got)
	}
	s.RunFor(8 * simtime.Millisecond) // B delivered
	if got := l.QueuedBytes(); got != 1000 {
		t.Fatalf("after B delivers: QueuedBytes = %d, want 1000", got)
	}
	s.Run()
	if got := l.QueuedBytes(); got != 0 {
		t.Fatalf("after drain: QueuedBytes = %d, want 0", got)
	}
}

// TestSendDeliverySteadyStateAllocs pins the per-frame budget of the link
// hot path: pooled delivery nodes and pooled scheduler events make
// Send+delivery allocation-free, and regressions should fail tier-1 rather
// than only showing in benchmarks.
func TestSendDeliverySteadyStateAllocs(t *testing.T) {
	s, l := newLink(t, Config{DelayMs: 1, RateBps: 1e8, JitterMs: 0.3})
	l.SetHandler(func(simtime.Time, Frame) {})
	payload := make([]byte, 200)
	// Warm the pools.
	for i := 0; i < 10; i++ {
		l.Send(Frame{Size: 1000, Payload: payload})
	}
	s.Run()
	allocs := testing.AllocsPerRun(200, func() {
		l.Send(Frame{Size: 1000, Payload: payload})
		s.Run()
	})
	if allocs > 0 {
		t.Errorf("Send+delivery allocates %.1f per frame, want 0", allocs)
	}
}
