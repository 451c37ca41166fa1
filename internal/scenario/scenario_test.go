package scenario

import (
	"strconv"
	"strings"
	"testing"

	"telepresence/internal/netem"
	"telepresence/internal/simrand"
	"telepresence/internal/simtime"
)

func ms(n int) simtime.Duration { return simtime.Duration(n) * simtime.Millisecond }

func TestStepScheduleDrivesShaper(t *testing.T) {
	sched := simtime.NewScheduler()
	l := netem.NewLink(sched, simrand.New(1), netem.Config{DelayMs: 5})
	s := New().
		StepAt(ms(100), Impairment{ExtraDelayMs: 500}).
		ClearAt(ms(300))
	if err := s.Bind(sched, l.Shaper()); err != nil {
		t.Fatal(err)
	}
	var times []simtime.Time
	l.SetHandler(func(now simtime.Time, f netem.Frame) { times = append(times, now) })
	send := func(at int) {
		sched.At(simtime.Time(ms(at)), 0, func() { l.Send(netem.Frame{Size: 10}) })
	}
	send(50)  // before the step: 5 ms path
	send(200) // shaped: 505 ms path
	send(350) // after clear: 5 ms path
	sched.Run()
	want := []simtime.Time{
		simtime.Time(ms(55)),
		simtime.Time(ms(355)), // sent at 350, clean again
		simtime.Time(ms(705)), // sent at 200 under +500 ms
	}
	if len(times) != 3 {
		t.Fatalf("delivered %d frames, want 3", len(times))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("delivery %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestRampActions(t *testing.T) {
	s := New().SetTick(ms(250)).
		StepAt(0, Impairment{RateBps: 4e6}).
		RampTo(ms(1000), ms(1000), Impairment{RateBps: 1e6})
	acts, err := s.Actions()
	if err != nil {
		t.Fatal(err)
	}
	// 1 step + samples at 1000,1250,1500,1750,2000 ms.
	if len(acts) != 6 {
		t.Fatalf("%d actions, want 6: %+v", len(acts), acts)
	}
	if acts[1].At != ms(1000) || acts[1].Set.RateBps != 4e6 {
		t.Errorf("ramp start %+v, want rate 4e6 at 1s", acts[1])
	}
	mid := acts[3] // 1500 ms: halfway
	if mid.At != ms(1500) || mid.Set.RateBps != 2.5e6 {
		t.Errorf("ramp midpoint %+v, want rate 2.5e6 at 1.5s", mid)
	}
	end := acts[5]
	if end.At != ms(2000) || end.Set.RateBps != 1e6 {
		t.Errorf("ramp end %+v, want rate 1e6 at 2s", end)
	}
	if !acts[1].ResetBurst || acts[2].ResetBurst {
		t.Error("ResetBurst must mark only the ramp's first sample")
	}
	if s.Duration() != ms(2000) {
		t.Errorf("Duration = %v, want 2s", s.Duration())
	}
}

func TestRampTruncatedByNextPoint(t *testing.T) {
	s := New().SetTick(ms(100)).
		RampTo(0, ms(1000), Impairment{ExtraDelayMs: 100}).
		StepAt(ms(250), Impairment{})
	acts, err := s.Actions()
	if err != nil {
		t.Fatal(err)
	}
	// Ramp samples at 0,100,200 (250+ truncated), then the step at 250.
	if len(acts) != 4 {
		t.Fatalf("%d actions, want 4: %+v", len(acts), acts)
	}
	last := acts[len(acts)-1]
	if last.At != ms(250) || last.Set.ExtraDelayMs != 0 {
		t.Errorf("final action %+v, want clear step at 250ms", last)
	}
	for _, a := range acts[:3] {
		if a.Set.ExtraDelayMs > 25 {
			t.Errorf("truncated ramp overshot: %+v", a)
		}
	}
}

// TestTruncatedRampHandsOffLastEmittedValue pins the truncation contract:
// the segment after a truncated ramp interpolates from the last value the
// link actually saw, not from the ramp's never-reached target.
func TestTruncatedRampHandsOffLastEmittedValue(t *testing.T) {
	// Ramp 0 -> 1000 ms delay over 10 s, cut at 5 s by a recovery ramp.
	s := New().SetTick(ms(1000)).
		RampTo(0, ms(10000), Impairment{ExtraDelayMs: 1000}).
		RampTo(ms(5000), ms(5000), Impairment{})
	acts, err := s.Actions()
	if err != nil {
		t.Fatal(err)
	}
	// Last sample of the truncated ramp: t=4 s, 400 ms.
	var recoveryStart *Action
	for i := range acts {
		if acts[i].At == ms(5000) {
			recoveryStart = &acts[i]
			break
		}
	}
	if recoveryStart == nil {
		t.Fatalf("no action at the recovery ramp start: %+v", acts)
	}
	if recoveryStart.Set.ExtraDelayMs != 400 {
		t.Errorf("recovery ramp starts at %v ms delay, want 400 (last applied sample, not the 1000 ms target)",
			recoveryStart.Set.ExtraDelayMs)
	}
	for _, a := range acts {
		if a.Set.ExtraDelayMs > 400 {
			t.Errorf("delay overshot to %v ms at %v; 1000 ms target was never in force", a.Set.ExtraDelayMs, a.At)
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	cases := map[string]*Schedule{
		"negative offset":   New().StepAt(-ms(1), Impairment{}),
		"out of order":      New().StepAt(ms(100), Impairment{}).StepAt(ms(50), Impairment{}),
		"negative ramp":     New().RampTo(0, -ms(1), Impairment{}),
		"bad loss":          New().StepAt(0, Impairment{LossProb: 1.5}),
		"bad rate":          New().StepAt(0, Impairment{RateBps: -1}),
		"bad burst":         New().StepAt(0, Impairment{Burst: &BurstParams{GoodToBad: 2}}),
		"non-positive tick": New().SetTick(0),
		// Ramping between "uncapped" (RateBps 0) and a finite cap would
		// interpolate through a near-zero rate; both directions rejected.
		"ramp from uncapped": New().RampTo(0, ms(1000), Impairment{RateBps: 4e6}),
		"ramp to uncapped": New().StepAt(0, Impairment{RateBps: 4e6}).
			RampTo(ms(1000), ms(1000), Impairment{}),
		// A same-instant successor would swallow the ramp before its first
		// sample; equal-timestamp steps remain a legal overwrite.
		"point swallows ramp": New().RampTo(ms(1000), ms(2000), Impairment{ExtraDelayMs: 50}).
			StepAt(ms(1000), Impairment{}),
	}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: invalid schedule accepted", name)
		}
		if _, err := s.Actions(); err == nil {
			t.Errorf("%s: Actions did not surface the authoring error", name)
		}
		sched := simtime.NewScheduler()
		if err := s.Bind(sched, &netem.Shaper{}); err == nil {
			t.Errorf("%s: Bind did not surface the authoring error", name)
		}
	}
}

func TestBurstChainPerBinding(t *testing.T) {
	// Two links bound to the same schedule must get independent chains.
	sched := simtime.NewScheduler()
	s := BurstLoss(BurstParams{GoodToBad: 0.05, BadToGood: 0.2, LossBad: 1}, 0, 0)
	var shA, shB netem.Shaper
	if err := s.Bind(sched, &shA); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind(sched, &shB); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if shA.Burst == nil || shB.Burst == nil {
		t.Fatal("burst model not installed")
	}
	if shA.Burst == shB.Burst {
		t.Error("bindings share one Gilbert-Elliott chain")
	}
}

func TestRampKeepsBurstChainState(t *testing.T) {
	// Interior ramp samples must not restart the Markov chain: drive the
	// chain into the bad state, fire the next ramp sample, and check the
	// state survives.
	sched := simtime.NewScheduler()
	var sh netem.Shaper
	bp := &BurstParams{GoodToBad: 1, BadToGood: 0, LossBad: 1}
	s := New().SetTick(ms(100)).RampTo(0, ms(1000), Impairment{ExtraDelayMs: 100, Burst: bp})
	if err := s.Bind(sched, &sh); err != nil {
		t.Fatal(err)
	}
	l := netem.NewLink(sched, simrand.New(1), netem.Config{})
	sched.At(simtime.Time(ms(50)), 0, func() {
		// One send forces the good->bad transition (GoodToBad = 1).
		lsh := l.Shaper()
		*lsh = sh
		l.Send(netem.Frame{Size: 10})
		if !lsh.Burst.InBadState() {
			t.Error("chain did not transition")
		}
	})
	var at150 *netem.GilbertElliott
	sched.At(simtime.Time(ms(150)), 0, func() { at150 = sh.Burst })
	sched.Run()
	if at150 == nil || !at150.InBadState() {
		t.Error("ramp sample at 100ms restarted the burst chain")
	}
}

// TestZeroValueScheduleRamps pins that a Schedule built without New (legal,
// the type is exported) falls back to DefaultTick instead of looping
// forever on a zero tick.
func TestZeroValueScheduleRamps(t *testing.T) {
	var s Schedule
	s.StepAt(0, Impairment{ExtraDelayMs: 10}).
		RampTo(ms(100), ms(300), Impairment{ExtraDelayMs: 100})
	acts, err := s.Actions()
	if err != nil {
		t.Fatal(err)
	}
	// Step + ramp samples at 100,200,300,400 ms (DefaultTick = 100 ms).
	if len(acts) != 5 {
		t.Fatalf("%d actions, want 5: %+v", len(acts), acts)
	}
	if last := acts[len(acts)-1]; last.Set.ExtraDelayMs != 100 {
		t.Errorf("final sample %+v, want target 100 ms", last)
	}
}

func TestDelayStepPreset(t *testing.T) {
	s := DelayStep(500, ms(1000), ms(2000))
	acts, err := s.Actions()
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) != 2 || acts[0].Set.ExtraDelayMs != 500 || acts[1].Set.ExtraDelayMs != 0 {
		t.Errorf("DelayStep actions %+v", acts)
	}
	if s2 := DelayStep(500, ms(1000), 0); s2.Len() != 1 {
		t.Errorf("permanent DelayStep has %d points, want 1", s2.Len())
	}
}

func TestBandwidthRampPreset(t *testing.T) {
	s := BandwidthRamp(4e6, 0.5e6, ms(1000), ms(1000), ms(3000), ms(1000))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	acts, err := s.Actions()
	if err != nil {
		t.Fatal(err)
	}
	var floor float64 = 4e6
	for _, a := range acts {
		if a.Set.RateBps > 0 && a.Set.RateBps < floor {
			floor = a.Set.RateBps
		}
	}
	if floor != 0.5e6 {
		t.Errorf("ramp floor %v, want 0.5e6", floor)
	}
	last := acts[len(acts)-1]
	if last.Set.RateBps != 0 {
		t.Errorf("final action %+v, want cleared cap", last)
	}
}

func TestParamLabel(t *testing.T) {
	got := ParamLabel(map[string]float64{"delay_ms": 500, "loss": 0.1})
	if got != "delay_ms=500,loss=0.1" {
		t.Errorf("ParamLabel = %q", got)
	}
	if ParamLabel(nil) != "" {
		t.Errorf("empty label = %q", ParamLabel(nil))
	}
}

func TestParseCSV(t *testing.T) {
	src := `time_s,delay_ms,rate_kbps,loss,comment
0,0,4000,0,start
1.5,200,,0.05,step
3,0,1000,,recover
`
	s, err := ParseCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	acts, err := s.Actions()
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) != 3 {
		t.Fatalf("%d actions, want 3", len(acts))
	}
	if acts[0].Set.RateBps != 4e6 {
		t.Errorf("row 0 rate %v, want 4e6 (kbps scaled)", acts[0].Set.RateBps)
	}
	if acts[1].At != 1500*simtime.Millisecond || acts[1].Set.ExtraDelayMs != 200 ||
		acts[1].Set.LossProb != 0.05 || acts[1].Set.RateBps != 0 {
		t.Errorf("row 1 parsed as %+v", acts[1])
	}
	if acts[2].Set.RateBps != 1e6 || acts[2].Set.ExtraDelayMs != 0 {
		t.Errorf("row 2 parsed as %+v", acts[2])
	}
}

func TestParseCSVErrors(t *testing.T) {
	cases := map[string]string{
		"missing time_s":  "delay_ms\n5\n",
		"unordered":       "time_s,delay_ms\n2,5\n1,5\n",
		"bad float":       "time_s,delay_ms\n0,abc\n",
		"no rows":         "time_s,delay_ms\n",
		"invalid loss":    "time_s,loss\n0,1.7\n",
		"negative offset": "time_s,delay_ms\n-3,5\n",
		"NaN delay":       "time_s,delay_ms\n1,NaN\n",
		"NaN time":        "time_s,delay_ms\nNaN,5\n",
		"Inf rate":        "time_s,rate_kbps\n0,+Inf\n",
		"both rate units": "time_s,rate_kbps,rate_bps\n0,1000,1000000\n",
		"time overflow":   "time_s,loss\n1e11,0.1\n",
		"time underflow":  "time_s,loss\n-1e11,0.1\n",
	}
	for name, src := range cases {
		if _, err := ParseCSV(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// An out-of-range offset is reported on its own line, not as a
	// platform-dependent negative offset.
	_, err := ParseCSV(strings.NewReader("time_s,loss\n0,0\n1e11,0.1\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "time_s") {
		t.Errorf("time_s overflow: error %v, want one naming line 3 and time_s", err)
	}
}

func TestParseMahimahi(t *testing.T) {
	// 1 s at 8 opportunities (96 kbps), then 1 s at 2 (24 kbps).
	var b strings.Builder
	for i := 0; i < 8; i++ {
		b.WriteString(strconv.Itoa(i*125) + "\n")
	}
	for i := 0; i < 2; i++ {
		b.WriteString(strconv.Itoa(1000+i*500) + "\n")
	}
	s, err := ParseMahimahi(strings.NewReader(b.String()), simtime.Second)
	if err != nil {
		t.Fatal(err)
	}
	acts, err := s.Actions()
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) != 2 {
		t.Fatalf("%d actions, want 2", len(acts))
	}
	if want := float64(8 * TraceMTUBytes * 8); acts[0].Set.RateBps != want {
		t.Errorf("bin 0 rate %v, want %v", acts[0].Set.RateBps, want)
	}
	if want := float64(2 * TraceMTUBytes * 8); acts[1].Set.RateBps != want {
		t.Errorf("bin 1 rate %v, want %v", acts[1].Set.RateBps, want)
	}
}

// TestParseMahimahiOutageBin pins outage handling: a window with no
// delivery opportunities becomes a one-MTU-per-bin cap (the head frame
// waits for the next window), never a token rate that would wedge the
// serializer for hours of virtual time.
func TestParseMahimahiOutageBin(t *testing.T) {
	// Bin 0: 8 opportunities; bin 1: none; bin 2: one at 2500 ms.
	s, err := ParseMahimahi(strings.NewReader("0\n125\n250\n375\n500\n625\n750\n875\n2500\n"), simtime.Second)
	if err != nil {
		t.Fatal(err)
	}
	acts, err := s.Actions()
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) != 3 {
		t.Fatalf("%d actions, want 3", len(acts))
	}
	floor := float64(TraceMTUBytes * 8) // one MTU per 1 s bin
	if got := acts[1].Set.RateBps; got != floor {
		t.Errorf("outage bin rate %v, want floor %v", got, floor)
	}
	// A 1500 B frame sent in the outage must serialize within one bin, so
	// the link recovers as soon as the trace does.
	if ser := float64(TraceMTUBytes*8) / acts[1].Set.RateBps; ser > 1 {
		t.Errorf("outage-bin serialization %v s wedges the link past the bin", ser)
	}
}

func TestParseMahimahiErrors(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"negative":   "-5\n",
		"descending": "10\n5\n",
		"garbage":    "abc\n",
		// One absurd-but-finite timestamp must error, not allocate a
		// terabyte bin array or overflow the float->int conversion.
		"huge span":     "0\n9e15\n",
		"overflow span": "0\n1e300\n",
	}
	for name, src := range cases {
		if _, err := ParseMahimahi(strings.NewReader(src), 0); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
