package simtime

import (
	"testing"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(30, 0, func() { got = append(got, 3) })
	s.At(10, 0, func() { got = append(got, 1) })
	s.At(20, 0, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Errorf("Now() = %v, want 30", s.Now())
	}
}

func TestSchedulerFIFOTieBreak(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		s.At(100, 0, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break order broken at %d: got %d", i, v)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	s.At(10, 0, func() {
		s.At(s.Now().Add(5), 0, func() { fired = append(fired, s.Now()) })
	})
	s.Run()
	if len(fired) != 1 || fired[0] != 15 {
		t.Fatalf("nested event fired at %v, want [15]", fired)
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(100, 0, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(50, 0, func() {})
}

func TestEventCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.At(10, 0, func() { fired = true })
	e.Cancel()
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if s.Steps() != 0 {
		t.Errorf("Steps() = %d, want 0", s.Steps())
	}
}

func TestRunUntilStopsAndAdvancesClock(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for _, at := range []Time{5, 15, 25} {
		at := at
		s.At(at, 0, func() { fired = append(fired, at) })
	}
	s.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if s.Now() != 20 {
		t.Errorf("Now() = %v, want 20 (clock should advance to deadline)", s.Now())
	}
	s.RunUntil(100)
	if len(fired) != 3 {
		t.Errorf("fired %d events after second run, want 3", len(fired))
	}
	if s.Now() != 100 {
		t.Errorf("Now() = %v, want 100", s.Now())
	}
}

func TestRunFor(t *testing.T) {
	s := NewScheduler()
	s.RunFor(3 * time.Second)
	if s.Now() != Time(3*Second) {
		t.Errorf("Now() = %v, want 3s", s.Now())
	}
}

func TestTicker(t *testing.T) {
	s := NewScheduler()
	var ticks []Time
	tk := NewTicker(s, 10*Millisecond, 0, func(now Time) { ticks = append(ticks, now) })
	s.RunFor(55 * Millisecond)
	tk.Stop()
	s.RunFor(100 * Millisecond)
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5: %v", len(ticks), ticks)
	}
	for i, tt := range ticks {
		want := Time((i + 1) * 10 * int(Millisecond))
		if tt != want {
			t.Errorf("tick %d at %v, want %v", i, tt, want)
		}
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	s := NewScheduler()
	n := 0
	var tk *Ticker
	tk = NewTicker(s, Millisecond, 0, func(Time) {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	s.RunFor(Second)
	if n != 3 {
		t.Errorf("ticker fired %d times after self-stop, want 3", n)
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(0).Add(1500 * Millisecond)
	if tm.Seconds() != 1.5 {
		t.Errorf("Seconds() = %v, want 1.5", tm.Seconds())
	}
	if tm.Milliseconds() != 1500 {
		t.Errorf("Milliseconds() = %v, want 1500", tm.Milliseconds())
	}
	if d := tm.Sub(Time(Second)); d != 500*Millisecond {
		t.Errorf("Sub = %v, want 500ms", d)
	}
	if tm.String() != "t+1.500s" {
		t.Errorf("String() = %q", tm.String())
	}
}

func TestNonPositiveTickerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero interval ticker did not panic")
		}
	}()
	NewTicker(NewScheduler(), 0, 0, func(Time) {})
}

func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.At(s.Now().Add(Duration(i%100)*Microsecond), 0, func() {})
		if s.Pending() > 1000 {
			for s.Pending() > 0 {
				s.Step()
			}
		}
	}
	s.Run()
}
