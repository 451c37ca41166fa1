package fleet

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"telepresence/internal/core"
)

func TestParseFaultPlan(t *testing.T) {
	p, err := ParseFaultPlan("panic=0.5,error=0.25,delay=0.1,delay_ms=20,sink=0.75,attempts=2", 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.PanicProb != 0.5 || p.ErrorProb != 0.25 || p.DelayProb != 0.1 ||
		p.Delay != 20*time.Millisecond || p.SinkErrorProb != 0.75 || p.FailAttempts != 2 {
		t.Errorf("parsed plan wrong: %+v", p)
	}
	// DelayProb without delay_ms gets a default delay.
	p, err = ParseFaultPlan("delay=1", 1)
	if err != nil || p.Delay == 0 {
		t.Errorf("delay default not applied: %+v (%v)", p, err)
	}
	for _, bad := range []string{"panic", "panic=x", "panic=1.5", "wat=1", "delay_ms=-5"} {
		if _, err := ParseFaultPlan(bad, 1); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	// Non-finite values, attempts that are not a non-negative int, and
	// delays past time.Duration's range are rejected, naming the field.
	for spec, field := range map[string]string{
		"panic=NaN":      "panic",
		"error=+Inf":     "error",
		"attempts=-5":    "attempts",
		"attempts=2.9":   "attempts",
		"attempts=1e300": "attempts",
		"delay_ms=1e300": "delay_ms",
		"delay_ms=Inf":   "delay_ms",
		"delay_ms=NaN":   "delay_ms",
	} {
		_, err := ParseFaultPlan(spec, 1)
		if err == nil {
			t.Errorf("spec %q accepted", spec)
		} else if !strings.Contains(err.Error(), field) {
			t.Errorf("spec %q: error %q does not name %s", spec, err, field)
		}
	}
	if p, err := ParseFaultPlan("attempts=0", 1); err != nil || p.FailAttempts != 0 {
		t.Errorf("attempts=0: %+v (%v)", p, err)
	}
}

// TestChaosDeterministic: fault decisions are pure functions of
// (seed, kind, key, attempt) — the same plan rolls the same outcomes, and
// a different seed rolls a different pattern somewhere.
func TestChaosDeterministic(t *testing.T) {
	a := &FaultPlan{Seed: 3}
	b := &FaultPlan{Seed: 3}
	c := &FaultPlan{Seed: 4}
	same, diff := true, false
	for i := 0; i < 64; i++ {
		key := "grid/x/cell" + string(rune('a'+i%26))
		if a.roll("panic", key, 1) != b.roll("panic", key, 1) {
			same = false
		}
		if a.roll("panic", key, 1) != c.roll("panic", key, 1) {
			diff = true
		}
	}
	if !same {
		t.Error("identical plans rolled different outcomes")
	}
	if !diff {
		t.Error("different seeds rolled identical outcomes everywhere")
	}
	// Rolls are roughly uniform: an always/never pattern would make the
	// probability knobs meaningless.
	hits := 0
	p := &FaultPlan{Seed: 9, ErrorProb: 0.5}
	for i := 0; i < 200; i++ {
		if p.roll("error", "unit"+string(rune('0'+i%10)), i) < 0.5 {
			hits++
		}
	}
	if hits < 60 || hits > 140 {
		t.Errorf("roll uniformity suspect: %d/200 under 0.5", hits)
	}
}

// TestChaosFailAttemptsCapsFaults: attempts beyond FailAttempts always run
// clean, so MaxAttempts = FailAttempts+1 is guaranteed to converge.
func TestChaosFailAttemptsCapsFaults(t *testing.T) {
	p := &FaultPlan{Seed: 1, ErrorProb: 1, FailAttempts: 2}
	if err := p.perturb("u", 1); err == nil {
		t.Error("attempt 1 not faulted at ErrorProb=1")
	}
	if err := p.perturb("u", 2); err == nil {
		t.Error("attempt 2 not faulted within FailAttempts")
	}
	if err := p.perturb("u", 3); err != nil {
		t.Errorf("attempt 3 faulted beyond FailAttempts: %v", err)
	}
	var nilPlan *FaultPlan
	if err := nilPlan.perturb("u", 1); err != nil {
		t.Errorf("nil plan perturbed: %v", err)
	}
	if err := nilPlan.sinkFault("u"); err != nil {
		t.Errorf("nil plan sink-faulted: %v", err)
	}
}

// TestChaosHealedMatchesClean: a chaos run whose units all converge under
// retry emits byte-identical output to a fault-free run — the purity
// guarantee that makes the chaos harness a determinism test, not just a
// crash test.
func TestChaosHealedMatchesClean(t *testing.T) {
	spec := SweepSpec{Target: "synth-sweep", Axes: []Axis{
		{Name: "a", Values: []float64{1, 2, 3}},
		{Name: "b", Values: []float64{10, 20}},
	}}
	opts := core.Quick(11)
	w, _, err := streamSweepJSONL(t, spec, opts, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	chaos := &FaultPlan{Seed: 11, PanicProb: 0.7, ErrorProb: 0.5, FailAttempts: 2}
	g, hurt, err := streamSweepJSONL(t, spec, opts, Config{Workers: 4, Chaos: chaos, Retry: RetryPolicy{MaxAttempts: 3}})
	if err != nil {
		t.Fatalf("chaos run did not converge under retry: %v", err)
	}
	if !bytes.Equal(w, g) {
		t.Errorf("chaos-healed output diverges from clean\nclean: %s\nchaos: %s", w, g)
	}
	total := 0
	for _, r := range hurt {
		total += r.Attempts
	}
	if total <= len(hurt) {
		t.Errorf("chaos injected no faults (total attempts %d over %d cells); plan too weak for the test", total, len(hurt))
	}
}

// TestChaosPanicMessageNamesUnit keeps injected panics identifiable in
// captured stacks and failure sections.
func TestChaosPanicMessageNamesUnit(t *testing.T) {
	spec := SweepSpec{Target: "synth-sweep", Axes: []Axis{{Name: "a", Values: []float64{1}}}}
	chaos := &FaultPlan{Seed: 1, PanicProb: 1}
	results, _, err := sweepRows(spec, core.Quick(1), Config{Workers: 1, Chaos: chaos})
	if err == nil {
		t.Fatal("PanicProb=1 run succeeded")
	}
	if !strings.Contains(results[0].Err.Error(), "chaos: injected panic") ||
		!strings.Contains(results[0].Err.Error(), "grid/synth-sweep/") {
		t.Errorf("injected panic unidentifiable: %v", results[0].Err)
	}
}
