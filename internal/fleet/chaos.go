package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// FaultPlan is the deterministic chaos harness: it injects panics, errors,
// and delays into unit attempts, and write errors into sink emissions, so
// the fault-tolerance machinery (panic isolation, retry, checkpointing) is
// itself exercised by tests and CI. Every decision is a pure function of
// (Seed, fault kind, unit key, attempt number) — a chaos run is exactly
// reproducible, and because runners are pure and retries re-derive the
// same rows, a chaos run whose units eventually succeed emits output
// byte-identical to a fault-free run.
type FaultPlan struct {
	// Seed drives every fault decision; vpfleet sets it to the run seed.
	Seed int64
	// PanicProb is the per-attempt probability of an injected panic
	// (exercising the fleet's recover path).
	PanicProb float64
	// ErrorProb is the per-attempt probability of an injected error.
	ErrorProb float64
	// DelayProb is the per-attempt probability of sleeping Delay before
	// the runner starts (exercising the watchdog and drain paths).
	DelayProb float64
	// Delay is the injected sleep duration.
	Delay time.Duration
	// SinkErrorProb is the probability of an injected write error when a
	// unit's rows reach the sink. It fires only on live emissions —
	// journaled entries replay clean, so a checkpointed run recovers on
	// resume.
	SinkErrorProb float64
	// FailAttempts caps which attempts are eligible for faults: attempts
	// numbered beyond it always run clean, so a retry budget of
	// FailAttempts+1 is guaranteed to converge. <=0 means 1 (only the
	// first attempt is faulted).
	FailAttempts int
}

func (p *FaultPlan) failAttempts() int {
	if p.FailAttempts <= 0 {
		return 1
	}
	return p.FailAttempts
}

// roll returns a uniform value in [0,1), deterministic in
// (Seed, kind, key, attempt).
func (p *FaultPlan) roll(kind, key string, attempt int) float64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("chaos|%d|%s|%s|%d", p.Seed, kind, key, attempt)))
	return float64(binary.BigEndian.Uint64(h[:8])>>11) / float64(uint64(1)<<53)
}

// perturb applies the plan to one unit attempt: it may sleep, panic, or
// return an injected error. A nil plan (chaos off) is a no-op, as is any
// attempt beyond FailAttempts.
func (p *FaultPlan) perturb(key string, attempt int) error {
	if p == nil || attempt > p.failAttempts() {
		return nil
	}
	if p.DelayProb > 0 && p.Delay > 0 && p.roll("delay", key, attempt) < p.DelayProb {
		time.Sleep(p.Delay)
	}
	if p.PanicProb > 0 && p.roll("panic", key, attempt) < p.PanicProb {
		panic(fmt.Sprintf("chaos: injected panic (%s attempt %d)", key, attempt))
	}
	if p.ErrorProb > 0 && p.roll("error", key, attempt) < p.ErrorProb {
		return fmt.Errorf("chaos: injected error (%s attempt %d)", key, attempt)
	}
	return nil
}

// sinkFault decides whether the given unit's live sink emission fails.
func (p *FaultPlan) sinkFault(key string) error {
	if p == nil || p.SinkErrorProb <= 0 {
		return nil
	}
	if p.roll("sink", key, 1) < p.SinkErrorProb {
		return fmt.Errorf("chaos: injected sink error (%s)", key)
	}
	return nil
}

// ParseFaultPlan parses a vpfleet -chaos spec: comma-separated key=value
// pairs among panic, error, delay, sink (probabilities in [0,1]),
// delay_ms (injected sleep), and attempts (FailAttempts). The run seed
// becomes the plan seed, keeping chaos decisions reproducible per run.
//
//	panic=0.5,error=0.2,delay=0.3,delay_ms=50,sink=0.1,attempts=2
func ParseFaultPlan(spec string, seed int64) (*FaultPlan, error) {
	p := &FaultPlan{Seed: seed}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("fleet: chaos field %q not of the form key=value", part)
		}
		name = strings.TrimSpace(name)
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("fleet: chaos field %s: bad value %q", name, val)
		}
		switch name {
		case "panic":
			p.PanicProb = v
		case "error":
			p.ErrorProb = v
		case "delay":
			p.DelayProb = v
		case "delay_ms":
			ns := v * float64(time.Millisecond)
			if !(ns >= 0 && ns < math.MaxInt64) {
				return nil, fmt.Errorf("fleet: chaos delay_ms=%v not a non-negative duration", v)
			}
			p.Delay = time.Duration(ns)
		case "sink":
			p.SinkErrorProb = v
		case "attempts":
			if !(v >= 0 && v <= math.MaxInt32 && v == math.Trunc(v)) {
				return nil, fmt.Errorf("fleet: chaos attempts=%v not an integer in [0,%d]", v, math.MaxInt32)
			}
			p.FailAttempts = int(v)
		default:
			return nil, fmt.Errorf("fleet: unknown chaos field %q (have panic, error, delay, delay_ms, sink, attempts)", name)
		}
	}
	for _, prob := range []struct {
		name string
		v    float64
	}{{"panic", p.PanicProb}, {"error", p.ErrorProb}, {"delay", p.DelayProb}, {"sink", p.SinkErrorProb}} {
		if prob.v < 0 || prob.v > 1 {
			return nil, fmt.Errorf("fleet: chaos %s=%v outside [0,1]", prob.name, prob.v)
		}
	}
	if p.DelayProb > 0 && p.Delay == 0 {
		p.Delay = 50 * time.Millisecond
	}
	return p, nil
}
