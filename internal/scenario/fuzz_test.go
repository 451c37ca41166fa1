package scenario

import (
	"bytes"
	"testing"

	"telepresence/internal/simtime"
)

// checkActions fails t unless an accepted schedule flattens to actions
// with non-negative, non-decreasing offsets.
func checkActions(t *testing.T, s *Schedule) {
	t.Helper()
	acts, err := s.Actions()
	if err != nil {
		t.Fatalf("accepted schedule does not flatten: %v", err)
	}
	prev := simtime.Duration(0)
	for i, a := range acts {
		if a.At < prev {
			t.Fatalf("action %d at %v, after %v", i, a.At, prev)
		}
		prev = a.At
	}
}

// FuzzParseCSV drives the CSV timeline importer. It must not panic, and a
// schedule it accepts flattens to non-negative, non-decreasing actions.
func FuzzParseCSV(f *testing.F) {
	f.Add([]byte("time_s,delay_ms,rate_kbps,loss\n0,0,0,0\n1.5,200,800,0.01\n3,0,0,0\n"))
	f.Add([]byte("Time_S, rate_bps, note\n0, 1e6, start\n2, 5e5, dip\n"))
	f.Add([]byte("time_s,loss\n1e11,0.1\n"))
	f.Add([]byte("time_s,loss\n-1e11,0.1\n"))
	f.Add([]byte("time_s,delay_ms\n2,5\n1,5\n"))
	f.Add([]byte("time_s,delay_ms\nNaN,5\n"))
	f.Add([]byte("time_s,rate_kbps\n0,1e308\n"))
	f.Add([]byte("time_s\n\"0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkActions(t, s)
	})
}

// FuzzParseMahimahi drives the mm-link trace importer at a fuzzed bin
// width. It must not panic, and a schedule it accepts flattens to
// non-negative, non-decreasing actions.
func FuzzParseMahimahi(f *testing.F) {
	f.Add([]byte("0\n125\n250\n375\n500\n625\n750\n875\n1000\n1500\n"), int64(0))
	f.Add([]byte("# comment\n\n0\n0\n2500\n"), int64(simtime.Second))
	f.Add([]byte("0\n1e300\n"), int64(0))
	f.Add([]byte("5\n3\n"), int64(0))
	f.Add([]byte("0\n1000\n"), int64(1))
	f.Add([]byte("-1\n"), int64(-7))
	f.Fuzz(func(t *testing.T, data []byte, bin int64) {
		s, err := ParseMahimahi(bytes.NewReader(data), simtime.Duration(bin))
		if err != nil {
			return
		}
		checkActions(t, s)
	})
}
