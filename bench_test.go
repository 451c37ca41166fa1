// Benchmarks of the simulation's own cost: one per registered experiment,
// the whole suite at one and eight workers, and a repetition-heavy
// experiment. Wall time per op is the cost of simulating, not a claim
// about the measured system; the paper's numbers are checked by
// internal/claims (`vpfleet claims <outdir>`). Run with:
//
//	go test -run NONE -bench . -benchtime 1x
package telepresence_test

import (
	"testing"

	tp "telepresence"
)

func benchOpts(seed int64) tp.Options {
	o := tp.Quick(seed)
	o.SessionDuration = 4 * tp.Second
	o.Reps = 1
	return o
}

// BenchmarkExperiment runs each registered experiment alone on one
// worker, so one experiment's cost can be compared across two checkouts:
//
//	go test -run NONE -bench 'BenchmarkExperiment/fig5$' -benchtime 1x
func BenchmarkExperiment(b *testing.B) {
	for _, e := range tp.Experiments() {
		b.Run(e.Name, func(b *testing.B) {
			var rows int
			for i := 0; i < b.N; i++ {
				rows = runFleet(b, []tp.Experiment{e}, benchOpts(1), tp.FleetConfig{Workers: 1})
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// benchFleet runs the full registered suite at the given worker count and
// reports rows/op so sequential and parallel runs can be compared:
//
//	go test -bench=BenchmarkFleetSuite -benchtime=1x
//
// The suite is embarrassingly parallel across (experiment, rep) units, so
// eight workers should finish the repetition-heavy experiments well over
// 2x faster than one.
func benchFleet(b *testing.B, workers int) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = runFleet(b, tp.Experiments(), benchOpts(20), tp.FleetConfig{Workers: workers})
	}
	b.ReportMetric(float64(rows), "rows")
}

// runFleet streams exps into memory sinks and returns the number of rows
// emitted.
func runFleet(b *testing.B, exps []tp.Experiment, opts tp.Options, cfg tp.FleetConfig) int {
	results, err := tp.FleetRunStream(exps, opts, cfg, memorySinks)
	if err != nil {
		b.Fatal(err)
	}
	rows := 0
	for _, r := range results {
		rows += r.Rows
	}
	return rows
}

// memorySinks collects each experiment's rows in a fresh MemorySink.
func memorySinks(tp.Experiment) (tp.Sink, error) { return tp.NewMemorySink(), nil }

func BenchmarkFleetSuiteSequential(b *testing.B) { benchFleet(b, 1) }
func BenchmarkFleetSuiteParallel8(b *testing.B)  { benchFleet(b, 8) }

// BenchmarkFleetSuiteSequentialCheckpoint measures the checkpointing tax:
// the same sequential suite with every completed rep journaled (dual-
// encoded entry + atomic temp-and-rename write per unit). The fault-
// tolerance budget is <5% over BenchmarkFleetSuiteSequential. The
// host-time benchmark of the fleet engine and journal is the
// fleet_journal workload in bench/ (see bench/README.md).
func BenchmarkFleetSuiteSequentialCheckpoint(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		journal, err := tp.OpenFleetJournal(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rows = runFleet(b, tp.Experiments(), benchOpts(20), tp.FleetConfig{Workers: 1, Checkpoint: journal})
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkFleetKeypoints8Reps isolates a repetition-heavy experiment:
// eight independent keypoint-streaming reps on one worker versus eight.
func benchFleetKeypoints(b *testing.B, workers int) {
	exps, err := tp.SelectExperiments("keypoints")
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts(21)
	opts.Reps = 8
	for i := 0; i < b.N; i++ {
		if _, err := tp.FleetRunStream(exps, opts, tp.FleetConfig{Workers: workers}, memorySinks); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFleetKeypoints8RepsSequential(b *testing.B) { benchFleetKeypoints(b, 1) }
func BenchmarkFleetKeypoints8RepsParallel8(b *testing.B)  { benchFleetKeypoints(b, 8) }
