package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"telepresence/internal/core"
	"telepresence/internal/fleet"
	"telepresence/internal/simtime"
	"telepresence/internal/vca"
)

// workload is one set of inputs the benchmark runs. A pass runs the
// workload's experiments (fleet.RunStream) and then its sweeps
// (fleet.RunSweepStream) once, in a fresh child process; a measured run
// repeats passes until its time is up.
type workload struct {
	name string
	// workers is the fleet pool size; 0 selects one worker per
	// GOMAXPROCS.
	workers int
	opts    func(seed int64) core.Options
	exps    []core.Experiment
	sweeps  []fleet.SweepSpec
	// rows is how many rows one pass must emit.
	rows int
	// journal makes every pass checkpoint to a fresh journal and then
	// replay it in a second, resuming child.
	journal bool
	// At seed 1 the golden-checked sections (see goldenChecked) are
	// compared with the golden suite: the first pass's output when golden
	// is set, and a child that re-runs the verify experiments whole at the
	// golden options.
	golden bool
	verify []string
	// apps are the 2D video specs the workload's sessions use; trace mode
	// replays their video pipeline call by call.
	apps []replayApp
}

// goldenOpts are the options internal/fleet's golden suite was recorded
// with.
func goldenOpts(seed int64) core.Options {
	o := core.Quick(seed)
	o.SessionDuration = 4 * simtime.Second
	return o
}

// Rows each experiment emits per repetition, or in total for the fixed
// grids, at the golden options.
const (
	fig4RowsPerRep = 10
	anycastRows    = 10
	serversRows    = 3
	protocolsRows  = 8
)

// workloads returns the benchmark's workloads. short shrinks every grid to
// a smoke test of a few seconds and drops the golden re-runs.
//
// Pass sizes are chosen so that a 20 s run holds three to five passes on a
// 2-CPU host: every timing is a median over passes, and every pass starts a
// child whose set-up time is measured.
func workloads(short bool) ([]workload, error) {
	// video_p2p: two recovery cells, both on the Zoom 640x360@15 spec.
	recReps := []int{4, 11} // nack under medium bursts, hybrid under heavy bursts
	// video_apps: every fig5 app, one 1 s call each.
	fig5Reps := []int{0, 1, 2, 3, 4}
	handover := []float64{0, 500}
	burst := []float64{0.02}
	floors := []float64{0.5, 1.5}
	fig4Reps := 3000
	if short {
		recReps = []int{4}
		fig5Reps = []int{2}
		handover, burst, floors = []float64{500}, nil, nil
		fig4Reps = 20
	}

	recovery, err := pick("recovery", recReps)
	if err != nil {
		return nil, err
	}
	fig5, err := pick("fig5", fig5Reps)
	if err != nil {
		return nil, err
	}
	fig4, err := pick("fig4", seq(fig4Reps))
	if err != nil {
		return nil, err
	}
	fixedGrids, err := fleet.Select("anycast", "servers", "protocols")
	if err != nil {
		return nil, err
	}

	var sweeps []fleet.SweepSpec
	add := func(target string, axes ...fleet.Axis) {
		for _, a := range axes {
			if len(a.Values) == 0 {
				return
			}
		}
		sweeps = append(sweeps, fleet.SweepSpec{Target: target, Axes: axes})
	}
	add("handover", fleet.Axis{Name: "delay_ms", Values: handover})
	add("burstloss", fleet.Axis{Name: "loss_bad", Values: []float64{0.6}}, fleet.Axis{Name: "p_good_bad", Values: burst})
	add("congestion", fleet.Axis{Name: "floor_mbps", Values: floors})
	spatialCells := 0
	for _, s := range sweeps {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		spatialCells += len(s.Cells())
	}

	var verifyRecovery, verifyFig5 []string
	if !short {
		verifyRecovery, verifyFig5 = []string{"recovery"}, []string{"fig5"}
	}
	var fig5Apps []replayApp
	for _, r := range fig5Reps {
		if a, ok := fig5Video[r]; ok {
			fig5Apps = append(fig5Apps, a)
		}
	}

	return []workload{
		{
			name:    "video_p2p",
			workers: 1,
			opts:    goldenOpts,
			exps:    []core.Experiment{recovery},
			rows:    len(recReps),
			verify:  verifyRecovery,
			apps:    []replayApp{{name: "zoom", app: vca.Zoom, fps: 15}},
		},
		{
			name:    "video_apps",
			workers: 1,
			opts: func(seed int64) core.Options {
				return core.Options{Seed: seed, SessionDuration: simtime.Second, Reps: 1}
			},
			exps:   []core.Experiment{fig5},
			rows:   len(fig5Reps),
			verify: verifyFig5,
			apps:   fig5Apps,
		},
		{
			name:    "spatial",
			workers: 1,
			opts: func(seed int64) core.Options {
				o := core.Quick(seed)
				o.SessionDuration = 60 * simtime.Second
				return o
			},
			sweeps: sweeps,
			rows:   spatialCells,
		},
		{
			name:    "fleet_journal",
			opts:    goldenOpts,
			exps:    append([]core.Experiment{fig4}, fixedGrids...),
			rows:    fig4Reps*fig4RowsPerRep + anycastRows + serversRows + protocolsRows,
			journal: true,
			golden:  true,
		},
	}, nil
}

// fig5Video maps fig5 repetitions to the 2D video spec their sender uses;
// repetition 0 is the spatial persona and has none.
var fig5Video = map[int]replayApp{
	1: {name: "facetime", app: vca.FaceTime, fps: 30},
	2: {name: "zoom", app: vca.Zoom, fps: 30},
	3: {name: "webex", app: vca.Webex, fps: 30},
	4: {name: "teams", app: vca.Teams, fps: 30},
}

func findWorkload(name string, short bool) (workload, error) {
	ws, err := workloads(short)
	if err != nil {
		return workload{}, err
	}
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// pick restricts a registry experiment to the given repetitions; the fleet
// numbers them 0..len(reps)-1. Units are pure, so a picked repetition emits
// the same rows as it does inside the whole experiment.
func pick(name string, reps []int) (core.Experiment, error) {
	e, ok := core.Lookup(name)
	if !ok {
		return core.Experiment{}, fmt.Errorf("no registry experiment %q", name)
	}
	run := e.Run
	e.Reps = func(core.Options) int { return len(reps) }
	e.Run = func(o core.Options, r int) ([]core.Row, error) { return run(o, reps[r]) }
	return e, nil
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// sections lists the output files of a pass in emission order, one per
// experiment or sweep target.
func (w workload) sections() []string {
	var names []string
	for _, e := range w.exps {
		names = append(names, e.Name)
	}
	for _, s := range w.sweeps {
		names = append(names, s.Target)
	}
	return names
}

// runPass executes one pass in this process, writing each experiment's or
// sweep target's rows to <dir>/<name>.jsonl.
func (w workload) runPass(opts core.Options, cfg fleet.Config, dir string) error {
	if len(w.exps) > 0 {
		_, err := fleet.RunStream(w.exps, opts, cfg, func(e core.Experiment) (fleet.Sink, error) {
			return openSink(dir, e.Name)
		})
		if err != nil {
			return err
		}
	}
	for _, s := range w.sweeps {
		sink, err := openSink(dir, s.Target)
		if err != nil {
			return err
		}
		if _, err := fleet.RunSweepStream(s, opts, cfg, sink); err != nil {
			return err
		}
	}
	return nil
}

// fileSink is a buffered JSONL file sink that can also replay journal
// entries.
type fileSink struct {
	fleet.EntrySink
	f  *os.File
	bw *bufio.Writer
}

func openSink(dir, name string) (fleet.Sink, error) {
	f, err := os.Create(filepath.Join(dir, name+".jsonl"))
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	es, ok := fleet.NewJSONLSink(bw).(fleet.EntrySink)
	if !ok {
		f.Close()
		return nil, errors.New("fleet JSONL sink cannot replay journal entries")
	}
	return fileSink{EntrySink: es, f: f, bw: bw}, nil
}

func (s fileSink) Close() error {
	return errors.Join(s.EntrySink.Close(), s.bw.Flush(), s.f.Close())
}
