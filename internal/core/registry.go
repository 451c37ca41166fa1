package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"telepresence/internal/vca"
)

// Row is one emitted experiment row: a concrete row struct such as Fig4Row
// or RateAdaptationRow. Sinks serialize rows; see internal/fleet.
type Row = any

// RepRunner runs one repetition (work unit) of an experiment and returns
// the rows that repetition produced. Repetitions MUST be independent: each
// derives its own randomness from opts.Seed and the rep index (via
// simrand.Child or a rep-offset seed), shares no mutable state with other
// reps, and produces the same rows whether it runs first, last, or
// concurrently with its siblings. That contract is what lets the fleet
// scheduler shard reps across workers and still merge byte-identical
// output at any worker count.
type RepRunner func(opts Options, rep int) ([]Row, error)

// Experiment is one registered runner: a stable name, its row type, how
// many shardable repetitions it has at a given scale, and the per-rep
// entry point.
type Experiment struct {
	// Name addresses the experiment from CLIs and manifests ("fig4").
	Name string
	// Desc is a one-line description for listings.
	Desc string
	// Row is a zero value of the row type, used by sinks for CSV headers
	// and by callers for type discovery.
	Row Row
	// Reps reports the number of independent work units at the given
	// options. Options are normalized first; Reps must not be called with
	// invalid options (the scheduler validates before asking).
	Reps func(opts Options) int
	// Run executes work unit rep in [0, Reps(opts)).
	Run RepRunner
}

var registry struct {
	sync.Mutex
	byName map[string]Experiment
	sweeps map[string]SweepTarget
}

// Register adds an experiment to the global registry. It panics on an
// empty or duplicate name — registration happens at init time, where a
// panic is a programming error caught by any test.
func Register(e Experiment) {
	if e.Name == "" || e.Run == nil || e.Reps == nil {
		panic("core: Register: experiment needs a name, Reps and Run")
	}
	registry.Lock()
	defer registry.Unlock()
	if registry.byName == nil {
		registry.byName = map[string]Experiment{}
	}
	if _, dup := registry.byName[e.Name]; dup {
		panic("core: Register: duplicate experiment " + e.Name)
	}
	registry.byName[e.Name] = e
}

// Experiments returns all registered experiments sorted by name.
func Experiments() []Experiment {
	registry.Lock()
	defer registry.Unlock()
	out := make([]Experiment, 0, len(registry.byName))
	for _, e := range registry.byName {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup finds a registered experiment by name.
func Lookup(name string) (Experiment, bool) {
	registry.Lock()
	defer registry.Unlock()
	e, ok := registry.byName[name]
	return e, ok
}

// SweepParam describes one recognized parameter of a sweep target, with
// the value used when a sweep grid does not cover it.
type SweepParam struct {
	Name    string
	Default float64
	// Desc is a one-line description for listings.
	Desc string
}

// CellRunner executes one cell of a parameter sweep, given a full
// parameter map (every recognized parameter present). Like RepRunner,
// cells MUST be independent and deterministic: same (opts, params) in,
// same rows out, on any worker in any order. Implementations derive all
// cell randomness from opts.Seed and the parameter values — typically via
// SweepCellOptions — never from grid position, so the fleet can shard
// grids across workers, merge byte-identical output at any worker count,
// and reshape grids without moving any cell's rows.
type CellRunner func(opts Options, params map[string]float64) ([]Row, error)

// SweepTarget is a parameterized experiment for vpfleet's sweep grids: the
// scenario experiments register one target per schedule family (handover,
// burstloss, congestion, ...), exposing their schedule parameters as named
// sweep axes.
type SweepTarget struct {
	// Name addresses the target from the sweep CLI ("handover").
	Name string
	// Desc is a one-line description for listings.
	Desc string
	// Row is a zero value of the row type cells emit.
	Row Row
	// Params lists the recognized parameters with their defaults. Axes
	// sweeping any other name are rejected before anything runs.
	Params []SweepParam
	// Run executes one cell.
	Run CellRunner
	// Grid is the target's default cell list in repetition order: each
	// cell overrides some parameters and the rest keep their defaults. A
	// list rather than axes, because a default grid need not be a
	// cartesian product (burstLossGrid zips three channels). When set,
	// RegisterSweep also registers the registry experiment of the same
	// name whose repetition r is cell r.
	Grid []map[string]float64
}

// RegisterSweep adds a sweep target to the global registry, and with it
// the target's "(default grid)" registry experiment when t.Grid is set;
// like Register it panics on an empty or duplicate name at init time.
func RegisterSweep(t SweepTarget) {
	if t.Name == "" || t.Run == nil {
		panic("core: RegisterSweep: target needs a name and Run")
	}
	registry.Lock()
	if registry.sweeps == nil {
		registry.sweeps = map[string]SweepTarget{}
	}
	_, dup := registry.sweeps[t.Name]
	if !dup {
		registry.sweeps[t.Name] = t
	}
	registry.Unlock()
	if dup {
		panic("core: RegisterSweep: duplicate target " + t.Name)
	}
	if len(t.Grid) > 0 {
		Register(Experiment{
			Name: t.Name, Desc: t.Desc + " (default grid)", Row: t.Row, Reps: fixed(len(t.Grid)),
			Run: func(o Options, rep int) ([]Row, error) { return t.Run(o, t.WithDefaults(t.Grid[rep])) },
		})
	}
}

// SweepTargets returns all registered sweep targets sorted by name.
func SweepTargets() []SweepTarget {
	registry.Lock()
	defer registry.Unlock()
	out := make([]SweepTarget, 0, len(registry.sweeps))
	for _, t := range registry.sweeps {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LookupSweep finds a registered sweep target by name.
func LookupSweep(name string) (SweepTarget, bool) {
	registry.Lock()
	defer registry.Unlock()
	t, ok := registry.sweeps[name]
	return t, ok
}

// DefaultParams returns the target's parameter map at its defaults.
func (t SweepTarget) DefaultParams() map[string]float64 {
	out := make(map[string]float64, len(t.Params))
	for _, p := range t.Params {
		out[p.Name] = p.Default
	}
	return out
}

// WithDefaults overlays cell onto the target's defaults so every
// recognized parameter is present.
func (t SweepTarget) WithDefaults(cell map[string]float64) map[string]float64 {
	return overlay(t.DefaultParams(), cell)
}

// overlay copies src's entries into dst and returns dst.
func overlay(dst, src map[string]float64) map[string]float64 {
	//vplint:allow maporder(keyed map-into-map copy; each key is written once, so order cannot matter)
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// Axis lists one parameter's values as grid cells.
func Axis(name string, values ...float64) []map[string]float64 {
	cells := make([]map[string]float64, len(values))
	for i, v := range values {
		cells[i] = map[string]float64{name: v}
	}
	return cells
}

// Cross is the cartesian product of cell lists, enumerated row-major with
// the first list slowest: each product cell merges one cell of every
// list. With no lists it is the single empty cell.
func Cross(lists ...[]map[string]float64) []map[string]float64 {
	cells := []map[string]float64{{}}
	for _, list := range lists {
		next := make([]map[string]float64, 0, len(cells)*len(list))
		for _, c := range cells {
			for _, in := range list {
				next = append(next, overlay(overlay(map[string]float64{}, c), in))
			}
		}
		cells = next
	}
	return cells
}

// intParam reads sweep parameter name as an integer in [lo, hi]. Values
// within 1e-9 of an integer count as that integer; NaN and infinities
// never do.
func intParam(target, name string, params map[string]float64, lo, hi int) (int, error) {
	v := params[name]
	r := math.Round(v)
	if !(math.Abs(v-r) <= 1e-9 && r >= float64(lo) && r <= float64(hi)) {
		return 0, fmt.Errorf("%s: %s %g not an integer in [%d,%d]", target, name, v, lo, hi)
	}
	return int(r), nil
}

// indexParam resolves an index-valued sweep parameter to its element of
// values. Kinds (controllers, recovery strategies), apps and devices ride
// numeric sweep axes as indices into their canonical lists, and the index
// order is part of the cell-seed contract.
func indexParam[T any](target, name string, params map[string]float64, values []T) (T, error) {
	i, err := intParam(target, name, params, 0, len(values)-1)
	if err != nil {
		var zero T
		return zero, fmt.Errorf("%w %v", err, values)
	}
	return values[i], nil
}

// rows lifts a single typed row into a Row slice.
func rows[T any](r T, err error) ([]Row, error) {
	if err != nil {
		return nil, err
	}
	return []Row{r}, nil
}

// rowSlice lifts a typed row slice into a Row slice.
func rowSlice[T any](rs []T, err error) ([]Row, error) {
	if err != nil {
		return nil, err
	}
	out := make([]Row, len(rs))
	for i, r := range rs {
		out[i] = r
	}
	return out, nil
}

// collect runs units 0..n-1 in order and gathers their rows: the loop
// behind the aggregate runners kept for library use.
func collect[T any](n int, unit func(i int) (T, error)) ([]T, error) {
	out := make([]T, 0, n)
	for i := 0; i < n; i++ {
		row, err := unit(i)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// optReps normalizes and returns opts.Reps; registration-time helper for
// experiments whose unit count is the repetition count.
func optReps(opts Options) int {
	opts, err := opts.Normalize()
	if err != nil {
		return 0
	}
	return opts.Reps
}

func fixed(n int) func(Options) int { return func(Options) int { return n } }

// init self-registers every experiment in internal/core under the name
// vpfleet and internal/claims address it by; see DESIGN.md for the full
// index.
func init() {
	Register(Experiment{
		Name: "fig4", Desc: "Figure 4: RTT CDFs, nine vantage points to every provider server",
		Row: Fig4Row{}, Reps: optReps,
		Run: func(o Options, rep int) ([]Row, error) { return rowSlice(fig4Rep(o, rep)) },
	})
	Register(Experiment{
		Name: "anycast", Desc: "§4.1: speed-of-light anycast audit of every provider server",
		Row: vca.AnycastVerdict{}, Reps: fixed(len(vca.Apps())),
		Run: func(o Options, rep int) ([]Row, error) { return rowSlice(anycastApp(o, rep)) },
	})
	Register(Experiment{
		Name: "protocols", Desc: "§4.1: protocol & topology decision matrix over device mixes",
		Row: ProtocolCase{}, Reps: fixed(1),
		Run: func(o Options, _ int) ([]Row, error) {
			if _, err := o.Normalize(); err != nil {
				return nil, err
			}
			return rowSlice(ProtocolMatrix(), nil)
		},
	})
	Register(Experiment{
		Name: "fig5", Desc: "Figure 5: two-user uplink throughput per app",
		Row: Fig5Row{}, Reps: fixed(len(fig5Cases)),
		Run: func(o Options, rep int) ([]Row, error) { return rows(fig5Case(o, rep)) },
	})
	Register(Experiment{
		Name: "mesh", Desc: "§4.3: direct 3D (Draco-class) streaming estimate, ten heads",
		Row: MeshHeadRow{}, Reps: fixed(10),
		Run: func(o Options, rep int) ([]Row, error) { return rows(meshHead(o, rep)) },
	})
	Register(Experiment{
		Name: "keypoints", Desc: "§4.3: semantic keypoint streaming estimate",
		Row: KeypointRow{}, Reps: optReps,
		Run: func(o Options, rep int) ([]Row, error) { return rows(keypointRep(o, rep)) },
	})
	Register(Experiment{
		Name: "latency", Desc: "§4.3: display-latency gap vs injected delay",
		Row: DisplayLatencyRow{}, Reps: fixed(len(DefaultInjectedDelaysMs())),
		Run: func(o Options, rep int) ([]Row, error) {
			return rows(displayLatencyCase(o, DefaultInjectedDelaysMs()[rep]))
		},
	})
	Register(Experiment{
		Name: "rate", Desc: "§4.3: rate adaptation under uplink caps",
		Row: RateAdaptationRow{}, Reps: fixed(len(DefaultRateCaps())),
		Run: func(o Options, rep int) ([]Row, error) {
			return rows(rateCase(o, rep, DefaultRateCaps()[rep]))
		},
	})
	Register(Experiment{
		Name: "fig6", Desc: "Figure 6: visibility-aware rendering optimizations",
		Row: Fig6Row{}, Reps: fixed(len(fig6Scenarios)),
		Run: func(o Options, rep int) ([]Row, error) { return rows(fig6Case(o, rep)) },
	})
	Register(Experiment{
		Name: "fig7", Desc: "Figure 7: scalability with 2-5 Vision Pro users",
		Row: Fig7Row{}, Reps: fixed(vca.MaxSpatialUsers - 1),
		Run: func(o Options, rep int) ([]Row, error) { return rows(fig7Users(o, rep+2)) },
	})
	Register(Experiment{
		Name: "remote", Desc: "Implications 4: remote-rendering downlink ablation",
		Row: RemoteRenderRow{}, Reps: fixed(vca.MaxSpatialUsers - 1),
		Run: func(o Options, rep int) ([]Row, error) { return rows(remoteRenderUsers(o, rep+2)) },
	})
	Register(Experiment{
		Name: "servers", Desc: "Implications 1: server-allocation policy latency comparison",
		Row: MultiServerRow{}, Reps: fixed(len(multiServerPolicies)),
		Run: func(o Options, rep int) ([]Row, error) {
			return rows(multiServerPolicy(o, multiServerPolicies[rep]))
		},
	})
	Register(Experiment{
		Name: "viewport", Desc: "Implications 3: viewport-aware delivery savings",
		Row: ViewportDeliveryRow{}, Reps: fixed(1),
		Run: func(o Options, _ int) ([]Row, error) { return rows(ViewportDeliveryAblation(o)) },
	})
	Register(Experiment{
		Name: "qoe", Desc: "§5: passive QoE inference from encrypted packet timing",
		Row: QoESweepRow{}, Reps: fixed(len(qoeApps)),
		Run: func(o Options, rep int) ([]Row, error) { return rows(qoeApp(o, rep)) },
	})
}

// String renders the experiment as "name: desc" for listings.
func (e Experiment) String() string { return fmt.Sprintf("%s: %s", e.Name, e.Desc) }
