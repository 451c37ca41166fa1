package fleet

import (
	"errors"
	"fmt"
	"math"

	"telepresence/internal/core"
	"telepresence/internal/scenario"
)

// Axis is one swept parameter: a name recognized by the sweep target and
// the grid values it takes.
type Axis struct {
	Name   string
	Values []float64
}

// SweepSpec is a cartesian parameter grid over one registered sweep target
// (core.SweepTarget): the grid is the cross product of the axes, enumerated
// row-major with the FIRST axis slowest. Parameters not covered by an axis
// hold the target's defaults.
type SweepSpec struct {
	// Target names the registered sweep target ("handover").
	Target string
	// Axes are the swept parameters; at least one is required.
	Axes []Axis
}

// Validate checks the spec against the registry: the target must exist,
// every axis must name one of its parameters exactly once, and every grid
// value must be a finite number.
func (s SweepSpec) Validate() error {
	t, ok := core.LookupSweep(s.Target)
	if !ok {
		return fmt.Errorf("fleet: unknown sweep target %q (try: list)", s.Target)
	}
	if len(s.Axes) == 0 {
		return fmt.Errorf("fleet: sweep %s: no axes", s.Target)
	}
	known := t.DefaultParams()
	seen := map[string]bool{}
	for _, a := range s.Axes {
		if _, ok := known[a.Name]; !ok {
			return fmt.Errorf("fleet: sweep %s: unknown parameter %q (have %v)",
				s.Target, a.Name, paramNames(t))
		}
		if seen[a.Name] {
			return fmt.Errorf("fleet: sweep %s: duplicate axis %q", s.Target, a.Name)
		}
		seen[a.Name] = true
		if len(a.Values) == 0 {
			return fmt.Errorf("fleet: sweep %s: axis %q has no values", s.Target, a.Name)
		}
		for _, v := range a.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("fleet: sweep %s: axis %q value %v is not finite", s.Target, a.Name, v)
			}
		}
	}
	return nil
}

func paramNames(t core.SweepTarget) []string {
	names := make([]string, len(t.Params))
	for i, p := range t.Params {
		names[i] = p.Name
	}
	return names
}

// SweepCell is one grid point: its full parameter map (axis values over
// target defaults) and the canonical label the per-cell seed derives from. The label depends only on the parameter
// values, so reshaping or reordering a grid never changes a cell's rows.
type SweepCell struct {
	Params map[string]float64
	Label  string
}

// Cells enumerates the grid (core.Cross of the axes). The spec must have
// passed Validate.
func (s SweepSpec) Cells() []SweepCell {
	t, _ := core.LookupSweep(s.Target)
	axes := make([][]map[string]float64, len(s.Axes))
	for i, a := range s.Axes {
		axes[i] = core.Axis(a.Name, a.Values...)
	}
	grid := core.Cross(axes...)
	cells := make([]SweepCell, len(grid))
	for i, g := range grid {
		params := t.WithDefaults(g)
		cells[i] = SweepCell{Params: params, Label: scenario.ParamLabel(params)}
	}
	return cells
}

// RunSweepStream executes every cell of the grid as one section named
// after the target, whose unit labels are the cells' canonical parameter
// labels, and streams the rows to sink in grid order (see runSections).
// Per the CellRunner contract a cell's rows are a pure function of (opts,
// parameter values) — cell seeds derive from the run seed and the
// canonical parameter label, never from grid position — so the output is
// byte-identical at any worker count and in any grid shape that contains
// the cell. Collect rows in memory with a MemorySink. The sink is closed
// before returning.
func RunSweepStream(spec SweepSpec, opts core.Options, cfg Config, sink Sink) ([]UnitResult, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	target, _ := core.LookupSweep(spec.Target)
	cells := spec.Cells()
	labels := make([]string, len(cells))
	for i, c := range cells {
		labels[i] = c.Label
	}
	opened := false
	results, err := runSections([]section{{
		name:   spec.Target,
		labels: labels,
		run:    func(i int) ([]core.Row, error) { return target.Run(opts, cells[i].Params) },
		open:   func() (Sink, error) { opened = true; return sink, nil },
	}}, opts, cfg)
	if !opened {
		// No cell emitted (all failed or skipped): the driver never took
		// the sink, so close it here.
		err = errors.Join(err, sink.Close())
	}
	return results, err
}
