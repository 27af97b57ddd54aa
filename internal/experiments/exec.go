package experiments

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/spec"
)

// Exec carries the execution policy for the experiment sweeps: how many
// fleet workers run the independent cells, and an optional progress
// observer. The zero value — and Workers == 1 — runs one cell at a time.
// Any worker count produces bit-identical results: every cell is a pure
// function of its axes, and the fleet delivers results in submission order.
type Exec struct {
	// Workers is the fleet worker count; <= 1 runs serially.
	Workers int
	// Observer, when non-nil, receives per-job progress snapshots.
	Observer fleet.Observer
	// Ctx, when non-nil, cancels in-flight sweeps: pending cells stop being
	// submitted and the sweep returns the context's error. nil means
	// context.Background() (run to completion).
	Ctx context.Context
}

// config builds the fleet configuration for a batch of total cells.
func (e Exec) config(total int) fleet.Config {
	w := e.Workers
	if w < 1 {
		w = 1
	}
	return fleet.Config{Workers: w, Total: total, Observer: e.Observer}
}

// ctx returns the policy's cancellation context.
func (e Exec) ctx() context.Context {
	if e.Ctx == nil {
		return context.Background()
	}
	return e.Ctx
}

// runCells executes one cell batch under the execution policy, preserving
// cell order in the output.
func runCells[J, T any](e Exec, cells []J, run func(J) (T, error)) ([]T, error) {
	return fleet.Map(e.ctx(), e.config(len(cells)), cells,
		func(_ context.Context, c J) (T, error) { return run(c) })
}

// sweepCell carries the replay metadata a fleet job submits: a
// human-readable cell label and the scenario seed.
type sweepCell struct {
	label string
	seed  uint64
}

// FleetLabel implements fleet.Described.
func (c sweepCell) FleetLabel() string { return c.label }

// FleetSeed implements fleet.Described.
func (c sweepCell) FleetSeed() uint64 { return c.seed }

// gridCell is one spec cell submitted by runGrid; its label is the axes as
// written (a spec/v1 base that replays the cell).
type gridCell struct {
	sweepCell
	ax spec.Axes
}

// runGrid runs every cell of grid on the fleet through RunCell and returns
// the outcomes in grid order. It is the one fan-out behind every
// cell-shaped sweep. cfg, when non-nil, overrides the tracker config of
// cdpf-family cells (see runCell).
func (e Exec) runGrid(grid []spec.Axes, cfg *core.Config) ([]*CellOutcome, error) {
	cells := make([]gridCell, len(grid))
	for i, ax := range grid {
		label, _ := json.Marshal(ax) // plain fields only: cannot fail
		cells[i] = gridCell{sweepCell: sweepCell{label: string(label), seed: ax.Seed}, ax: ax}
	}
	// The fleet cancels the job context once any cell fails, so in-flight
	// cells stop at their next step.
	return fleet.Map(e.ctx(), e.config(len(cells)), cells, func(ctx context.Context, c gridCell) (*CellOutcome, error) {
		out, err := runCell(ctx, c.ax, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: cell %s: %w", c.label, err)
		}
		return out, nil
	})
}

// sweep runs grid through runGrid and returns the cells' metrics results,
// each passed through relabel (nil keeps the raw axes) so the sweep's table
// presenter can group them — typically by storing the swept axis in
// Density.
func (e Exec) sweep(grid []spec.Axes, relabel func(*metrics.RunResult, spec.Axes)) ([]metrics.RunResult, error) {
	outs, err := e.runGrid(grid, nil)
	if err != nil {
		return nil, err
	}
	rs := make([]metrics.RunResult, len(outs))
	for i, out := range outs {
		rs[i] = out.Result
		if relabel != nil {
			relabel(&rs[i], out.Axes)
		}
	}
	return rs, nil
}

// axisGrid builds the algos × seeds cells at each value of one swept axis,
// in value-major, algo, then seed order; with sets the value and the fixed
// axes (density at least) on each cell.
func axisGrid(values []float64, algos []Algo, seeds []uint64, with func(*spec.Axes, float64)) []spec.Axes {
	var grid []spec.Axes
	for _, v := range values {
		for _, algo := range algos {
			for _, seed := range seeds {
				ax := spec.Axes{Algo: string(algo), Seed: seed}
				with(&ax, v)
				grid = append(grid, ax)
			}
		}
	}
	return grid
}

// setDensity is the axisGrid setter for a density sweep.
func setDensity(ax *spec.Axes, d float64) { ax.Density = d }

// Sweep runs every (density, seed, algo) combination across the fleet and
// returns the flat result list in the serial enumeration order
// (density-major, algo, then seed), suitable for metrics.Summarize.
func (e Exec) Sweep(densities []float64, seeds []uint64, algos []Algo) ([]metrics.RunResult, error) {
	grid := axisGrid(densities, algos, seeds, setDensity)
	return e.sweep(grid, nil)
}
