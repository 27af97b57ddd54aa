package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/report"
	"repro/internal/spec"
	"repro/internal/statex"
	"repro/internal/wsn"
)

// MultiTargetExperiment evaluates the multi-target extension: nTargets
// parallel intruders cross the field on staggered lanes, tracked by the
// per-track CDPF fleet. Reported per target count: mean per-target error
// (each true target matched to its nearest live track), the mean live-track
// count while all targets are in the field, and the fleet's total bytes.
// The (target count, seed) cells fan out across the execution policy.
func (e Exec) MultiTargetExperiment(density float64, targetCounts []int, seeds []uint64) (*report.Table, error) {
	type mtCell struct {
		sweepCell
		n int
	}
	type mtOut struct{ rmse, tracks, bytes float64 }
	var cells []mtCell
	for _, n := range targetCounts {
		for _, seed := range seeds {
			cells = append(cells, mtCell{
				sweepCell: sweepCell{label: fmt.Sprintf("multitarget/n%d/s%d", n, seed), seed: seed},
				n:         n,
			})
		}
	}
	outs, err := runCells(e, cells, func(c mtCell) (mtOut, error) {
		rmse, tracks, bytes, err := multiRun(density, c.n, c.seed)
		return mtOut{rmse, tracks, bytes}, err
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		"Extension — multi-target tracking (per-track CDPF fleet, density 20)",
		"targets", "per_target_rmse_m", "mean_live_tracks", "bytes")
	for i, n := range targetCounts {
		var rmses, trackCounts, bts []float64
		for _, o := range outs[i*len(seeds) : (i+1)*len(seeds)] {
			if !math.IsNaN(o.rmse) {
				rmses = append(rmses, o.rmse)
			}
			trackCounts = append(trackCounts, o.tracks)
			bts = append(bts, o.bytes)
		}
		t.AddRow(n, mathx.Mean(rmses), mathx.Mean(trackCounts), mathx.Mean(bts))
	}
	return t, nil
}

// multiRun runs one multi-target scenario: n targets on horizontal lanes
// spaced across the field, all moving east at the paper's speed. It is a
// thin view over the spec cell engine (see runMultiCell), which owns the
// actual loop.
func multiRun(density float64, n int, seed uint64) (rmse, meanTracks, bytes float64, err error) {
	// runMultiCell directly, not RunCell: the experiment's n=1 row runs the
	// multi-target manager with a single target (pricing the machinery),
	// whereas a spec cell with targets=1 is an ordinary single-target run.
	out, err := runMultiCell(context.Background(), spec.Axes{
		Algo: "cdpf", Density: density, Seed: seed, Targets: n,
	}.Normalized())
	if err != nil {
		return 0, 0, 0, err
	}
	return mathx.RMS(out.Result.Errors), out.MeanLiveTracks, float64(out.Result.Comm.TotalBytes()), nil
}

// multiObserve returns each in-range node's bearing to its nearest target.
// Observations are emitted in node-ID order: map iteration order would leak
// into the measurement-noise stream and make runs nondeterministic.
func multiObserve(nw *wsn.Network, sensor statex.BearingSensor, targets []mathx.Vec2, rng *mathx.RNG) []core.Observation {
	nearest := map[wsn.NodeID]mathx.Vec2{}
	for _, tg := range targets {
		for _, id := range nw.ActiveNodesWithin(tg, nw.Cfg.SensingRadius) {
			if prevT, ok := nearest[id]; !ok || nw.Node(id).Pos.Dist(tg) < nw.Node(id).Pos.Dist(prevT) {
				nearest[id] = tg
			}
		}
	}
	ids := make([]wsn.NodeID, 0, len(nearest))
	for id := range nearest {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	obs := make([]core.Observation, 0, len(ids))
	for _, id := range ids {
		obs = append(obs, core.Observation{Node: id, Bearing: sensor.Measure(nw.Node(id).Pos, nearest[id], rng)})
	}
	return obs
}
