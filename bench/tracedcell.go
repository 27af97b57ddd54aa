package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mathx"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/version"
	"repro/internal/wsn"
)

// cellFacts is what the traced loop keeps from one cell.
type cellFacts struct {
	csv     []byte
	comm    wsn.CommStats
	resil   core.ResilienceStats
	holders []float64 // per-iteration particle holders (cdpf cells only)
}

// stepFunc runs iteration k on its observations and reports the estimate,
// the iteration it is for, its validity, and the holder count (-1 when the
// algorithm has no particle-holding nodes).
type stepFunc func(k int, obs []core.Observation) (mathx.Vec2, int, bool, int)

// tracedCell is the benchmark's copy of experiments.RunCell's single-target
// loop with a span around every call into a layer: the scenario build, the
// tracker or baseline constructor, and per iteration the fault schedule,
// the observations and the filter step; then the cell directory writes that
// RunMatrix performs. Its trace CSV must match RunCell's byte for byte; the
// caller checks that, so a drift between this copy and RunCell fails the
// traced run instead of skewing its numbers.
func tracedCell(ctx context.Context, t *tracer, parent int64, specName string, c spec.Cell, dir string) (*cellFacts, error) {
	ax := c.Axes.Normalized()
	if ax.Targets > 1 || ax.Duty > 0 || ax.Mobility > 0 {
		return nil, fmt.Errorf("cell %s: the traced loop covers single-target, always-on, static cells only", c.Name)
	}
	b := spanBuf{t: t}
	id := t.newID()
	cellStart := time.Now()

	s := time.Now()
	sc, faults, err := ax.Build()
	b.add("scenario.build", id, s, time.Now())
	if err != nil {
		return nil, err
	}

	s = time.Now()
	var step stepFunc
	var tr *core.Tracker
	newName, stepName := "baseline."+ax.Algo+".new", "baseline."+ax.Algo+".step"
	baselineStep := func(f func([]core.Observation, *mathx.RNG) (mathx.Vec2, bool), rng *mathx.RNG) stepFunc {
		return func(k int, obs []core.Observation) (mathx.Vec2, int, bool, int) {
			est, ok := f(obs, rng)
			return est, k, ok, -1
		}
	}
	switch ax.Algo {
	case "cdpf", "cdpf-ne":
		newName, stepName = "core.new", "core.step"
		cfg, err := ax.TrackerConfig()
		if err != nil {
			return nil, err
		}
		if tr, err = core.NewTracker(sc.Net, cfg); err != nil {
			return nil, err
		}
		rng := sc.RNG(1)
		step = func(k int, obs []core.Observation) (mathx.Vec2, int, bool, int) {
			r := tr.Step(obs, rng)
			return r.Estimate, k - 1, r.EstimateValid && k >= 1, r.Holders
		}
	case "cpf":
		f, err := baseline.NewCPF(sc.Net, baseline.DefaultCPFConfig())
		if err != nil {
			return nil, err
		}
		step = baselineStep(f.Step, sc.RNG(2))
	case "sdpf":
		f, err := baseline.NewSDPF(sc.Net, baseline.DefaultSDPFConfig())
		if err != nil {
			return nil, err
		}
		step = baselineStep(f.Step, sc.RNG(3))
	case "dpf":
		f, err := baseline.NewDPF(sc.Net, baseline.DefaultDPFConfig())
		if err != nil {
			return nil, err
		}
		step = baselineStep(f.Step, sc.RNG(4))
	case "ekf":
		f, err := baseline.NewEKFTracker(sc.Net, baseline.DefaultEKFConfig())
		if err != nil {
			return nil, err
		}
		step = baselineStep(f.Step, sc.RNG(5))
	default:
		return nil, fmt.Errorf("cell %s: unknown algorithm %q", c.Name, ax.Algo)
	}
	b.add(newName, id, s, time.Now())

	facts := &cellFacts{}
	rec := trace.New(ax.Algo, ax.Density, ax.Seed)
	for k := 0; k < sc.Iterations(); k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		faults.ApplyUntil(sc.Net, sc.Filter.Times[k])
		t1 := time.Now()
		before := sc.Net.Stats.Snapshot()
		detectors := len(sc.DetectingNodes(k))
		obs := sc.Observations(k)
		t2 := time.Now()
		est, forK, ok, holders := step(k, obs)
		t3 := time.Now()
		b.add("wsn.faults", id, t0, t1)
		b.add("scenario.observe", id, t1, t2)
		b.add(stepName, id, t2, t3)
		if holders >= 0 {
			facts.holders = append(facts.holders, float64(holders))
		}
		d := sc.Net.Stats.Diff(before)
		r := trace.Record{
			K: k, Time: sc.Filter.Times[k],
			TruthX: sc.Truth(k).X, TruthY: sc.Truth(k).Y,
			Detectors: detectors, Holders: holders,
			MsgsDelta: d.TotalMsgs(), BytesDelta: d.TotalBytes(),
		}
		if ok && forK >= 0 {
			e := est.Dist(sc.Truth(forK))
			r.HaveEst, r.EstForK, r.EstX, r.EstY, r.Err = true, forK, est.X, est.Y, e
		}
		rec.Add(r)
	}
	facts.comm = sc.Net.Stats.Snapshot()
	if tr != nil {
		facts.resil = tr.Resilience()
	}

	s = time.Now()
	var csv bytes.Buffer
	if err := rec.WriteCSV(&csv); err != nil {
		return nil, err
	}
	facts.csv = csv.Bytes()
	if err := writeCellDir(filepath.Join(dir, c.Name), specName, c, facts, rec, time.Since(cellStart)); err != nil {
		return nil, err
	}
	b.add("experiments.io", id, s, time.Now())
	b.addID(id, "experiments.cell", parent, cellStart, time.Now(), c.Name)
	b.flush()
	return facts, nil
}

// writeCellDir writes the three files RunMatrix leaves per cell: the trace
// CSV, the resolved single-cell spec, and the manifest.
func writeCellDir(dir, specName string, c spec.Cell, f *cellFacts, rec *trace.Recorder, wall time.Duration) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "trace.csv"), f.csv, 0o644); err != nil {
		return err
	}
	var cell bytes.Buffer
	if err := c.File(specName).Encode(&cell); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "cell.json"), cell.Bytes(), 0o644); err != nil {
		return err
	}
	m := experiments.Manifest{
		Schema: experiments.ManifestSchema, Spec: specName, Cell: c.Name, Seed: c.Axes.Seed,
		Version: version.String(), WallMS: wall.Milliseconds(), Complete: true,
		Iterations: rec.Len(), Msgs: f.comm.TotalMsgs(), Bytes: f.comm.TotalBytes(),
	}
	for _, r := range rec.Records {
		if r.HaveEst {
			m.Estimates++
		}
	}
	if rmse := rec.RMSE(); !math.IsNaN(rmse) {
		m.RMSE = &rmse
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), append(data, '\n'), 0o644)
}
