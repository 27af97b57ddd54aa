package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/spec"
	"repro/internal/wsn"
)

// cdpfPair is the two CDPF variants the extension sweeps compare.
var cdpfPair = []Algo{AlgoCDPF, AlgoCDPFNE}

// FailureSweep runs CDPF and CDPF-NE under increasing random permanent node
// failures (the paper's future-work item 1: "evaluate CDPF's tolerance to
// uncertain factors"). It returns one RunResult per (fraction, algo, seed);
// Density stores the failure fraction in percent for grouping.
func (e Exec) FailureSweep(density float64, fracs []float64, seeds []uint64) ([]metrics.RunResult, error) {
	grid := axisGrid(fracs, cdpfPair, seeds, func(ax *spec.Axes, f float64) { ax.Density, ax.Fail = density, f })
	return e.sweep(grid, func(r *metrics.RunResult, ax spec.Axes) { r.Density = 100 * ax.Fail })
}

// FailureTable renders the failure sweep: RMSE per failure fraction.
func FailureTable(aggs []metrics.Aggregate) *report.Table {
	t := sweepTable(aggs, "Extension — RMSE vs random node failures (density 20)",
		func(a metrics.Aggregate) float64 { return a.MeanRMSE })
	t.Headers[0] = "fail %"
	return t
}

// SleepSweep is FailureSweep's sibling for unanticipated random sleeping
// (nodes asleep for the whole run without any schedule the estimator could
// anticipate — the adverse case for CDPF-NE identified in Section V-D).
func (e Exec) SleepSweep(density float64, fracs []float64, seeds []uint64) ([]metrics.RunResult, error) {
	grid := axisGrid(fracs, cdpfPair, seeds, func(ax *spec.Axes, f float64) { ax.Density, ax.Sleep = density, f })
	return e.sweep(grid, func(r *metrics.RunResult, ax spec.Axes) { r.Density = 100 * ax.Sleep })
}

// LossSweep evaluates CDPF and SDPF under unreliable links: each delivery
// independently fails with the given probabilities, and CDPF runs as
// shipped (no graceful-degradation hardening). The Density field of the
// returned results stores the loss percentage for grouping.
func (e Exec) LossSweep(density float64, rates []float64, seeds []uint64) ([]metrics.RunResult, error) {
	grid := axisGrid(rates, []Algo{AlgoCDPF, AlgoSDPF}, seeds, func(ax *spec.Axes, rate float64) {
		ax.Density, ax.Loss, ax.Hardened = density, rate, "off"
	})
	return e.sweep(grid, func(r *metrics.RunResult, ax spec.Axes) { r.Density = 100 * ax.Loss })
}

// LossTable renders the loss sweep: RMSE per loss rate.
func LossTable(aggs []metrics.Aggregate) *report.Table {
	t := sweepTable(aggs, "Extension — RMSE vs packet loss rate (density 20)",
		func(a metrics.Aggregate) float64 { return a.MeanRMSE })
	t.Headers[0] = "loss %"
	return t
}

// MobilitySweep evaluates CDPF and CDPF-NE over a slowly mobile field
// (Section V-D's "mobile WSN" caveat): before each filter iteration every
// node drifts by a Gaussian step of the given per-iteration sigma. Node
// positions are assumed re-shared every iteration (the best case for
// CDPF-NE's prerequisite); the residual degradation comes from particles
// drifting under their host nodes. The Density field of the results stores
// the drift sigma for grouping.
func (e Exec) MobilitySweep(density float64, sigmas []float64, seeds []uint64) ([]metrics.RunResult, error) {
	grid := axisGrid(sigmas, cdpfPair, seeds, func(ax *spec.Axes, sigma float64) {
		ax.Density, ax.Mobility = density, sigma
	})
	return e.sweep(grid, func(r *metrics.RunResult, ax spec.Axes) { r.Density = ax.Mobility })
}

// MobilityTable renders the mobility sweep.
func MobilityTable(aggs []metrics.Aggregate) *report.Table {
	t := sweepTable(aggs, "Extension — RMSE vs per-iteration node drift (density 20)",
		func(a metrics.Aggregate) float64 { return a.MeanRMSE })
	t.Headers[0] = "drift_m"
	return t
}

// DutyCycleResult summarizes the duty-cycling/TDSS energy experiment.
type DutyCycleResult struct {
	Mode       string  // "always-on" or "duty-cycled"
	RMSE       float64 // tracking error (m)
	Estimates  int
	Bytes      int64
	EnergyJ    float64 // total radio+idle energy in joules
	AwakeShare float64 // mean fraction of nodes awake
}

// DutyCycleEnergy compares CDPF on an always-on network against a
// duty-cycled network with TDSS-style proactive wake-up of the predicted
// area (Section III-C): tracking quality should be preserved while idle
// energy drops with the duty cycle. The duty-cycled row is a duty cell.
func DutyCycleEnergy(density float64, seed uint64, onFraction float64) ([]DutyCycleResult, error) {
	always, err := alwaysOnEnergy(density, seed)
	if err != nil {
		return nil, err
	}
	out, err := RunCell(context.Background(), spec.Axes{Algo: "cdpf", Density: density, Seed: seed, Duty: onFraction})
	if err != nil {
		return nil, err
	}
	duty := DutyCycleResult{
		Mode:       fmt.Sprintf("duty-cycled %.0f%%+TDSS", 100*onFraction),
		RMSE:       out.Result.RMSE(),
		Estimates:  len(out.Result.Errors),
		Bytes:      out.Result.Comm.TotalBytes(),
		EnergyJ:    out.Result.Energy / 1e6,
		AwakeShare: out.AwakeShare,
	}
	return []DutyCycleResult{always, duty}, nil
}

// alwaysOnEnergy is DutyCycleEnergy's baseline row: CDPF with every node
// awake for the whole run and the energy model charging its idle time. It
// is not a duty cell — a duty of 1 would add the TDSS wake-up beacons.
func alwaysOnEnergy(density float64, seed uint64) (DutyCycleResult, error) {
	sc, err := scenario.Build(scenario.Default(density, seed))
	if err != nil {
		return DutyCycleResult{}, err
	}
	sc.Net.Energy = wsn.DefaultEnergyModel()
	tr, err := core.NewTracker(sc.Net, core.DefaultConfig(false))
	if err != nil {
		return DutyCycleResult{}, err
	}
	rng := sc.RNG(1)
	var errs []float64
	for k := 0; k < sc.Iterations(); k++ {
		r := tr.Step(sc.Observations(k), rng)
		if r.EstimateValid && k >= 1 {
			errs = append(errs, r.Estimate.Dist(sc.Truth(k-1)))
		}
		for _, nd := range sc.Net.Nodes {
			nd.EnergyUsed += sc.Net.Energy.IdleCost(sc.P.Dt)
		}
	}
	return DutyCycleResult{
		Mode:       "always-on",
		RMSE:       mathx.RMS(errs),
		Estimates:  len(errs),
		Bytes:      sc.Net.Stats.TotalBytes(),
		EnergyJ:    sc.Net.TotalEnergy() / 1e6,
		AwakeShare: 1,
	}, nil
}

// DutyCycleTable renders the energy comparison.
func DutyCycleTable(results []DutyCycleResult) *report.Table {
	t := report.NewTable("Extension — duty cycling with TDSS proactive wake-up",
		"mode", "rmse_m", "estimates", "bytes", "energy_J", "awake_share")
	for _, r := range results {
		t.AddRow(r.Mode, r.RMSE, r.Estimates, r.Bytes, r.EnergyJ, r.AwakeShare)
	}
	return t
}

// AblationResult is one row of a design-choice ablation.
type AblationResult struct {
	Variant string
	RMSE    float64
	Bytes   float64
}

// DesignAblation evaluates the CDPF design choices DESIGN.md calls out:
// shared vs per-particle predicted areas, velocity smoothing, the
// quantization-aware likelihood, and the NE detection boost. Each variant
// runs the seeds as cells with its tracker config.
func (e Exec) DesignAblation(density float64, seeds []uint64) ([]AblationResult, error) {
	tweak := func(ne bool, edit func(*core.Config)) core.Config {
		c := core.DefaultConfig(ne)
		edit(&c)
		return c
	}
	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"cdpf default (shared areas)", core.DefaultConfig(false)},
		{"cdpf per-particle areas", tweak(false, func(c *core.Config) { c.PerParticleAreas = true })},
		{"cdpf no velocity smoothing", tweak(false, func(c *core.Config) { c.VelSmoothing = -1 })},
		{"cdpf no quantization sigma", tweak(false, func(c *core.Config) { c.QuantSigma = -1 })},
		{"cdpf-ne default (boost on)", core.DefaultConfig(true)},
		{"cdpf-ne no detection boost", tweak(true, func(c *core.Config) { c.NEDetectBoost = 1 })},
	}
	var out []AblationResult
	for _, v := range variants {
		algo := AlgoCDPF
		if v.cfg.UseNE {
			algo = AlgoCDPFNE
		}
		outs, err := e.runGrid(axisGrid([]float64{density}, []Algo{algo}, seeds, setDensity), &v.cfg)
		if err != nil {
			return nil, err
		}
		var rmses, bts []float64
		for _, o := range outs {
			rmses = append(rmses, o.Result.RMSE())
			bts = append(bts, float64(o.Result.Comm.TotalBytes()))
		}
		out = append(out, AblationResult{
			Variant: v.name,
			RMSE:    mathx.Mean(rmses),
			Bytes:   mathx.Mean(bts),
		})
	}
	return out, nil
}

// AblationTable renders the ablation rows.
func AblationTable(results []AblationResult) *report.Table {
	t := report.NewTable("Extension — CDPF design-choice ablation (density 20, seed-averaged)",
		"variant", "rmse_m", "bytes")
	for _, r := range results {
		t.AddRow(r.Variant, r.RMSE, r.Bytes)
	}
	return t
}

// LatencyComparison computes the protocol-model latency (interference-free
// slots per iteration) of CPF's convergecast versus CDPF's one-hop
// propagation — the paper's "long delay" argument against centralized
// collection, quantified.
func LatencyComparison(density float64, seed uint64) (*report.Table, error) {
	sc, err := scenario.Build(scenario.Default(density, seed))
	if err != nil {
		return nil, err
	}
	pm := sc.Net.NewProtocolModel(0)
	tr, err := core.NewTracker(sc.Net, core.DefaultConfig(false))
	if err != nil {
		return nil, err
	}
	rng := sc.RNG(1)
	t := report.NewTable(
		fmt.Sprintf("Extension — per-iteration latency in protocol-model slots (density %g)", density),
		"k", "cpf_convergecast_slots", "cdpf_broadcast_slots")
	for k := 0; k < sc.Iterations(); k++ {
		obs := sc.Observations(k)
		holders := tr.Holders()
		var txs []mathx.Vec2
		for _, id := range holders {
			txs = append(txs, sc.Net.Node(id).Pos)
		}
		cdpfSlots := len(pm.ScheduleBroadcasts(txs))
		// CPF: the sink decodes one report per slot; every measuring node's
		// report takes at least hop-count slots serialized at the sink.
		cpfSlots := pm.ConvergecastSlots(len(obs))
		t.AddRow(k, cpfSlots, cdpfSlots)
		tr.Step(obs, rng)
	}
	return t, nil
}
