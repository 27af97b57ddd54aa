package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/multi"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/statex"
	"repro/internal/trace"
	"repro/internal/wsn"
)

// CellOutcome is everything one spec cell's run produced: the per-iteration
// trace, the metrics result, and the scenario/configuration facts a CLI
// header or manifest wants to report. It is a pure function of the cell's
// axes — same axes, same bytes — which is what lets any matrix cell re-run
// standalone and byte-match.
type CellOutcome struct {
	Axes spec.Axes
	// Trace holds one record per filter iteration. For multi-target cells
	// the trace follows the lead target (lane 0); Holders carries the live
	// track count there.
	Trace trace.Recorder
	// Result is the metrics view of the run: Algo/Density/Seed are the
	// cell's raw axes — experiment-specific relabeling (loss % in Density,
	// "cdpf+def/stuck" algo labels) is the caller's business.
	Result metrics.RunResult

	// Hardened reports whether a cdpf-family cell ran the graceful-
	// degradation config; Defended whether the sensing defenses were on.
	Hardened bool
	Defended bool

	// Scenario facts for headers and manifests.
	Nodes          int
	FieldW, FieldH float64
	NetDensity     float64
	SensingR       float64
	CommR          float64
	FaultySensors  int
	// FailStopVictims / FailStopTime describe the mid-run fail-stop event
	// (zero victims when the cell has none); DownAtEnd is the schedule's
	// down count after the run.
	FailStopVictims int
	FailStopTime    float64
	DownAtEnd       int

	// Resilience and Quarantine are the tracker's counters (cdpf cells
	// only; nil otherwise, and Quarantine only when the defenses ran).
	Resilience *core.ResilienceStats
	Quarantine *core.QuarantineStats

	// AwakeShare is the mean awake-node fraction (duty-cycled cells; 1 for
	// always-on). MeanLiveTracks is the mean live-track count (multi-target
	// cells; 0 otherwise).
	AwakeShare     float64
	MeanLiveTracks float64
}

// baselineFilter is the step the comparison baselines (CPF, SDPF, DPF, EKF)
// share: one iteration's observations in, the estimate for that iteration
// out.
type baselineFilter interface {
	Step(obs []core.Observation, rng *mathx.RNG) (mathx.Vec2, bool)
}

// RunCell executes one fully resolved spec cell and returns its outcome.
// It is the single tracking loop behind cdpfsim (flag- and spec-driven),
// cdpfmatrix and every cell-shaped benchtab sweep: every axis composition —
// loss × fail-stop × sensor faults × defense × mobility × duty cycle, any
// algorithm — runs through it, and a sweep is a grid of cells relabeled for
// its table. ctx cancels the iteration loop at the next step boundary.
func RunCell(ctx context.Context, ax spec.Axes) (*CellOutcome, error) {
	return runCell(ctx, ax, nil)
}

// runCell is RunCell with an optional tracker-config override for
// cdpf-family cells (the design ablation's variants); nil runs the config
// the axes resolve to.
func runCell(ctx context.Context, ax spec.Axes, cfg *core.Config) (*CellOutcome, error) {
	ax = ax.Normalized()
	if err := ax.Validate(); err != nil {
		return nil, err
	}
	if ax.Targets > 1 {
		return runMultiCell(ctx, ax)
	}
	sc, faults, err := ax.Build()
	if err != nil {
		return nil, err
	}
	out := &CellOutcome{
		Axes:       ax,
		Hardened:   ax.IsCDPF() && ax.HardenedResolved(),
		Defended:   ax.Defend,
		Nodes:      sc.Net.Len(),
		FieldW:     sc.Net.Cfg.Width,
		FieldH:     sc.Net.Cfg.Height,
		NetDensity: sc.Net.Density(),
		SensingR:   sc.Net.Cfg.SensingRadius,
		CommR:      sc.Net.Cfg.CommRadius,
		AwakeShare: 1,
	}
	if sc.SensorFaults != nil {
		out.FaultySensors = len(sc.SensorFaults.FaultyNodes())
	}
	if ax.FailFrac > 0 {
		out.FailStopTime = sc.Filter.Times[sc.Iterations()/2]
		for _, ev := range faults.Events() {
			if ev.Kind == wsn.FailStop {
				out.FailStopVictims += len(ev.Nodes)
			}
		}
	}
	res := metrics.RunResult{
		Algo:       ax.Algo,
		Density:    ax.Density,
		Seed:       ax.Seed,
		Iterations: sc.Iterations(),
		Errors:     make([]float64, 0, sc.Iterations()),
	}

	// A cdpf-family cell steps tr, a baseline cell steps base; each
	// algorithm draws from its own stream of the scenario.
	var (
		tr       *core.Tracker
		base     baselineFilter
		rng      *mathx.RNG
		lastStep core.StepResult
	)
	switch ax.Algo {
	case "cdpf", "cdpf-ne":
		if cfg == nil {
			c, err := ax.TrackerConfig()
			if err != nil {
				return nil, err
			}
			cfg = &c
		}
		tr, err = core.NewTracker(sc.Net, *cfg)
		rng = sc.RNG(1)
	case "cpf":
		base, err = baseline.NewCPF(sc.Net, baseline.DefaultCPFConfig())
		rng = sc.RNG(2)
	case "sdpf":
		base, err = baseline.NewSDPF(sc.Net, baseline.DefaultSDPFConfig())
		rng = sc.RNG(3)
	case "dpf":
		base, err = baseline.NewDPF(sc.Net, baseline.DefaultDPFConfig())
		rng = sc.RNG(4)
	case "ekf":
		base, err = baseline.NewEKFTracker(sc.Net, baseline.DefaultEKFConfig())
		rng = sc.RNG(5)
	default:
		return nil, fmt.Errorf("experiments: unknown algorithm %q", ax.Algo)
	}
	if err != nil {
		return nil, err
	}

	// Duty-cycled cells run the energy model and the TDSS scheduler; the
	// duty-cycle phase stream is sc.RNG(50).
	var scheduler *sched.Scheduler
	if ax.Duty > 0 {
		sc.Net.Energy = wsn.DefaultEnergyModel()
		dc, err := sched.NewDutyCycle(sc.Net.Len(), 10, ax.Duty, sc.RNG(50))
		if err != nil {
			return nil, err
		}
		scheduler = sched.NewScheduler(sc.Net, dc)
	}
	// Mobile cells drift every node before each iteration from the
	// dedicated stream sc.RNG(60).
	var driftRNG *mathx.RNG
	if ax.Mobility > 0 {
		driftRNG = sc.RNG(60)
	}

	out.Trace = trace.Recorder{
		Algo: ax.Algo, Density: ax.Density, Seed: ax.Seed,
		Records: make([]trace.Record, 0, sc.Iterations()),
	}
	valid := make([]bool, sc.Iterations())
	awakeSum := 0.0
	for k := 0; k < sc.Iterations(); k++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("interrupted at iteration %d: %w", k, err)
		}
		now := sc.Filter.Times[k]
		faults.ApplyUntil(sc.Net, now)
		if scheduler != nil {
			scheduler.Apply(now)
			// TDSS proactive wake-up: a particle-holding node beacons the
			// predicted area before the target arrives.
			if lastStep.PredictedValid {
				beacon := wsn.NodeID(-1)
				if hs := tr.Holders(); len(hs) > 0 {
					beacon = hs[0]
				}
				wakeR := sc.Net.Cfg.SensingRadius + 3*sc.P.Target.Speed*sc.P.Dt/2
				scheduler.ProactiveWake(beacon, lastStep.Predicted, wakeR, now+sc.P.Dt)
			}
			awakeSum += float64(scheduler.AwakeCount()) / float64(sc.Net.Len())
		}
		if driftRNG != nil {
			sc.Net.ApplyDrift(ax.Mobility, driftRNG)
		}
		before := sc.Net.Stats.Snapshot()
		obs := sc.Observations(k)
		// The estimate is for iteration forK; holders is -1 when the
		// algorithm has no notion of particle-holding nodes.
		var est mathx.Vec2
		var ok bool
		forK, holders := k, -1
		if tr != nil {
			lastStep = tr.Step(obs, rng)
			// CDPF's correction step estimates the previous iteration.
			est, ok, forK, holders = lastStep.Estimate, lastStep.EstimateValid && k >= 1, k-1, lastStep.Holders
		} else {
			est, ok = base.Step(obs, rng)
		}
		valid[k] = ok
		d := sc.Net.Stats.Diff(before)
		r := trace.Record{
			K: k, Time: now,
			TruthX: sc.Truth(k).X, TruthY: sc.Truth(k).Y,
			Detectors: len(obs), Holders: holders,
			MsgsDelta: d.TotalMsgs(), BytesDelta: d.TotalBytes(),
		}
		if ok && forK >= 0 {
			e := est.Dist(sc.Truth(forK))
			res.Errors = append(res.Errors, e)
			r.HaveEst, r.EstForK, r.EstX, r.EstY, r.Err = true, forK, est.X, est.Y, e
		}
		out.Trace.Add(r)
		if scheduler != nil {
			// Idle/sleep energy for this filter period.
			for _, nd := range sc.Net.Nodes {
				switch nd.State {
				case wsn.Awake:
					nd.EnergyUsed += sc.Net.Energy.IdleCost(sc.P.Dt)
				case wsn.Asleep:
					nd.EnergyUsed += sc.Net.Energy.SleepCost(sc.P.Dt)
				}
			}
		}
	}
	res.LossEpisodes, res.ReacquireIters, res.LockedFrac = metrics.TrackEpisodes(valid)
	res.Comm = sc.Net.Stats.Snapshot()
	res.Energy = sc.Net.TotalEnergy()
	if tr != nil {
		rs := tr.Resilience()
		out.Resilience = &rs
		if ax.Defend {
			q := tr.Quarantine()
			out.Quarantine = &q
			res.QuarantineTracked = true
			res.GatedTerms = q.Gated
			res.QuarantineEvictions = q.Evictions
			res.QuarantinePrecision, res.QuarantineRecall = quarantineScore(q, sc.SensorFaults)
		}
	}
	if scheduler != nil {
		out.AwakeShare = awakeSum / float64(sc.Iterations())
	}
	out.DownAtEnd = faults.DownCount()
	out.Result = res
	return out, nil
}

// runMultiCell executes a Targets > 1 cell: n targets on staggered lanes
// tracked by the per-track CDPF fleet — the MultiTargetExperiment run,
// producing a lead-target trace alongside the full per-target error set.
func runMultiCell(ctx context.Context, ax spec.Axes) (*CellOutcome, error) {
	sc, _, err := ax.Build()
	if err != nil {
		return nil, err
	}
	mgr, err := multi.NewManager(sc.Net, multi.DefaultConfig(false))
	if err != nil {
		return nil, err
	}
	sensor := statex.BearingSensor{SigmaN: sc.P.SigmaN}
	noise := sc.RNG(20)
	rng := sc.RNG(21)
	n := ax.Targets

	// Lanes at least 50 m apart so tracks stay distinguishable.
	lane := func(i int) float64 { return 50 + 100*float64(i)/math.Max(1, float64(n-1)) }
	if n == 1 {
		lane = func(int) float64 { return 100 }
	}
	positions := make([]mathx.Vec2, n)
	for i := range positions {
		positions[i] = mathx.V2(10, lane(i))
	}
	vel := mathx.V2(sc.P.Target.Speed, 0)

	out := &CellOutcome{
		Axes:       ax,
		Nodes:      sc.Net.Len(),
		FieldW:     sc.Net.Cfg.Width,
		FieldH:     sc.Net.Cfg.Height,
		NetDensity: sc.Net.Density(),
		SensingR:   sc.Net.Cfg.SensingRadius,
		CommR:      sc.Net.Cfg.CommRadius,
		AwakeShare: 1,
	}
	res := metrics.RunResult{
		Algo:       ax.Algo,
		Density:    ax.Density,
		Seed:       ax.Seed,
		Iterations: sc.Iterations(),
	}
	out.Trace = trace.Recorder{Algo: ax.Algo, Density: ax.Density, Seed: ax.Seed}
	var trackSum, iters float64
	var prev []mathx.Vec2
	valid := make([]bool, sc.Iterations())
	for k := 0; k < sc.Iterations(); k++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("interrupted at iteration %d: %w", k, err)
		}
		before := sc.Net.Stats.Snapshot()
		obs := multiObserve(sc.Net, sensor, positions, noise)
		tracks := mgr.Step(obs, rng)
		trackSum += float64(len(tracks))
		iters++
		r := trace.Record{
			K: k, Time: sc.Filter.Times[k],
			TruthX: positions[0].X, TruthY: positions[0].Y,
			Detectors: len(obs), Holders: len(tracks),
		}
		if k >= 2 && prev != nil {
			for ti, tg := range prev {
				best := math.Inf(1)
				for _, trk := range tracks {
					if trk.EstimateValid {
						if d := trk.Estimate.Dist(tg); d < best {
							best = d
						}
					}
				}
				if !math.IsInf(best, 1) {
					res.Errors = append(res.Errors, best)
					if ti == 0 {
						valid[k] = true
						r.HaveEst, r.EstForK, r.Err = true, k-1, best
						// The trace wants the matched position, not just the
						// distance: re-find the lead target's nearest track.
						for _, trk := range tracks {
							if trk.EstimateValid && trk.Estimate.Dist(tg) == best {
								r.EstX, r.EstY = trk.Estimate.X, trk.Estimate.Y
								break
							}
						}
					}
				}
			}
		}
		d := sc.Net.Stats.Diff(before)
		r.MsgsDelta, r.BytesDelta = d.TotalMsgs(), d.TotalBytes()
		out.Trace.Add(r)
		prev = append(prev[:0], positions...)
		for i := range positions {
			positions[i] = positions[i].Add(vel.Scale(sc.P.Dt))
		}
	}
	res.LossEpisodes, res.ReacquireIters, res.LockedFrac = metrics.TrackEpisodes(valid)
	res.Comm = sc.Net.Stats.Snapshot()
	res.Energy = sc.Net.TotalEnergy()
	out.MeanLiveTracks = trackSum / iters
	out.Result = res
	return out, nil
}
