package baseline

import (
	"math"

	"repro/internal/filter"
	"repro/internal/mathx"
	"repro/internal/statex"
)

// The sink filter's constants of the method (Section VI's CPF).
const (
	// sinkParticles is the sink's particle count (the paper: 1000).
	sinkParticles = 1000
	// sinkSigmaV is the process-noise standard deviation the filter assumes
	// for the CV proposal (the paper: 0.05).
	sinkSigmaV = 0.05
	// initSpread is the stddev (m) of the initial particle cloud around the
	// first detection centroid.
	initSpread = 5.0
	// maxSpeed bounds the speed prior (m/s) for initial velocities.
	maxSpeed = 5.0
	// posJitter is the post-prediction position roughening stddev (m), the
	// standard regularized-PF defence against sample impoverishment.
	posJitter = 1.0
	// velJitter is the velocity roughening stddev (m/s); the paper's
	// process noise (0.05 m/s) cannot follow the ±15°/s maneuvering target.
	velJitter = 0.5
	// temperCount caps the effective number of independent bearings in the
	// joint likelihood: with M > temperCount measurements the joint
	// log-likelihood is scaled by temperCount/M (a log opinion pool).
	// Dozens of bearings of the same target are strongly correlated;
	// treating them as independent makes the posterior so sharp that a
	// 1000-particle SIR collapses to a single sample per iteration and the
	// velocity marginal never converges.
	temperCount = 5
	// anchorFraction is the share of particles proposed from the
	// measurement-anchored importance density q(x_k | x_{k-1}, z_k): the
	// sink knows every reporting node's position, and their centroid
	// estimates the target within ~r_s/sqrt(M); anchored particles draw
	// their position around that centroid and derive their velocity from
	// the realized displacement. Without this, the prior proposal cannot
	// cover the maneuvering target and the filter diverges (bearings-only
	// SIR with a near-deterministic CV prior is a known divergence case).
	anchorFraction = 0.3
	// anchorSpread is the stddev (m) of anchored position proposals around
	// the reporting-node centroid.
	anchorSpread = 3.0
)

// sinkFilter is the SIR machinery shared by the centralized baselines (CPF
// and DPF): a particle filter over continuous states at the sink, fed by the
// measurements that survived the convergecast. It implements the
// measurement-anchored importance density and likelihood tempering described
// on the constants above.
type sinkFilter struct {
	cfg   CPFConfig
	model *statex.CVModel
	pf    *filter.SIR
	init  bool
}

func newSinkFilter(cfg CPFConfig) (*sinkFilter, error) {
	model, err := statex.NewCVModel(cfg.Dt, sinkSigmaV, sinkSigmaV)
	if err != nil {
		return nil, err
	}
	pf, err := filter.NewSIR(filter.SIRConfig{N: sinkParticles})
	if err != nil {
		return nil, err
	}
	return &sinkFilter{cfg: cfg, model: model, pf: pf}, nil
}

// step advances the filter with the given measurements (already delivered to
// the sink) using the given effective bearing noise. It returns the
// posterior-mean position estimate; ok is false until first initialization.
func (f *sinkFilter) step(ms []statex.Measurement, sigmaEff float64, rng *mathx.RNG) (mathx.Vec2, bool) {
	if !f.init {
		if len(ms) == 0 {
			return mathx.Vec2{}, false
		}
		f.initialize(ms, rng)
		f.init = true
		return f.pf.Particles().MeanPos(), true
	}

	// Measurement anchor: the centroid of the reporting nodes estimates the
	// target position within roughly r_s/sqrt(M).
	var anchor mathx.Vec2
	haveAnchor := len(ms) > 0
	if haveAnchor {
		for _, m := range ms {
			anchor = anchor.Add(m.From)
		}
		anchor = anchor.Scale(1 / float64(len(ms)))
	}
	propose := func(s statex.State, r *mathx.RNG) statex.State {
		if haveAnchor && r.Float64() < anchorFraction {
			pos := anchor.Add(mathx.V2(r.Normal(0, anchorSpread), r.Normal(0, anchorSpread)))
			vel := pos.Sub(s.Pos).Scale(1 / f.cfg.Dt)
			return statex.State{Pos: pos, Vel: vel}
		}
		next := f.model.Step(s, r)
		next.Pos = next.Pos.Add(mathx.V2(r.Normal(0, posJitter), r.Normal(0, posJitter)))
		next.Vel = next.Vel.Add(mathx.V2(r.Normal(0, velJitter), r.Normal(0, velJitter)))
		return next
	}
	temper := 1.0
	if len(ms) > temperCount {
		temper = float64(temperCount) / float64(len(ms))
	}
	sensor := statex.BearingSensor{SigmaN: sigmaEff}
	loglik := func(cand statex.State) float64 {
		if len(ms) == 0 {
			return 0 // no information this iteration
		}
		return temper * sensor.JointLogLikelihood(ms, cand.Pos)
	}
	return f.pf.Step(propose, loglik, rng).Pos, true
}

// initialize seeds the particle cloud around the centroid of the first
// detections with a diffuse velocity prior.
func (f *sinkFilter) initialize(ms []statex.Measurement, rng *mathx.RNG) {
	var centroid mathx.Vec2
	for _, m := range ms {
		centroid = centroid.Add(m.From)
	}
	centroid = centroid.Scale(1 / float64(len(ms)))
	f.pf.Init(func(r *mathx.RNG) statex.State {
		pos := centroid.Add(mathx.V2(r.Normal(0, initSpread), r.Normal(0, initSpread)))
		vel := mathx.Polar(r.Uniform(0, maxSpeed), r.Uniform(-math.Pi, math.Pi))
		return statex.State{Pos: pos, Vel: vel}
	}, rng)
}
