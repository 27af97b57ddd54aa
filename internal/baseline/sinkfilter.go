package baseline

import (
	"math"

	"repro/internal/filter"
	"repro/internal/kernel"
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
	bk    kernel.Bearing // the sink's Gaussian bearing model (DESIGN.md §16)
	init  bool

	// The step's delivered measurements as flat kernel columns: reporting
	// node position (mx, my) and bearing (mz), reused across steps.
	mx, my, mz []float64
}

// newSinkFilter builds the sink filter scoring bearings at the effective
// noise sigmaEff (the sensor noise, plus quantization noise for DPF).
func newSinkFilter(cfg CPFConfig, sigmaEff float64) (*sinkFilter, error) {
	model, err := statex.NewCVModel(cfg.Dt, sinkSigmaV, sinkSigmaV)
	if err != nil {
		return nil, err
	}
	pf, err := filter.NewSIR(filter.SIRConfig{N: sinkParticles})
	if err != nil {
		return nil, err
	}
	return &sinkFilter{cfg: cfg, model: model, pf: pf, bk: kernel.NewBearing(sigmaEff, 0, 0, 0)}, nil
}

// reset empties the measurement columns for a step that delivers at most n
// measurements. The three columns share one backing array whose capacity
// only ever grows, so add never allocates.
func (f *sinkFilter) reset(n int) {
	if cap(f.mz) < n {
		buf := make([]float64, 3*n)
		f.mx, f.my, f.mz = buf[:0:n], buf[n:n:2*n], buf[2*n:2*n:3*n]
	}
	f.mx, f.my, f.mz = f.mx[:0], f.my[:0], f.mz[:0]
}

// add appends one delivered measurement: bearing z observed from `from`.
func (f *sinkFilter) add(from mathx.Vec2, z float64) {
	f.mx = append(f.mx, from.X)
	f.my = append(f.my, from.Y)
	f.mz = append(f.mz, z)
}

// centroid is the mean position of the reporting nodes.
func (f *sinkFilter) centroid() mathx.Vec2 {
	var c mathx.Vec2
	for i := range f.mz {
		c = c.Add(mathx.V2(f.mx[i], f.my[i]))
	}
	return c.Scale(1 / float64(len(f.mz)))
}

// step advances the filter with the measurements added since reset (those
// delivered to the sink). It returns the posterior-mean position estimate;
// ok is false until first initialization.
func (f *sinkFilter) step(rng *mathx.RNG) (mathx.Vec2, bool) {
	n := len(f.mz)
	if !f.init {
		if n == 0 {
			return mathx.Vec2{}, false
		}
		f.initialize(rng)
		f.init = true
		return f.pf.Particles().MeanPos(), true
	}

	// Measurement anchor: the centroid of the reporting nodes estimates the
	// target position within roughly r_s/sqrt(M).
	var anchor mathx.Vec2
	haveAnchor := n > 0
	if haveAnchor {
		anchor = f.centroid()
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
	if n > temperCount {
		temper = float64(temperCount) / float64(n)
	}
	loglik := func(cand statex.State) float64 {
		if n == 0 {
			return 0 // no information this iteration
		}
		return temper * f.bk.JointLogLik(f.mx, f.my, f.mz, cand.Pos.X, cand.Pos.Y)
	}
	return f.pf.Step(propose, loglik, rng).Pos, true
}

// initialize seeds the particle cloud around the centroid of the first
// detections with a diffuse velocity prior.
func (f *sinkFilter) initialize(rng *mathx.RNG) {
	centroid := f.centroid()
	f.pf.Init(func(r *mathx.RNG) statex.State {
		pos := centroid.Add(mathx.V2(r.Normal(0, initSpread), r.Normal(0, initSpread)))
		vel := mathx.Polar(r.Uniform(0, maxSpeed), r.Uniform(-math.Pi, math.Pi))
		return statex.State{Pos: pos, Vel: vel}
	}, rng)
}
