package filter

import (
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/statex"
)

// Proposal draws a particle's next state given its previous state (the
// importance density q(x_k | x_{k-1}, z_k)). SIR filters use the prior
// transition density as the proposal.
type Proposal func(prev statex.State, rng *mathx.RNG) statex.State

// LogLikelihood scores a candidate state against the current measurements,
// returning log p(z_k | x_k).
type LogLikelihood func(candidate statex.State) float64

// SIRConfig configures a sampling-importance-resampling filter.
type SIRConfig struct {
	N         int       // particle count N_s
	Resampler Resampler // resampling scheme; nil defaults to Systematic
	// ESSFraction triggers resampling when ESS < ESSFraction*N. The paper's
	// SIR filters resample every iteration, i.e. ESSFraction = 1 (any ESS
	// below N itself triggers; ESS == N only for perfectly uniform weights,
	// so in practice this resamples each step).
	ESSFraction float64
	// Regularize, when non-nil, applies kernel jitter after every
	// resampling event (the regularized PF of Musso et al.), restoring the
	// diversity that copying destroys.
	Regularize *Regularizer
}

// SIR is a centralized sampling-importance-resampling particle filter
// (Arulampalam et al.'s SIR; the paper's "generic PF" with prior proposal
// and per-iteration resampling). It is the computational core of the CPF
// baseline and the reference for cross-checking the distributed variants.
type SIR struct {
	cfg SIRConfig
	set *Set
	// logw is the per-step log-weight buffer, reused across Steps
	// (SetLogWeights copies, so reuse is safe).
	logw []float64
	// rb double-buffers resampling for the built-in schemes: its output
	// becomes the live particle slice, and the slice it replaces is the next
	// resampling's output buffer.
	rb resampleBuf
}

// NewSIR validates cfg and returns an uninitialized filter; call Init before
// the first Step.
func NewSIR(cfg SIRConfig) (*SIR, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("filter: SIR particle count must be positive, got %d", cfg.N)
	}
	if cfg.Resampler == nil {
		cfg.Resampler = Systematic{}
	}
	if cfg.ESSFraction < 0 || cfg.ESSFraction > 1 {
		return nil, fmt.Errorf("filter: SIR ESS fraction %v outside [0,1]", cfg.ESSFraction)
	}
	if cfg.ESSFraction == 0 {
		cfg.ESSFraction = 1 // paper default: resample every iteration
	}
	return &SIR{cfg: cfg}, nil
}

// Init draws the initial particle cloud from the supplied sampler.
func (f *SIR) Init(draw func(rng *mathx.RNG) statex.State, rng *mathx.RNG) {
	set := &Set{P: make([]Particle, f.cfg.N)}
	w := 1.0 / float64(f.cfg.N)
	for i := range set.P {
		set.P[i] = Particle{State: draw(rng), W: w}
	}
	f.set = set
}

// Particles exposes the live particle set (read-only by convention); every
// Step updates it in place.
func (f *SIR) Particles() *Set { return f.set }

// N returns the particle count N_s.
func (f *SIR) N() int { return f.cfg.N }

// Step runs one full SIR iteration — predict with the proposal, update with
// the measurement log-likelihood, resample if the ESS criterion fires, and
// return the posterior mean estimate.
func (f *SIR) Step(propose Proposal, loglik LogLikelihood, rng *mathx.RNG) statex.State {
	if f.set == nil {
		panic("filter: SIR.Step before Init")
	}
	// 1) Prediction: draw from the importance density.
	for i := range f.set.P {
		f.set.P[i].State = propose(f.set.P[i].State, rng)
	}
	// 2) Update: w_k ∝ w_{k-1} * p(z_k | x_k), done in log space.
	if cap(f.logw) < f.set.Len() {
		f.logw = make([]float64, f.set.Len())
	}
	logw := f.logw[:f.set.Len()]
	for i := range f.set.P {
		prior := f.set.P[i].W
		if prior <= 0 {
			prior = 1e-300
		}
		logw[i] = math.Log(prior) + loglik(f.set.P[i].State)
	}
	f.set.SetLogWeights(logw)
	// 3) Resampling when ESS falls below the threshold.
	if f.set.ESS() < f.cfg.ESSFraction*float64(f.cfg.N) {
		if c, ok := f.cfg.Resampler.(counter); ok {
			out := f.rb.resample(c, f.set, f.cfg.N, rng)
			f.rb.out, f.set.P = f.set.P, out
		} else {
			f.set = f.cfg.Resampler.Resample(f.set, f.cfg.N, rng)
		}
		if f.cfg.Regularize != nil {
			f.cfg.Regularize.Apply(f.set, rng)
		}
	}
	// 4) Estimation: posterior mean.
	return f.set.MeanState()
}
