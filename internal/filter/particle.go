// Package filter is a generic sequential Monte Carlo (particle filter)
// library: weighted particle sets, the four canonical resampling schemes,
// a sampling-importance-resampling (SIR) filter, and Kalman/extended-Kalman
// reference filters.
//
// All of the tracking algorithms in this repository (CPF, SDPF, CDPF,
// CDPF-NE) are built from these primitives; the distributed variants differ
// only in where the particles live and how weights are aggregated.
package filter

import (
	"math"

	"repro/internal/mathx"
	"repro/internal/statex"
)

// Particle is one weighted sample of the posterior.
type Particle struct {
	State statex.State
	W     float64
}

// Set is an ordered collection of particles. The zero value is an empty set.
type Set struct {
	P []Particle
}

// NewSet returns a set with capacity for n particles.
func NewSet(n int) *Set { return &Set{P: make([]Particle, 0, n)} }

// Len returns the number of particles.
func (s *Set) Len() int { return len(s.P) }

// Add appends a particle.
func (s *Set) Add(p Particle) { s.P = append(s.P, p) }

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{P: make([]Particle, len(s.P))}
	copy(c.P, s.P)
	return c
}

// TotalWeight returns the sum of all particle weights.
func (s *Set) TotalWeight() float64 {
	t := 0.0
	for i := range s.P {
		t += s.P[i].W
	}
	return t
}

// Normalize scales the weights to sum to 1 and returns the pre-normalization
// total. When the total is zero or non-finite (full degeneracy), weights are
// reset to uniform and 0 is returned.
func (s *Set) Normalize() float64 {
	total := s.TotalWeight()
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		if len(s.P) > 0 {
			u := 1.0 / float64(len(s.P))
			for i := range s.P {
				s.P[i].W = u
			}
		}
		return 0
	}
	inv := 1 / total
	for i := range s.P {
		s.P[i].W *= inv
	}
	return total
}

// NormalizeWith divides every weight by the externally supplied total. CDPF
// uses this form: the total is obtained by overhearing during particle
// propagation rather than by local summation.
func (s *Set) NormalizeWith(total float64) {
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		if len(s.P) > 0 {
			u := 1.0 / float64(len(s.P))
			for i := range s.P {
				s.P[i].W = u
			}
		}
		return
	}
	inv := 1 / total
	for i := range s.P {
		s.P[i].W *= inv
	}
}

// ESS returns the effective sample size 1 / Σ w_i² of the *normalized*
// weights. The set is not modified; weights are normalized internally for
// the computation. An empty set has ESS 0.
func (s *Set) ESS() float64 {
	total := s.TotalWeight()
	if total <= 0 || len(s.P) == 0 {
		return 0
	}
	sumSq := 0.0
	for i := range s.P {
		w := s.P[i].W / total
		sumSq += w * w
	}
	if sumSq == 0 {
		return 0
	}
	return 1 / sumSq
}

// MeanPos returns the weighted mean position — the filter's point estimate.
// It returns the zero vector for an empty or zero-weight set.
func (s *Set) MeanPos() mathx.Vec2 {
	total := s.TotalWeight()
	if total <= 0 {
		return mathx.Vec2{}
	}
	var acc mathx.Vec2
	for i := range s.P {
		acc = acc.Add(s.P[i].State.Pos.Scale(s.P[i].W))
	}
	return acc.Scale(1 / total)
}

// MeanState returns the weighted mean of the full state.
func (s *Set) MeanState() statex.State {
	total := s.TotalWeight()
	if total <= 0 {
		return statex.State{}
	}
	var pos, vel mathx.Vec2
	for i := range s.P {
		pos = pos.Add(s.P[i].State.Pos.Scale(s.P[i].W))
		vel = vel.Add(s.P[i].State.Vel.Scale(s.P[i].W))
	}
	inv := 1 / total
	return statex.State{Pos: pos.Scale(inv), Vel: vel.Scale(inv)}
}

// Weights returns a copy of the weight vector.
func (s *Set) Weights() []float64 {
	w := make([]float64, len(s.P))
	for i := range s.P {
		w[i] = s.P[i].W
	}
	return w
}

// MaxWeight returns the largest particle weight (0 for an empty set).
func (s *Set) MaxWeight() float64 {
	max := 0.0
	for i := range s.P {
		if s.P[i].W > max {
			max = s.P[i].W
		}
	}
	return max
}

// SetLogWeights assigns weights from log-space values using a stable
// log-sum-exp normalization, avoiding underflow when many small per-node
// likelihood factors are multiplied.
func (s *Set) SetLogWeights(logw []float64) {
	if len(logw) != len(s.P) {
		panic("filter: SetLogWeights length mismatch")
	}
	lse := mathx.LogSumExp(logw)
	if math.IsInf(lse, -1) {
		// All likelihoods underflowed: fall back to uniform.
		if len(s.P) > 0 {
			u := 1.0 / float64(len(s.P))
			for i := range s.P {
				s.P[i].W = u
			}
		}
		return
	}
	for i := range s.P {
		s.P[i].W = math.Exp(logw[i] - lse)
	}
}
