// Package cluster implements the dynamic-clustering primitives CDPF borrows
// from the TDSS work (Jiang et al., IPDPS 2008): predicted areas around the
// predicted target position, the linear probability model that decides which
// neighbor nodes record propagated particles, and the weight-division ratios
// used when one particle is split across several recording nodes
// (Section III-B).
package cluster

import (
	"repro/internal/mathx"
)

// PredictedArea is the disc around the predicted target position within
// which neighbor nodes are likely to detect the target at the next
// iteration. With the paper's models its radius equals the sensing radius
// (it then coincides with Definition 1's "estimation area").
type PredictedArea struct {
	Center mathx.Vec2
	Radius float64
}

// Contains reports whether position p lies inside the area.
func (a PredictedArea) Contains(p mathx.Vec2) bool {
	return p.Dist2(a.Center) <= a.Radius*a.Radius
}

// Probability returns the linear probability model's detection likelihood
// for a node at position p: 1 at the predicted position, falling linearly to
// 0 at the area boundary and beyond.
func (a PredictedArea) Probability(p mathx.Vec2) float64 {
	if a.Radius <= 0 {
		return 0
	}
	d := p.Dist(a.Center)
	if d >= a.Radius {
		return 0
	}
	return 1 - d/a.Radius
}

// SelectRecorders filters the candidate positions to those the linear
// probability model admits as recorders (probability > 0, i.e. strictly
// inside the predicted area). It returns the indices of the selected
// candidates.
func (a PredictedArea) SelectRecorders(candidates []mathx.Vec2) []int {
	var out []int
	for i, p := range candidates {
		if a.Probability(p) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// DivisionRatios returns the normalized weight fractions for dividing one
// particle across the recording nodes at the given positions, following the
// paper's two division rules:
//  1. the divided weights sum to the original weight (ratios sum to 1), and
//  2. the ratio of any pair of divided weights equals the ratio of their
//     hosts' probabilities in the linear probability model.
//
// When every recorder has probability 0 (all on the boundary), the ratios
// fall back to uniform so that rule 1 still holds. An empty input returns
// nil.
func (a PredictedArea) DivisionRatios(positions []mathx.Vec2) []float64 {
	if len(positions) == 0 {
		return nil
	}
	return a.AppendDivisionRatios(make([]float64, 0, len(positions)), positions)
}

// AppendDivisionRatios is DivisionRatios appending into dst: it computes the
// same normalized fractions but allocates only when dst lacks capacity, so
// the per-broadcast division on the tracker's hot path reuses one buffer.
func (a PredictedArea) AppendDivisionRatios(dst []float64, positions []mathx.Vec2) []float64 {
	if len(positions) == 0 {
		return dst
	}
	start := len(dst)
	for _, p := range positions {
		dst = append(dst, a.Probability(p))
	}
	NormalizeRatios(dst[start:])
	return dst
}

// NormalizeRatios turns linear-model probabilities into division ratios in
// place: each is divided by their sum, accumulated in slice order, or all
// become uniform when the sum is not positive. A caller that already holds
// the recorders' probabilities gets the exact bits AppendDivisionRatios
// would compute from their positions.
func NormalizeRatios(ratios []float64) {
	total := 0.0
	for _, r := range ratios {
		total += r
	}
	if total <= 0 {
		u := 1.0 / float64(len(ratios))
		for i := range ratios {
			ratios[i] = u
		}
		return
	}
	for i := range ratios {
		ratios[i] /= total
	}
}
