package core

import (
	"repro/internal/kernel"
	"repro/internal/mathx"
	"repro/internal/wsn"
)

// Neighborhood estimation (Section V). Within the estimation area — the
// circle of sensing radius centered at the predicted target position — the
// contribution of node i is defined (Definition 2) as
//
//	c_i = 1 / (d_i · D),  D = Σ_j 1/d_j over all nodes j in the area,
//
// where d_i is node i's distance from the predicted position. The set
// {c_i} is normalized (Theorem 1), and because it is computed from locally
// shared static knowledge (node positions) plus a consistently derived
// predicted position, every node arrives at identical values (Theorem 2) —
// with zero communication.

// minContributionDist floors distances so a node exactly on the predicted
// position does not produce an infinite contribution.
const minContributionDist = 1e-3

// Contributions holds the result of one neighborhood estimation.
type Contributions struct {
	Area  mathx.Vec2 // predicted target position (area center)
	Nodes []wsn.NodeID
	C     []float64 // normalized contributions, parallel to Nodes

	// xs/ys are reused coordinate columns for the batch kernel.
	xs, ys []float64
}

// EstimateContributions computes Definition 2 for all awake nodes inside the
// estimation area centered at pred with the given radius. It returns nil
// when the area contains no awake node. Hot loops should prefer
// EstimateContributionsInto with a reused Contributions value.
func EstimateContributions(nw *wsn.Network, pred mathx.Vec2, radius float64) *Contributions {
	cs := &Contributions{}
	if !EstimateContributionsInto(nw, pred, radius, cs) {
		return nil
	}
	return cs
}

// EstimateContributionsInto is EstimateContributions writing into cs, reusing
// its Nodes and C slices; it reports whether the area contains any awake node
// (cs is meaningful only when true). Query order, contribution values, and
// the normalizing summation order are identical to EstimateContributions, so
// the two are interchangeable without perturbing results.
func EstimateContributionsInto(nw *wsn.Network, pred mathx.Vec2, radius float64, cs *Contributions) bool {
	cs.Nodes = nw.AppendActiveNodesWithin(cs.Nodes[:0], pred, radius)
	if len(cs.Nodes) == 0 {
		return false
	}
	cs.xs, cs.ys = cs.xs[:0], cs.ys[:0]
	for _, id := range cs.Nodes {
		pos := nw.Node(id).Pos
		cs.xs = append(cs.xs, pos.X)
		cs.ys = append(cs.ys, pos.Y)
	}
	cs.C = grow(cs.C, len(cs.Nodes))
	kernel.Contributions(cs.C, cs.xs, cs.ys, pred.X, pred.Y, minContributionDist)
	cs.Area = pred
	return true
}

// Of returns the contribution of the given node, or 0 when the node is not
// in the estimation area.
func (cs *Contributions) Of(id wsn.NodeID) float64 {
	for i, nid := range cs.Nodes {
		if nid == id {
			return cs.C[i]
		}
	}
	return 0
}

// Total returns the sum of all contributions (1 by Theorem 1, up to
// floating-point rounding); exposed for the property tests that encode the
// theorem.
func (cs *Contributions) Total() float64 {
	t := 0.0
	for _, v := range cs.C {
		t += v
	}
	return t
}
