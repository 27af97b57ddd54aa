package statex

import "repro/internal/mathx"

// BearingSensor is the bearings-only measurement model of Eq. (5):
//
//	z_k = arctan(y_k / x_k) + n_k,  n_k ~ N(0, σn²)
//
// In the WSN setting each sensor node measures the bearing of the target
// relative to its own position, so the model is evaluated on the offset
// (target - node). The paper's single-observer form is the special case of a
// node at the origin.
type BearingSensor struct {
	SigmaN float64 // measurement noise standard deviation (rad)
	// TailNu, when positive, evaluates likelihoods under a Student-t density
	// with TailNu degrees of freedom and scale SigmaN instead of the
	// Gaussian — the heavy-tailed robust variant for fields with faulty or
	// Byzantine sensors, where a wildly wrong bearing must cost O(log)
	// rather than O(residual²) so it cannot single-handedly zero a weight.
	// 0 (the default) keeps the paper's Gaussian model; negative is invalid.
	TailNu float64
}

// Measure returns a noisy bearing from the node at `from` to the target.
func (s BearingSensor) Measure(from, target mathx.Vec2, rng *mathx.RNG) float64 {
	true_ := target.Sub(from).Angle()
	return mathx.WrapAngle(true_ + rng.Normal(0, s.SigmaN))
}

// TrueBearing returns the noiseless bearing from `from` to `target`.
func (s BearingSensor) TrueBearing(from, target mathx.Vec2) float64 {
	return target.Sub(from).Angle()
}

// LogLikelihood returns log p(z | candidate), the log density of observing
// bearing z from node position `from` when the target is at `candidate`. The
// angular residual is wrapped into (-pi, pi] before the Gaussian evaluation.
func (s BearingSensor) LogLikelihood(from mathx.Vec2, z float64, candidate mathx.Vec2) float64 {
	if s.SigmaN <= 0 {
		panic("statex: BearingSensor.SigmaN must be positive")
	}
	if s.TailNu < 0 {
		panic("statex: BearingSensor.TailNu must be non-negative")
	}
	pred := candidate.Sub(from).Angle()
	resid := mathx.AngleDiff(z, pred)
	if s.TailNu > 0 {
		return mathx.StudentTLogPDF(resid, 0, s.SigmaN, s.TailNu)
	}
	return mathx.GaussianLogPDF(resid, 0, s.SigmaN)
}

// Measurement couples a node's position with its observed bearing, as shared
// in the likelihood step of the filters.
type Measurement struct {
	From    mathx.Vec2 // observing node position
	Bearing float64    // observed bearing (rad)
}
