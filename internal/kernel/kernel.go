// Package kernel holds the flat-slice batch kernels of the tracking hot path
// (DESIGN.md §16): bearings-only log-likelihood sums, Definition-2 node
// contributions, overheard-total aggregation, and constant-velocity
// propagation, all written as branch-light loops over pre-gathered []float64
// columns so the compiler can eliminate bounds checks and keep the state in
// registers. The CDPF tracker, the CPF/DPF sink filter (JointLogLik) and
// SDPF (MaskedSum) score bearings through them.
//
// Determinism contract: every bearing term evaluates exactly the expression
// of the scalar model — statex.BearingSensor.LogLikelihood
// (mathx.GaussianLogPDF or mathx.StudentTLogPDF of the wrapped residual),
// at the effective sigma sqrt(σ² + (QuantSigma/max(d, 1))²) when quantized,
// with the Gaussian residual clamped at GateSigma effective sigmas when
// gated — and every sum adds its terms in column order from 0, so results
// are bit-identical to a term-by-term scalar evaluation. The goldens,
// offline twins, and durability byte-diff tests all hold with the kernels
// enabled, and the package tests keep an independent scalar reference
// (scalarTerm). Constants that do not vary per element (the Gaussian
// log-normalizer, the Student-t Lgamma terms) are hoisted into the Bearing
// value at construction; hoisting never changes bits because the hoisted
// subexpressions group exactly as the scalar code groups them.
package kernel

import (
	"math"

	"repro/internal/mathx"
)

// Bearing evaluates batches of bearings-only log-likelihood terms under the
// tracker's measurement model: Gaussian or Student-t (TailNu > 0) noise at an
// effective sigma optionally inflated by the node-quantization term
// QuantSigma/d, with optional innovation gating at GateSigma effective
// sigmas. The zero value is unusable; construct with NewBearing so the
// normalization constants are hoisted.
type Bearing struct {
	SigmaN     float64
	TailNu     float64
	QuantSigma float64
	GateSigma  float64

	logSigmaN float64 // log(SigmaN), valid when QuantSigma == 0
	tNorm     float64 // lgamma((nu+1)/2) - lgamma(nu/2) - 0.5*log(nu*pi)
	halfNu1   float64 // (nu+1)/2
}

// NewBearing builds a batch evaluator for the given noise model. sigmaN must
// be positive; tailNu == 0 selects the Gaussian model; quantSigma and
// gateSigma of 0 disable quantization inflation and gating.
func NewBearing(sigmaN, tailNu, quantSigma, gateSigma float64) Bearing {
	if sigmaN <= 0 {
		panic("kernel: NewBearing non-positive sigmaN")
	}
	if tailNu < 0 {
		panic("kernel: NewBearing negative tailNu")
	}
	b := Bearing{
		SigmaN:     sigmaN,
		TailNu:     tailNu,
		QuantSigma: quantSigma,
		GateSigma:  gateSigma,
		logSigmaN:  math.Log(sigmaN),
	}
	if tailNu > 0 {
		lgNum, _ := math.Lgamma((tailNu + 1) / 2)
		lgDen, _ := math.Lgamma(tailNu / 2)
		// Grouping matches mathx.StudentTLogPDF left-to-right evaluation:
		// (lgNum - lgDen) - 0.5*log(nu*pi), then per-term - log(scale) - ...
		b.tNorm = lgNum - lgDen - 0.5*math.Log(tailNu*math.Pi)
		b.halfNu1 = (tailNu + 1) / 2
	}
	return b
}

// sigmaAt returns the effective sigma for a measurement taken at distance d
// from the candidate, mirroring core.Tracker.effSigma bit for bit.
func (b *Bearing) sigmaAt(d float64) float64 {
	sigma := b.SigmaN
	if b.QuantSigma > 0 {
		if d < 1 {
			d = 1
		}
		q := b.QuantSigma / d
		sigma = math.Sqrt(sigma*sigma + q*q)
	}
	return sigma
}

// term evaluates one bearing term: the log density of observing bearing z
// from (fx, fy) when the target is at (cx, cy), with d the precomputed
// Euclidean distance math.Hypot(fx-cx, fy-cy). gated reports an out-of-gate
// residual, which feeds the Gated diagnostic.
//
// Under the Gaussian model an out-of-gate residual is clamped to the gate
// boundary, so a wild measurement contributes at most the boundary log
// density. Clamping (rather than skipping the term) keeps the per-term
// density monotone in the residual: a candidate inconsistent with every
// measurement still scores strictly below one consistent with some. Under
// the Student-t model the clamp is deliberately not applied: the heavy tail
// is itself a soft gate, and clamping on top of it would raise far-out
// residuals to the boundary density, flattening the discrimination the tail
// preserves.
func (b *Bearing) term(fx, fy, z, d, cx, cy float64) (ll float64, gated bool) {
	sigma := b.sigmaAt(d)
	resid := mathx.AngleDiff(z, math.Atan2(cy-fy, cx-fx))
	if gate := b.GateSigma; gate > 0 && math.Abs(resid) > gate*sigma {
		gated = true
		if b.TailNu <= 0 {
			resid = gate * sigma
		}
	}
	if b.TailNu > 0 {
		// Bit-identical regrouping of mathx.StudentTLogPDF with the
		// nu-only terms hoisted (tNorm, halfNu1).
		r := resid / sigma
		return b.tNorm - math.Log(sigma) - b.halfNu1*math.Log1p(r*r/b.TailNu), gated
	}
	r := resid / sigma
	return -0.5*r*r - math.Log(sigma) - mathx.HalfLog2Pi, gated
}

// JointLogLik returns Σ_i log p(z[i] | cand) over the measurement columns,
// summed in column order: the CPF/DPF sink filter's per-particle likelihood.
// With QuantSigma and GateSigma zero it is the ordered sum of
// statex.BearingSensor.LogLikelihood terms, bit for bit.
func (b *Bearing) JointLogLik(fromX, fromY, z []float64, cx, cy float64) float64 {
	n := len(z)
	if len(fromX) != n || len(fromY) != n {
		panic("kernel: JointLogLik column length mismatch")
	}
	total := 0.0
	if b.QuantSigma <= 0 && b.GateSigma <= 0 && b.TailNu <= 0 {
		logSig := b.logSigmaN
		sig := b.SigmaN
		for i := 0; i < n; i++ {
			resid := mathx.AngleDiff(z[i], math.Atan2(cy-fromY[i], cx-fromX[i]))
			r := resid / sig
			total += -0.5*r*r - logSig - mathx.HalfLog2Pi
		}
		return total
	}
	for i := 0; i < n; i++ {
		d := 0.0
		if b.QuantSigma > 0 {
			d = math.Hypot(fromX[i]-cx, fromY[i]-cy)
		}
		ll, _ := b.term(fromX[i], fromY[i], z[i], d, cx, cy)
		total += ll
	}
	return total
}

// MaskedSum is the CDPF holder update and the SDPF host update: the ordered
// sum of the selected bearing terms at candidate (cx, cy). dist[i] must hold
// the precomputed distance math.Hypot(fromX[i]-cx, fromY[i]-cy) — the caller
// already has it from the radio range check, and reusing the identical value
// keeps the effective-sigma inflation bit-identical to a scalar evaluation
// that computes the same expression twice. mask[i] selects the terms
// (sharers the holder heard). Returns the sum, whether any term was
// selected, and the gated count.
func (b *Bearing) MaskedSum(fromX, fromY, z, dist []float64, mask []bool, cx, cy float64) (ll float64, heard bool, gated int) {
	n := len(mask)
	if len(fromX) != n || len(fromY) != n || len(z) != n || len(dist) != n {
		panic("kernel: MaskedSum column length mismatch")
	}
	if b.QuantSigma <= 0 && b.GateSigma <= 0 && b.TailNu <= 0 {
		// Constant-sigma fast lane: log(sigma) hoisted out of the loop.
		logSig := b.logSigmaN
		sig := b.SigmaN
		for i := 0; i < n; i++ {
			if !mask[i] {
				continue
			}
			heard = true
			resid := mathx.AngleDiff(z[i], math.Atan2(cy-fromY[i], cx-fromX[i]))
			r := resid / sig
			ll += -0.5*r*r - logSig - mathx.HalfLog2Pi
		}
		return ll, heard, 0
	}
	for i := 0; i < n; i++ {
		if !mask[i] {
			continue
		}
		heard = true
		t, g := b.term(fromX[i], fromY[i], z[i], dist[i], cx, cy)
		ll += t
		if g {
			gated++
		}
	}
	return ll, heard, gated
}

// Contributions computes Definition 2 over pre-gathered node coordinate
// columns: c[i] = (1/max(dist_i, minDist)) normalized by the in-order sum,
// bit-identical to core.EstimateContributionsInto. c, x, and y must have
// equal length.
func Contributions(c, x, y []float64, px, py, minDist float64) {
	n := len(c)
	if len(x) != n || len(y) != n {
		panic("kernel: Contributions column length mismatch")
	}
	d := 0.0
	for i := 0; i < n; i++ {
		dist := math.Hypot(x[i]-px, y[i]-py)
		if dist < minDist {
			dist = minDist
		}
		ci := 1 / dist
		c[i] = ci
		d += ci
	}
	for i := 0; i < n; i++ {
		c[i] /= d
	}
}

// OverheardSum aggregates the loss-free overheard weight total at a receiver:
// Σ w[i] over broadcasts whose sender is the receiver itself or within commR
// of it, summed in broadcast order — the lossNone specialization of the
// tracker's overheardTotalCompute (with reliable links heard == inRange, so
// the compensation path never fires and the total alone suffices).
func OverheardSum(bx, by, bw []float64, ids []int32, rid int32, rx, ry, commR float64) float64 {
	n := len(bw)
	if len(bx) != n || len(by) != n || len(ids) != n {
		panic("kernel: OverheardSum column length mismatch")
	}
	total := 0.0
	for i := 0; i < n; i++ {
		if ids[i] == rid {
			total += bw[i]
			continue
		}
		if math.Hypot(bx[i]-rx, by[i]-ry) > commR {
			continue
		}
		total += bw[i]
	}
	return total
}

// PropagateCV advances constant-velocity state columns by dt in place:
// p += v·dt per axis — the motion half of the prediction step over a dense
// particle store.
func PropagateCV(px, py, vx, vy []float64, dt float64) {
	n := len(px)
	if len(py) != n || len(vx) != n || len(vy) != n {
		panic("kernel: PropagateCV column length mismatch")
	}
	for i := 0; i < n; i++ {
		px[i] += vx[i] * dt
		py[i] += vy[i] * dt
	}
}

// PropagateCVNoise advances constant-velocity state columns by dt and adds
// pre-drawn per-axis noise columns to the velocities (position first, then
// velocity — the standard discretization where this step's motion uses the
// previous velocity). The noise columns come from one batched Gaussian fill,
// so callers stay on the same RNG stream as an equivalent scalar loop.
func PropagateCVNoise(px, py, vx, vy, nx, ny []float64, dt float64) {
	n := len(px)
	if len(py) != n || len(vx) != n || len(vy) != n || len(nx) != n || len(ny) != n {
		panic("kernel: PropagateCVNoise column length mismatch")
	}
	for i := 0; i < n; i++ {
		px[i] += vx[i] * dt
		py[i] += vy[i] * dt
		vx[i] += nx[i]
		vy[i] += ny[i]
	}
}
