package baseline

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/mathx"
	"repro/internal/statex"
	"repro/internal/wsn"
)

// EKFConfig parameterizes the centralized extended-Kalman baseline — the
// classical non-Monte-Carlo tracker the related work contrasts particle
// filters with. It shares CPF's network architecture (sink + convergecast)
// and cost profile; only the estimator differs.
type EKFConfig struct {
	Dt     float64
	Sensor statex.BearingSensor
	Sizes  wsn.MsgSizes
}

const (
	// ekfSigmaMan is the maneuver process noise (velocity stddev per step,
	// m/s) the filter assumes; it must cover the target's random turns.
	ekfSigmaMan = 1.0
	// ekfInitSpeed seeds the velocity uncertainty (m/s).
	ekfInitSpeed = 3.0
)

// DefaultEKFConfig returns the evaluation configuration.
func DefaultEKFConfig() EKFConfig {
	return EKFConfig{
		Dt:     5,
		Sensor: statex.BearingSensor{SigmaN: 0.05},
		Sizes:  wsn.PaperMsgSizes(),
	}
}

// EKFTracker is the centralized bearings-only EKF: measurements converge to
// the sink as in CPF; the sink runs Predict + sequential scalar bearing
// updates with wrapped innovations.
type EKFTracker struct {
	nw   *wsn.Network
	cfg  EKFConfig
	sink wsn.NodeID
	hops *wsn.HopTable
	kf   *filter.EKF
	init bool
}

// NewEKFTracker validates cfg and builds the sink hop table.
func NewEKFTracker(nw *wsn.Network, cfg EKFConfig) (*EKFTracker, error) {
	if cfg.Dt <= 0 {
		return nil, fmt.Errorf("baseline: EKF Dt %v must be positive", cfg.Dt)
	}
	if cfg.Sensor.SigmaN <= 0 {
		return nil, fmt.Errorf("baseline: EKF sensor noise must be positive")
	}
	if cfg.Sizes == (wsn.MsgSizes{}) {
		cfg.Sizes = wsn.PaperMsgSizes()
	}
	sink := nw.NearestNode(nw.Center())
	return &EKFTracker{
		nw:   nw,
		cfg:  cfg,
		sink: sink,
		hops: nw.BuildHopTable(sink),
	}, nil
}

// Sink returns the sink node's ID.
func (e *EKFTracker) Sink() wsn.NodeID { return e.sink }

// Step routes measurements to the sink (same cost as CPF) and advances the
// EKF. ok is false until the first detections initialize the filter.
func (e *EKFTracker) Step(obs []core.Observation, rng *mathx.RNG) (est mathx.Vec2, ok bool) {
	_ = rng // the EKF is deterministic; kept for interface symmetry
	ms := make([]statex.Measurement, 0, len(obs))
	for _, o := range obs {
		if !e.nw.Node(o.Node).Active() {
			continue
		}
		if _, reachable := e.nw.RouteBytes(e.hops, o.Node, wsn.MsgMeasurement, e.cfg.Sizes.Dm); !reachable {
			continue
		}
		ms = append(ms, statex.Measurement{From: e.nw.Node(o.Node).Pos, Bearing: o.Bearing})
	}
	if !e.init {
		if len(ms) == 0 {
			return mathx.Vec2{}, false
		}
		if err := e.initialize(ms); err != nil {
			return mathx.Vec2{}, false
		}
		e.init = true
		return e.kf.PosEstimate(), true
	}
	e.kf.Predict()
	for _, m := range ms {
		e.updateBearing(m)
	}
	// Divergence guard: the detection centroid bounds the target within the
	// sensing radius; if the EKF has wandered farther than twice that, its
	// linearization has broken down — re-anchor on the detections.
	if len(ms) > 0 {
		var centroid mathx.Vec2
		for _, m := range ms {
			centroid = centroid.Add(m.From)
		}
		centroid = centroid.Scale(1 / float64(len(ms)))
		if e.kf.PosEstimate().Dist(centroid) > 2*e.nw.Cfg.SensingRadius {
			if err := e.initialize(ms); err != nil {
				return mathx.Vec2{}, false
			}
		}
	}
	return e.kf.PosEstimate(), true
}

// updateBearing linearizes one bearing about the current estimate and
// applies the scalar EKF update with a wrapped innovation.
func (e *EKFTracker) updateBearing(m statex.Measurement) {
	px := e.kf.X.Data[0] - m.From.X
	py := e.kf.X.Data[1] - m.From.Y
	r2 := px*px + py*py
	if r2 < 1e-6 {
		return // measurement taken on top of the estimate: no direction info
	}
	predicted := math.Atan2(py, px)
	resid := mathx.AngleDiff(m.Bearing, predicted)
	h := []float64{-py / r2, px / r2, 0, 0}
	// Inflate the noise for very close observers: their bearings swing
	// wildly with small target displacements and the linearization is poor.
	sigma := e.cfg.Sensor.SigmaN
	if d := math.Sqrt(r2); d < 3 {
		sigma *= 3 / math.Max(d, 0.5)
	}
	// Innovation gating: a residual beyond 6 innovation sigmas is far more
	// likely a linearization failure than information; skip it.
	if s := e.kf.InnovationVariance(h, sigma*sigma); resid*resid > 36*s {
		return
	}
	// Errors only occur for non-positive variance, which cannot happen here.
	_ = e.kf.UpdateScalar(h, resid, sigma*sigma)
}

// initialize seeds the state at the detection centroid with zero velocity
// and diffuse covariance.
func (e *EKFTracker) initialize(ms []statex.Measurement) error {
	var centroid mathx.Vec2
	for _, m := range ms {
		centroid = centroid.Add(m.From)
	}
	centroid = centroid.Scale(1 / float64(len(ms)))
	model, err := statex.NewCVModel(e.cfg.Dt, ekfSigmaMan, ekfSigmaMan)
	if err != nil {
		return err
	}
	p0 := mathx.Diag(25, 25, ekfInitSpeed*ekfInitSpeed, ekfInitSpeed*ekfInitSpeed)
	kf, err := filter.NewEKF(model.Phi, model.ProcessCov(), []float64{centroid.X, centroid.Y, 0, 0}, p0)
	if err != nil {
		return err
	}
	e.kf = kf
	return nil
}
