// Package scenario builds the paper's simulation environment (Section VI-A):
// a 200 m x 200 m field with 2,000–16,000 randomly deployed nodes
// (density 5–40 per 100 m²), sensing radius 10 m, communication radius 30 m,
// and a target crossing from (0, 100) at 3 m/s with random ±15° turns every
// second, filtered at a 5 s time step for 50 steps. It also supports the
// uncertainty-injection extensions (random node failures, random sleeping).
package scenario

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/sensorfault"
	"repro/internal/statex"
	"repro/internal/wsn"
)

// Params configures one simulation scenario.
type Params struct {
	Density float64 // nodes per 100 m² (paper sweeps 5..40)
	Seed    uint64  // master seed; deployment, target, and noise derive from it
	Steps   int     // filter iterations (paper: 50 motion steps / 5 s period = 10)
	Dt      float64 // filter period in seconds (paper: 5)
	SigmaN  float64 // bearing noise stddev (paper: 0.05)

	Target statex.TargetConfig

	// FailFraction permanently fails this fraction of nodes at time 0
	// (future-work extension 1: tolerance to uncertain factors).
	FailFraction float64
	// SleepFraction puts this fraction of nodes into an *unanticipated*
	// random sleep for the whole run (they neither sense nor relay).
	SleepFraction float64

	// SensorFault corrupts the measurements of a node fraction (stuck,
	// drifting, noisy, outlier-prone, or Byzantine bearings — see
	// internal/sensorfault). Unlike FailFraction, the afflicted nodes keep
	// sensing and transmitting: they report wrong bearings, which every
	// filter consumes identically. The zero value disables injection.
	SensorFault sensorfault.Plan
}

// Default returns the paper's evaluation parameters for a density and seed.
// The paper's "50 steps" are the dynamic system's 1 s motion steps (the
// target covers 150 m, matching Fig. 4's x-range), which the 5 s filter
// period turns into 10 filter iterations.
func Default(density float64, seed uint64) Params {
	return Params{Density: density, Seed: seed}.WithDefaults()
}

// WithDefaults returns p with every zero-valued evaluation field replaced by
// the paper's default (Steps 10, Dt 5, SigmaN 0.05, the default target
// model). It is idempotent; callers that accept partial parameter sets
// (specs, serving sessions) share this one defaulting rule.
func (p Params) WithDefaults() Params {
	if p.Steps == 0 {
		p.Steps = 10
	}
	if p.Dt == 0 {
		p.Dt = 5
	}
	if p.SigmaN == 0 {
		p.SigmaN = 0.05
	}
	if p.Target == (statex.TargetConfig{}) {
		p.Target = statex.DefaultTargetConfig()
	}
	return p
}

// Scenario is a fully built simulation instance.
type Scenario struct {
	P      Params
	Net    *wsn.Network
	Fine   *statex.Trajectory // ground truth at the target's 1 s motion step
	Filter *statex.Trajectory // subsampled at the filter period
	Sensor statex.BearingSensor
	// SensorFaults is the compiled measurement-corruption script (nil when
	// P.SensorFault is disabled). Observations applies it; experiment code
	// reads it for the ground-truth victim set when scoring quarantine.
	SensorFaults *sensorfault.Script

	noiseRNG *mathx.RNG
	detBuf   []wsn.NodeID // Observations' detecting set, reused per call
}

// Build deploys the network, simulates the ground-truth trajectory, and
// prepares deterministic per-scenario noise streams.
func Build(p Params) (*Scenario, error) {
	if p.Steps <= 0 {
		return nil, fmt.Errorf("scenario: Steps must be positive, got %d", p.Steps)
	}
	if p.Dt <= 0 || p.Target.StepDt <= 0 {
		return nil, fmt.Errorf("scenario: non-positive time step")
	}
	stride := int(p.Dt / p.Target.StepDt)
	if float64(stride)*p.Target.StepDt != p.Dt || stride < 1 {
		return nil, fmt.Errorf("scenario: filter period %v must be a multiple of the motion step %v",
			p.Dt, p.Target.StepDt)
	}
	if p.FailFraction < 0 || p.FailFraction > 1 || p.SleepFraction < 0 || p.SleepFraction > 1 {
		return nil, fmt.Errorf("scenario: failure/sleep fractions must lie in [0,1]")
	}
	master := mathx.NewRNG(p.Seed)
	deployRNG := master.Split(1)
	targetRNG := master.Split(2)
	noiseRNG := master.Split(3)
	faultRNG := master.Split(4)

	nw, err := wsn.NewNetwork(wsn.DefaultConfig(p.Density), deployRNG)
	if err != nil {
		return nil, err
	}
	// Inject permanent failures and unanticipated sleepers.
	for _, nd := range nw.Nodes {
		r := faultRNG.Float64()
		switch {
		case r < p.FailFraction:
			nd.State = wsn.Failed
		case r < p.FailFraction+p.SleepFraction:
			nd.State = wsn.Asleep
		}
	}

	fine, err := statex.GenTrajectory(p.Target, p.Steps*stride, targetRNG)
	if err != nil {
		return nil, err
	}
	// Sensor-fault compilation consumes master stream 5 — but only when the
	// plan is enabled, so fault-free scenarios draw exactly the seed
	// evaluation's RNG sequence and stay bit-identical.
	var sf *sensorfault.Script
	if err := p.SensorFault.Validate(); err != nil {
		return nil, err
	}
	if p.SensorFault.Enabled() {
		sf, err = p.SensorFault.Compile(nw.Len(), p.Seed^0x5fa017, master.Split(5))
		if err != nil {
			return nil, err
		}
	}
	return &Scenario{
		P:            p,
		Net:          nw,
		Fine:         fine,
		Filter:       fine.Subsample(stride),
		Sensor:       statex.BearingSensor{SigmaN: p.SigmaN},
		SensorFaults: sf,
		noiseRNG:     noiseRNG,
	}, nil
}

// Iterations returns the number of filter sample indices (Steps + 1,
// including time 0).
func (s *Scenario) Iterations() int { return s.Filter.Len() }

// Truth returns the ground-truth target position at filter iteration k.
func (s *Scenario) Truth(k int) mathx.Vec2 { return s.Filter.Points[k] }

// DetectingNodes returns the awake nodes able to measure at iteration k:
// those whose sensing disc contains the target position at t_k (the instant
// detection model evaluated at the measurement time).
func (s *Scenario) DetectingNodes(k int) []wsn.NodeID {
	return s.Net.ActiveNodesWithin(s.Truth(k), s.Net.Cfg.SensingRadius)
}

// CrossedNodes returns the awake nodes whose sensing disc the target's fine
// trajectory crossed during (t_{k-1}, t_k] — used by the duty-cycling /
// wake-up extensions.
func (s *Scenario) CrossedNodes(k int) []wsn.NodeID {
	if k <= 0 {
		return s.DetectingNodes(0)
	}
	segs := s.Fine.SegmentsBetween(s.Filter.Times[k-1], s.Filter.Times[k])
	return s.Net.DetectingNodes(segs)
}

// Observations returns the bearing observations of the detecting nodes at
// iteration k, with fresh measurement noise from the scenario's noise
// stream. When a sensor-fault script is attached, each clean bearing is then
// corrupted through it — after the noise draw, so attaching a script never
// perturbs the clean measurements of unaffected nodes, and every filter
// running on the scenario sees the same corrupted values.
func (s *Scenario) Observations(k int) []core.Observation {
	truth := s.Truth(k)
	// The detecting set (DetectingNodes' query) lands in a reused buffer;
	// only the observations escape to the caller.
	s.detBuf = s.Net.AppendActiveNodesWithin(s.detBuf[:0], truth, s.Net.Cfg.SensingRadius)
	obs := make([]core.Observation, 0, len(s.detBuf))
	for _, id := range s.detBuf {
		z := s.Sensor.Measure(s.Net.Node(id).Pos, truth, s.noiseRNG)
		if s.SensorFaults != nil {
			z, _ = s.SensorFaults.Corrupt(id, s.Filter.Times[k], z)
		}
		obs = append(obs, core.Observation{Node: id, Bearing: z})
	}
	return obs
}

// Measurements converts iteration-k observations into position-tagged
// measurements for centralized likelihood evaluation.
func (s *Scenario) Measurements(obs []core.Observation) []statex.Measurement {
	ms := make([]statex.Measurement, len(obs))
	for i, o := range obs {
		ms[i] = statex.Measurement{From: s.Net.Node(o.Node).Pos, Bearing: o.Bearing}
	}
	return ms
}

// RNG derives a deterministic child generator for an algorithm run on this
// scenario, so different algorithms sharing a scenario consume independent
// randomness.
func (s *Scenario) RNG(key uint64) *mathx.RNG {
	return mathx.NewRNG(s.P.Seed).Split(100 + key)
}
