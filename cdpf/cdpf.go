// Package cdpf is the public API of the CDPF reproduction: completely
// distributed particle filters for target tracking in wireless sensor
// networks (Jiang & Ravindran, IPDPS 2011).
//
// The package re-exports the library's building blocks under one import:
//
//   - deploy a sensor field (NewNetwork / DefaultNetworkConfig),
//   - build the paper's simulation scenario (NewScenario / DefaultScenario),
//   - track with the paper's contribution (NewTracker — CDPF and CDPF-NE),
//   - compare against the baselines (NewCPF, NewSDPF),
//   - and account every byte the algorithms transmit (Network.Stats).
//
// Quickstart:
//
//	sc, _ := cdpf.DefaultScenario(20, 42) // density 20 nodes/100m², seed 42
//	tr, _ := cdpf.NewTracker(sc.Net, cdpf.DefaultTrackerConfig(false))
//	rng := sc.RNG(1)
//	for k := 0; k < sc.Iterations(); k++ {
//		res := tr.Step(sc.Observations(k), rng)
//		if res.EstimateValid {
//			fmt.Println(res.Estimate) // estimate for iteration k-1
//		}
//	}
//	fmt.Println(sc.Net.Stats) // bytes/messages the run cost
package cdpf

import (
	"repro/internal/baseline"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/mathx"
	"repro/internal/multi"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sensorfault"
	"repro/internal/statex"
	"repro/internal/wsn"
)

// Geometry and randomness.
type (
	// Vec2 is a point in the 2-D field.
	Vec2 = mathx.Vec2
	// RNG is the deterministic random source all components draw from.
	RNG = mathx.RNG
)

// V2 constructs a Vec2.
func V2(x, y float64) Vec2 { return mathx.V2(x, y) }

// Mat is a small dense row-major matrix (for Kalman-filter plumbing).
type Mat = mathx.Mat

// MatFromRows builds a matrix from row slices.
func MatFromRows(rows ...[]float64) *Mat { return mathx.MatFromRows(rows...) }

// Diag returns a square matrix with d on the diagonal.
func Diag(d ...float64) *Mat { return mathx.Diag(d...) }

// Identity returns the n x n identity matrix.
func Identity(n int) *Mat { return mathx.Identity(n) }

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed uint64) *RNG { return mathx.NewRNG(seed) }

// Network substrate.
type (
	// Network is a deployed sensor field with an accounting radio.
	Network = wsn.Network
	// NetworkConfig parameterizes a deployment.
	NetworkConfig = wsn.Config
	// NodeID identifies one sensor node.
	NodeID = wsn.NodeID
	// Node is one deployed sensor node.
	Node = wsn.Node
	// NodeState is a node's operational status.
	NodeState = wsn.NodeState
	// CommStats holds per-kind message/byte counters.
	CommStats = wsn.CommStats
	// MsgSizes are the radio payload sizes (Dp, Dm, Dw).
	MsgSizes = wsn.MsgSizes
	// EnergyModel charges transmit/receive/idle/sleep energy.
	EnergyModel = wsn.EnergyModel
)

// Node operational states.
const (
	Awake  = wsn.Awake
	Asleep = wsn.Asleep
	Failed = wsn.Failed
)

// DefaultNetworkConfig returns the paper's 200x200 m field at the given
// density (nodes per 100 m²) with r_s = 10 m and r_c = 30 m.
func DefaultNetworkConfig(density float64) NetworkConfig { return wsn.DefaultConfig(density) }

// NewNetwork deploys a field.
func NewNetwork(cfg NetworkConfig, rng *RNG) (*Network, error) { return wsn.NewNetwork(cfg, rng) }

// PaperMsgSizes returns Dp=16, Dm=4, Dw=4 bytes (32-bit platform).
func PaperMsgSizes() MsgSizes { return wsn.PaperMsgSizes() }

// Dynamic system.
type (
	// State is the (position, velocity) tracking state.
	State = statex.State
	// Trajectory is a time-indexed ground-truth track.
	Trajectory = statex.Trajectory
	// TargetConfig describes the random-turn target.
	TargetConfig = statex.TargetConfig
	// BearingSensor is the bearings-only measurement model.
	BearingSensor = statex.BearingSensor
	// Measurement couples an observer position with a bearing.
	Measurement = statex.Measurement
)

// DefaultTargetConfig returns the paper's target: entry (0, 100), 3 m/s,
// random ±15° turns every second.
func DefaultTargetConfig() TargetConfig { return statex.DefaultTargetConfig() }

// GenTrajectory simulates the ground-truth target.
func GenTrajectory(cfg TargetConfig, steps int, rng *RNG) (*Trajectory, error) {
	return statex.GenTrajectory(cfg, steps, rng)
}

// Scenarios (the Section VI simulation environment).
type (
	// Scenario bundles a deployed network with a ground-truth track and
	// deterministic observation streams.
	Scenario = scenario.Scenario
	// ScenarioParams configures a scenario.
	ScenarioParams = scenario.Params
	// Observation is one node's bearing at the current iteration.
	Observation = core.Observation
)

// DefaultScenarioParams returns the paper's evaluation parameters.
func DefaultScenarioParams(density float64, seed uint64) ScenarioParams {
	return scenario.Default(density, seed)
}

// NewScenario builds a scenario from explicit parameters.
func NewScenario(p ScenarioParams) (*Scenario, error) { return scenario.Build(p) }

// DefaultScenario builds the paper's scenario at the given density and seed.
func DefaultScenario(density float64, seed uint64) (*Scenario, error) {
	return scenario.Build(scenario.Default(density, seed))
}

// The paper's contribution.
type (
	// Tracker runs CDPF or CDPF-NE over a network.
	Tracker = core.Tracker
	// TrackerConfig parameterizes a tracker.
	TrackerConfig = core.Config
	// StepResult reports one iteration's outputs.
	StepResult = core.StepResult
	// Contributions is a neighborhood-estimation result (Definition 2).
	Contributions = core.Contributions
)

// DefaultTrackerConfig returns the evaluation configuration; useNE selects
// the CDPF-NE variant.
func DefaultTrackerConfig(useNE bool) TrackerConfig { return core.DefaultConfig(useNE) }

// ResilientTrackerConfig returns the evaluation configuration hardened for
// lossy networks: bounded re-broadcast and overheard-total compensation
// enabled (both inert without packet loss).
func ResilientTrackerConfig(useNE bool) TrackerConfig { return core.ResilientConfig(useNE) }

// NewTracker creates a CDPF/CDPF-NE tracker on the network.
func NewTracker(nw *Network, cfg TrackerConfig) (*Tracker, error) { return core.NewTracker(nw, cfg) }

// EstimateContributions evaluates Definition 2's neighbor contributions
// within the estimation area centered at pred.
func EstimateContributions(nw *Network, pred Vec2, radius float64) *Contributions {
	return core.EstimateContributions(nw, pred, radius)
}

// Baselines.
type (
	// CPF is the centralized baseline (sink + convergecast + SIR).
	CPF = baseline.CPF
	// CPFConfig parameterizes CPF.
	CPFConfig = baseline.CPFConfig
	// DPF is the compressed-convergecast baseline (Coates, IPSN 2004).
	DPF = baseline.DPF
	// DPFConfig parameterizes DPF.
	DPFConfig = baseline.DPFConfig
	// SDPF is Coates & Ing's semi-distributed baseline.
	SDPF = baseline.SDPF
	// SDPFConfig parameterizes SDPF.
	SDPFConfig = baseline.SDPFConfig
	// EKFTracker is the centralized extended-Kalman reference tracker.
	EKFTracker = baseline.EKFTracker
	// EKFConfig parameterizes the EKF tracker.
	EKFConfig = baseline.EKFConfig
)

// DefaultCPFConfig returns the paper's CPF configuration (N_s = 1000).
func DefaultCPFConfig() CPFConfig { return baseline.DefaultCPFConfig() }

// NewCPF creates the centralized baseline on the network.
func NewCPF(nw *Network, cfg CPFConfig) (*CPF, error) { return baseline.NewCPF(nw, cfg) }

// DefaultSDPFConfig returns the paper's SDPF configuration (8 particles per
// detecting node).
func DefaultSDPFConfig() SDPFConfig { return baseline.DefaultSDPFConfig() }

// NewSDPF creates the semi-distributed baseline on the network.
func NewSDPF(nw *Network, cfg SDPFConfig) (*SDPF, error) { return baseline.NewSDPF(nw, cfg) }

// DefaultDPFConfig returns the 1-byte compressed-convergecast configuration.
func DefaultDPFConfig() DPFConfig { return baseline.DefaultDPFConfig() }

// NewDPF creates the compressed centralized baseline on the network.
func NewDPF(nw *Network, cfg DPFConfig) (*DPF, error) { return baseline.NewDPF(nw, cfg) }

// DefaultEKFConfig returns the centralized EKF configuration.
func DefaultEKFConfig() EKFConfig { return baseline.DefaultEKFConfig() }

// NewEKFTracker creates the centralized EKF reference tracker.
func NewEKFTracker(nw *Network, cfg EKFConfig) (*EKFTracker, error) {
	return baseline.NewEKFTracker(nw, cfg)
}

// Multi-target tracking.
type (
	// MultiManager maintains one CDPF track per target with geometric data
	// association.
	MultiManager = multi.Manager
	// MultiConfig parameterizes the multi-target manager.
	MultiConfig = multi.Config
	// MultiTrack is one maintained target hypothesis.
	MultiTrack = multi.Track
)

// DefaultMultiConfig returns the multi-target configuration over standard
// CDPF trackers (useNE selects CDPF-NE per track).
func DefaultMultiConfig(useNE bool) MultiConfig { return multi.DefaultConfig(useNE) }

// NewMultiManager creates a multi-target manager on the network.
func NewMultiManager(nw *Network, cfg MultiConfig) (*MultiManager, error) {
	return multi.NewManager(nw, cfg)
}

// Generic particle filtering (reusable outside the WSN setting).
type (
	// Particle is one weighted sample.
	Particle = filter.Particle
	// ParticleSet is an ordered weighted sample set.
	ParticleSet = filter.Set
	// Resampler is a resampling scheme.
	Resampler = filter.Resampler
	// SIR is a sampling-importance-resampling filter.
	SIR = filter.SIR
	// SIRConfig parameterizes a SIR filter.
	SIRConfig = filter.SIRConfig
	// Kalman is the linear-Gaussian reference filter.
	Kalman = filter.Kalman
	// EKF is the extended Kalman filter with scalar sequential updates.
	EKF = filter.EKF
	// APF is an auxiliary (look-ahead) particle filter.
	APF = filter.APF
	// APFConfig parameterizes an APF.
	APFConfig = filter.APFConfig
	// Regularizer applies post-resampling kernel jitter (regularized PF).
	Regularizer = filter.Regularizer
	// CTModel is the coordinated-turn state transition model.
	CTModel = statex.CTModel
	// CVModel is the (nearly) constant-velocity transition model of Eq. 5.
	CVModel = statex.CVModel
)

// NewSIR constructs a SIR filter.
func NewSIR(cfg SIRConfig) (*SIR, error) { return filter.NewSIR(cfg) }

// NewAPF constructs an auxiliary particle filter.
func NewAPF(cfg APFConfig) (*APF, error) { return filter.NewAPF(cfg) }

// NewKalman constructs a linear Kalman filter from transition F, process
// covariance Q, measurement matrix H, measurement covariance R, and the
// initial state/covariance.
func NewKalman(f, q, h, r *Mat, x0 []float64, p0 *Mat) (*Kalman, error) {
	return filter.NewKalman(f, q, h, r, x0, p0)
}

// NewEKF constructs an extended Kalman filter with scalar sequential
// updates.
func NewEKF(f, q *Mat, x0 []float64, p0 *Mat) (*EKF, error) {
	return filter.NewEKF(f, q, x0, p0)
}

// NewCVModel constructs the constant-velocity transition model.
func NewCVModel(dt, sigmaX, sigmaY float64) (*CVModel, error) {
	return statex.NewCVModel(dt, sigmaX, sigmaY)
}

// NewCTModel constructs the coordinated-turn transition model.
func NewCTModel(dt, omega, sigmaV float64) (*CTModel, error) {
	return statex.NewCTModel(dt, omega, sigmaV)
}

// Resamplers returns the four implemented resampling schemes.
func Resamplers() []Resampler { return filter.Resamplers() }

// Scheduling (duty cycling and TDSS-style proactive wake-up).
type (
	// Scheduler applies duty-cycle and forced-wake state to a network.
	Scheduler = sched.Scheduler
	// DutyCycle is a periodic sleep schedule.
	DutyCycle = sched.DutyCycle
)

// NewDutyCycle creates a random-phase duty cycle for n nodes.
func NewDutyCycle(n int, period, onFraction float64, rng *RNG) (*DutyCycle, error) {
	return sched.NewDutyCycle(n, period, onFraction, rng)
}

// NewScheduler wires a duty cycle (nil = always on) to a network.
func NewScheduler(nw *Network, dc *DutyCycle) *Scheduler { return sched.NewScheduler(nw, dc) }

// DefaultEnergyModel returns MICA2-flavored energy constants.
func DefaultEnergyModel() *EnergyModel { return wsn.DefaultEnergyModel() }

// Fault injection.
type (
	// FaultSchedule is a replayable script of node failures (fail-stops,
	// transient outages, regional blackouts) applied to a network over time.
	FaultSchedule = wsn.FaultSchedule
	// FaultEvent is one scheduled state change.
	FaultEvent = wsn.FaultEvent
)

// NewFaultSchedule creates an empty fault script.
func NewFaultSchedule() *FaultSchedule { return wsn.NewFaultSchedule() }

// RandomFaultNodes picks a deterministic victim set of the given fraction
// of the network's nodes.
func RandomFaultNodes(nw *Network, frac float64, rng *RNG) []NodeID {
	return wsn.RandomNodes(nw, frac, rng)
}

// Sensor faults.
type (
	// SensorFaultScript is a replayable, time-windowed sensor corruption
	// schedule (stuck-at, drift, noise inflation, outliers, Byzantine).
	SensorFaultScript = sensorfault.Script
	// SensorFaultPlan is the fraction-based generator compiled by
	// scenario building: a fraction of the deployment exhibits one fault
	// kind over a time window.
	SensorFaultPlan = sensorfault.Plan
	// SensorFaultKind identifies one corruption model.
	SensorFaultKind = sensorfault.Kind
)

// NewSensorFaultScript creates an empty corruption schedule whose draws
// derive from seed.
func NewSensorFaultScript(seed uint64) *SensorFaultScript { return sensorfault.NewScript(seed) }

// HardenedSensingTrackerConfig returns the evaluation configuration with
// the Byzantine-tolerant sensing defenses enabled: innovation gating, a
// Student-t likelihood, and online node quarantine.
func HardenedSensingTrackerConfig(useNE bool) TrackerConfig {
	return core.HardenedSensingConfig(useNE)
}

// In-network aggregation by gossip.
type (
	// GossipConfig parameterizes a consensus aggregation.
	GossipConfig = consensus.Config
	// GossipResult reports one aggregation (values, rounds, radio cost).
	GossipResult = consensus.Result
)

// GossipAverage computes the participants' average by randomized pairwise
// gossip, charging every exchange to the network's radio.
func GossipAverage(nw *Network, values map[NodeID]float64, cfg GossipConfig, rng *RNG) (GossipResult, error) {
	return consensus.Average(nw, values, cfg, rng)
}
