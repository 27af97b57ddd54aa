// Package core implements the paper's contribution: the completely
// distributed particle filter (CDPF) and its neighborhood-estimation variant
// (CDPF-NE) for target tracking in sensor networks.
//
// The design follows Sections III–V:
//
//   - Particles live on sensor nodes ("particles on nodes"): a particle's
//     position is its host node's position; multiple particles arriving at
//     one node are combined (weights summed), and a particle propagated into
//     a predicted area holding several recording nodes is divided, with
//     weight ratios fixed by the linear probability model.
//   - Each iteration reorders the four PF steps into Prediction →
//     Correction → Likelihood → Assign-weight (Fig. 2b): propagation
//     broadcasts carry the previous iteration's weights, every participant
//     overhears all broadcasts and thereby obtains the total weight for
//     free, so normalization, resampling (low-weight dropping), and the
//     estimate for the previous iteration happen right after prediction.
//   - CDPF-NE eliminates the likelihood step entirely: inside the
//     estimation area, node contributions c_i = 1/(d_i·D) (Definition 2)
//     replace measurement broadcasting and likelihood evaluation.
package core

import (
	"fmt"
	"math"

	"repro/internal/statex"
	"repro/internal/wsn"
)

// Config parameterizes a CDPF tracker.
type Config struct {
	// Sizes are the radio payload sizes (defaults to the paper's 32-bit
	// platform sizes).
	Sizes wsn.MsgSizes
	// Sensor is the bearings-only measurement model.
	Sensor statex.BearingSensor
	// Dt is the filter iteration period in seconds (paper: 5).
	Dt float64
	// UseNE selects the CDPF-NE variant (neighborhood estimation instead of
	// measurement sharing + likelihood).
	UseNE bool
	// QuantSigma models the positional uncertainty introduced by
	// constraining particles to node positions (Section III-A: "this may
	// increase the estimation error ... bounded by the sensing radius").
	// The likelihood step inflates the bearing noise by QuantSigma/d for a
	// measurement taken at distance d, so a particle half an internode
	// spacing away from the truth is not annihilated. 0 derives the value
	// from the deployment density (DensityQuantSigma); negative disables
	// the inflation.
	QuantSigma float64
	// PerParticleAreas selects the propagation-target geometry. The default
	// (false) uses one shared predicted area centered at the consistently
	// derived predicted target position (the dotted circle of Fig. 1, one
	// per iteration); every broadcaster propagates toward it and the
	// recorded weights follow the linear-probability profile around it.
	// When true, each particle predicts its own area from its own velocity
	// (more Monte-Carlo diversity, noisier predictions) — kept as an
	// ablation of the design choice.
	PerParticleAreas bool
	// VelSmoothing in [0,1) blends a recorded particle's velocity between
	// the realized host-to-host displacement (0) and the source particle's
	// previous velocity (1). Node quantization makes the raw displacement a
	// noisy velocity signal; smoothing damps it. 0 disables smoothing; the
	// negative sentinel -1 also means 0 (so the zero value can default).
	VelSmoothing float64
	// NEDetectBoost is the weight multiplier a CDPF-NE holder applies when
	// it detected the target itself (free local knowledge; analogous to the
	// paper's signal-strength-adaptive weighting). 0 defaults to 1000;
	// set to 1 to disable (pure Definition 2 weighting).
	NEDetectBoost float64

	// Graceful degradation under faults (DESIGN.md, "Fault model &
	// degradation behavior"). All three knobs leave the fault-free paper
	// behavior bit-identical when disabled, which is the default.

	// Rebroadcasts is the maximum number of retry transmissions a holder
	// makes when its propagated particle finds no recorder (the silent-drop
	// path): each retry is charged like a normal propagation message and
	// widens the recording distance by rebroadcastBackoff, announcing a
	// relaxed record threshold in the retry header. 0 disables (default).
	Rebroadcasts int
	// CompensateLoss makes each recorder extrapolate its overheard weight
	// total when it detected in-range propagation traffic it failed to
	// decode (a radio knows it lost a frame far more often than it knows
	// what the frame held): the locally-observed total is scaled by the
	// ratio of in-range broadcasters to successfully decoded ones. Without
	// packet loss the two counts are equal and behavior is unchanged.
	CompensateLoss bool

	// Byzantine-tolerant sensing defenses (DESIGN.md §9). The communication
	// knobs above harden the filter against nodes that go silent; these
	// harden the likelihood step against sensors that keep talking but
	// report wrong bearings (stuck, drifting, or lying — see
	// internal/sensorfault). All default off, leaving the paper behavior
	// bit-identical. A third defense layer rides on Sensor.TailNu: a
	// positive value switches the likelihood to a heavy-tailed Student-t so
	// a single wild bearing costs O(log) instead of O(residual²).

	// GateSigma, when positive, innovation-gates shared measurements in the
	// likelihood step: under the Gaussian noise model, a heard measurement
	// whose bearing residual at the holder's position exceeds GateSigma
	// times the effective noise scale is clamped to that boundary before the
	// log density is evaluated, capping how hard a single wild bearing can
	// push any holder's weight. Under a Student-t model (TailNu > 0) the
	// tail is itself a soft gate, so out-of-gate residuals are only counted
	// (QuarantineStats.Gated), not clamped. Gated terms never drop the
	// particle (the holder still "heard" the broadcast). 0 disables.
	GateSigma float64
	// Quarantine enables the online per-node reputation tracker: each
	// measurement-sharing node is scored every iteration by cross-node
	// residual consensus against the shared predicted position, persistent
	// deviants are quarantined (their measurements ignored by every
	// receiver), and recovered sensors are readmitted. Only meaningful for
	// the CDPF likelihood path (CDPF-NE shares no measurements).
	Quarantine bool
}

// DefaultConfig returns the evaluation configuration of Section VI.
func DefaultConfig(useNE bool) Config {
	return Config{
		Sizes:  wsn.PaperMsgSizes(),
		Sensor: statex.BearingSensor{SigmaN: 0.05},
		Dt:     5,
		UseNE:  useNE,
	}
}

// withDefaults fills zero fields and validates.
func (c Config) withDefaults(nw *wsn.Network) (Config, error) {
	if c.Sizes == (wsn.MsgSizes{}) {
		c.Sizes = wsn.PaperMsgSizes()
	}
	if c.Dt <= 0 {
		return c, fmt.Errorf("core: Dt must be positive, got %v", c.Dt)
	}
	if c.Sensor.SigmaN <= 0 {
		return c, fmt.Errorf("core: sensor noise SigmaN must be positive, got %v", c.Sensor.SigmaN)
	}
	if c.QuantSigma == 0 {
		c.QuantSigma = DensityQuantSigma(nw)
	}
	if c.QuantSigma < 0 {
		c.QuantSigma = 0
	}
	if c.VelSmoothing == 0 {
		c.VelSmoothing = 0.5
	}
	if c.VelSmoothing < 0 {
		c.VelSmoothing = 0
	}
	if c.VelSmoothing >= 1 {
		return c, fmt.Errorf("core: VelSmoothing %v must be below 1", c.VelSmoothing)
	}
	if c.NEDetectBoost == 0 {
		c.NEDetectBoost = 1000
	}
	if c.NEDetectBoost < 1 {
		return c, fmt.Errorf("core: NEDetectBoost %v must be >= 1", c.NEDetectBoost)
	}
	if c.Rebroadcasts < 0 || c.Rebroadcasts > 8 {
		return c, fmt.Errorf("core: Rebroadcasts %d outside [0, 8]", c.Rebroadcasts)
	}
	if c.Sensor.TailNu < 0 {
		return c, fmt.Errorf("core: Sensor.TailNu %v negative (0 selects the Gaussian model)", c.Sensor.TailNu)
	}
	if c.GateSigma < 0 {
		return c, fmt.Errorf("core: GateSigma %v negative (0 disables gating)", c.GateSigma)
	}
	if c.GateSigma > 0 && c.GateSigma < 1 {
		return c, fmt.Errorf("core: GateSigma %v below 1 would gate typical in-model residuals", c.GateSigma)
	}
	return c, nil
}

// DensityQuantSigma is the positional uncertainty of constraining a
// particle to a node position: half the mean internode spacing of a Poisson
// field at the network's density (density is per 100 m²), or 0 for an empty
// field. It is the derived QuantSigma of the CDPF tracker and of the SDPF
// baseline.
func DensityQuantSigma(nw *wsn.Network) float64 {
	perM2 := nw.Density() / 100
	if perM2 <= 0 {
		return 0
	}
	return 0.5 / math.Sqrt(perM2)
}

// ResilientConfig returns DefaultConfig with the graceful-degradation
// mechanisms enabled — the configuration the resilience benchmark runs.
func ResilientConfig(useNE bool) Config {
	c := DefaultConfig(useNE)
	c.Rebroadcasts = 2
	c.CompensateLoss = true
	return c
}

// HardenedSensingConfig returns DefaultConfig with the Byzantine-tolerant
// sensing defenses enabled — the configuration the sensorfault benchmark's
// defended rows run: innovation gating at 4σ, a Student-t likelihood with 4
// degrees of freedom, and online node quarantine.
func HardenedSensingConfig(useNE bool) Config {
	c := DefaultConfig(useNE)
	c.GateSigma = 4
	c.Sensor.TailNu = 4
	c.Quarantine = true
	return c
}
