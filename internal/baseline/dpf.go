package baseline

import (
	"math"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/statex"
	"repro/internal/wsn"
)

// DPFConfig parameterizes the compressed-convergecast baseline (Coates,
// IPSN 2004, as analyzed in Section II-B): measurements are quantized to
// dpfBytes bytes before being routed to the computational center, and the
// adaptive encoder's parameters flow backward to the sources each
// iteration, so the total data volume shrinks while the number of messages
// stays equal to or above CPF's.
type DPFConfig struct {
	// Sink is the CPF configuration of the center filter.
	Sink CPFConfig
}

// dpfBytes is the compressed measurement size (Table I's P; the paper
// assumes P << Dm): 8-bit adaptive encoding, bearing resolution
// 2π/256 ≈ 0.025 rad ≈ 0.5σ.
const dpfBytes = 1

// DefaultDPFConfig returns the evaluation configuration with 1-byte
// quantized bearings.
func DefaultDPFConfig() DPFConfig {
	return DPFConfig{Sink: DefaultCPFConfig()}
}

// DPF is the compressed centralized filter: CPF with dpfBytes-byte quantized
// bearings and backward parameter-exchange traffic.
type DPF struct {
	nw     *wsn.Network
	sink   wsn.NodeID
	hops   *wsn.HopTable
	f      *sinkFilter
	qStep  float64 // bearing quantization step (rad)
	sigmaQ float64 // effective bearing noise incl. quantization
}

// NewDPF validates the configuration and builds the sink's hop table.
func NewDPF(nw *wsn.Network, cfg DPFConfig) (*DPF, error) {
	c, err := cfg.Sink.withDefaults()
	if err != nil {
		return nil, err
	}
	f, err := newSinkFilter(c)
	if err != nil {
		return nil, err
	}
	// Quantizing the bearing to 8·dpfBytes bits over (-pi, pi] adds uniform
	// noise of variance qStep²/12 on top of the sensor noise.
	levels := math.Pow(2, float64(8*dpfBytes))
	qStep := 2 * math.Pi / levels
	sigmaQ := math.Sqrt(c.Sensor.SigmaN*c.Sensor.SigmaN + qStep*qStep/12)
	sink := nw.NearestNode(nw.Center())
	return &DPF{
		nw:     nw,
		sink:   sink,
		hops:   nw.BuildHopTable(sink),
		f:      f,
		qStep:  qStep,
		sigmaQ: sigmaQ,
	}, nil
}

// Sink returns the sink node's ID.
func (d *DPF) Sink() wsn.NodeID { return d.sink }

// Quantize rounds a bearing to the encoder's grid (exported for tests).
func (d *DPF) Quantize(bearing float64) float64 {
	return mathx.WrapAngle(math.Round(bearing/d.qStep) * d.qStep)
}

// Step quantizes and routes the measurements to the sink (charging N·P·H_i),
// sends the backward parameter messages, and advances the sink filter with
// the quantization-aware noise model.
func (d *DPF) Step(obs []core.Observation, rng *mathx.RNG) (est mathx.Vec2, ok bool) {
	ms := make([]statex.Measurement, 0, len(obs))
	for _, o := range obs {
		if !d.nw.Node(o.Node).Active() {
			continue
		}
		if _, reachable := d.nw.RouteBytes(d.hops, o.Node, wsn.MsgMeasurement, dpfBytes); !reachable {
			continue
		}
		// Backward parameter exchange: the encoder model parameters flow
		// from the center back to the source over the same route.
		d.nw.RouteBytes(d.hops, o.Node, wsn.MsgControl, dpfBytes)
		ms = append(ms, statex.Measurement{
			From:    d.nw.Node(o.Node).Pos,
			Bearing: d.Quantize(o.Bearing),
		})
	}
	return d.f.step(ms, d.sigmaQ, rng)
}
