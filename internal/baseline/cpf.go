// Package baseline implements the comparison algorithms of the evaluation:
// CPF, the centralized SIR particle filter with multi-hop convergecast of
// raw measurements to a sink; DPF, the compressed-convergecast variant of
// Coates (IPSN 2004) analyzed in Table I; and SDPF, Coates & Ing's
// semi-distributed "motes as particles" filter with weight aggregation at a
// one-hop global transceiver. All run on the same wsn.Network substrate and
// charge every byte through its accounting radio, making their costs
// directly comparable with CDPF's.
package baseline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/mathx"
	"repro/internal/statex"
	"repro/internal/wsn"
)

// CPFConfig parameterizes the centralized baseline.
type CPFConfig struct {
	Dt     float64              // filter period (paper: 5 s)
	Sensor statex.BearingSensor // measurement model
	Sizes  wsn.MsgSizes
}

// DefaultCPFConfig returns the paper's CPF configuration.
func DefaultCPFConfig() CPFConfig {
	return CPFConfig{
		Dt:     5,
		Sensor: statex.BearingSensor{SigmaN: 0.05},
		Sizes:  wsn.PaperMsgSizes(),
	}
}

// withDefaults validates and fills zero fields.
func (cfg CPFConfig) withDefaults() (CPFConfig, error) {
	if cfg.Dt <= 0 {
		return cfg, fmt.Errorf("baseline: Dt %v must be positive", cfg.Dt)
	}
	if cfg.Sensor.SigmaN <= 0 {
		return cfg, fmt.Errorf("baseline: sensor noise must be positive")
	}
	if cfg.Sizes == (wsn.MsgSizes{}) {
		cfg.Sizes = wsn.PaperMsgSizes()
	}
	return cfg, nil
}

// CPF is the centralized particle filter: all detecting nodes forward their
// measurements over multi-hop routes to a sink at the field centre, which
// runs a standard SIR filter over continuous states.
type CPF struct {
	nw   *wsn.Network
	cfg  CPFConfig
	sink wsn.NodeID
	hops *wsn.HopTable
	f    *sinkFilter
}

// NewCPF places the sink at the node nearest the field centre and builds its
// convergecast hop table.
func NewCPF(nw *wsn.Network, cfg CPFConfig) (*CPF, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	f, err := newSinkFilter(c)
	if err != nil {
		return nil, err
	}
	sink := nw.NearestNode(nw.Center())
	return &CPF{
		nw:   nw,
		cfg:  c,
		sink: sink,
		hops: nw.BuildHopTable(sink),
		f:    f,
	}, nil
}

// Sink returns the sink node's ID.
func (c *CPF) Sink() wsn.NodeID { return c.sink }

// Step routes the iteration's measurements to the sink (charging the
// convergecast cost N·Dm·H_i of Table I) and advances the SIR filter. It
// returns the posterior-mean estimate; ok is false until the filter has been
// initialized by the first detections.
func (c *CPF) Step(obs []core.Observation, rng *mathx.RNG) (est mathx.Vec2, ok bool) {
	ms := make([]statex.Measurement, 0, len(obs))
	for _, o := range obs {
		if !c.nw.Node(o.Node).Active() {
			continue
		}
		if _, reachable := c.nw.RouteBytes(c.hops, o.Node, wsn.MsgMeasurement, c.cfg.Sizes.Dm); !reachable {
			continue // disconnected from the sink: measurement lost
		}
		ms = append(ms, statex.Measurement{From: c.nw.Node(o.Node).Pos, Bearing: o.Bearing})
	}
	return c.f.step(ms, c.cfg.Sensor.SigmaN, rng)
}

// Particles exposes the sink's particle set for inspection.
func (c *CPF) Particles() *filter.Set { return c.f.pf.Particles() }
