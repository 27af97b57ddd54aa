// Package sched provides the time machinery of the simulator: periodic
// duty-cycling of sensor nodes and the TDSS-style proactive wake-up used by
// CDPF to ensure nodes around the predicted target position are awake when
// particles arrive (Section III-C).
package sched

import (
	"fmt"

	"repro/internal/mathx"
	"repro/internal/wsn"
)

// DutyCycle models periodic sleep scheduling: each node is awake for
// OnFraction of every Period, with a random per-node phase so wake windows
// are uncorrelated across the field (the "duty-cycled WSN" of [13] that
// motivates minimizing message counts).
type DutyCycle struct {
	Period     float64
	OnFraction float64
	phase      []float64
}

// NewDutyCycle draws a random phase for each of n nodes.
func NewDutyCycle(n int, period, onFraction float64, rng *mathx.RNG) (*DutyCycle, error) {
	if period <= 0 {
		return nil, fmt.Errorf("sched: duty-cycle period %v must be positive", period)
	}
	if onFraction < 0 || onFraction > 1 {
		return nil, fmt.Errorf("sched: duty-cycle on-fraction %v outside [0,1]", onFraction)
	}
	dc := &DutyCycle{Period: period, OnFraction: onFraction, phase: make([]float64, n)}
	for i := range dc.phase {
		dc.phase[i] = rng.Uniform(0, period)
	}
	return dc, nil
}

// IsOn reports whether node id's duty-cycle window is open at time t.
func (d *DutyCycle) IsOn(id wsn.NodeID, t float64) bool {
	if d.OnFraction >= 1 {
		return true
	}
	if d.OnFraction <= 0 {
		return false
	}
	local := t + d.phase[id]
	frac := local / d.Period
	frac -= float64(int64(frac))
	if frac < 0 {
		frac += 1
	}
	return frac < d.OnFraction
}

// Scheduler combines a duty cycle with proactive wake-ups and applies the
// resulting sleep states to a network. The zero DutyCycle (nil) means
// always-on, which is the paper's main evaluation setting.
type Scheduler struct {
	Nw          *wsn.Network
	DC          *DutyCycle // nil = always on
	forcedUntil []float64  // per-node forced-awake deadline
}

// NewScheduler wires a scheduler to the network.
func NewScheduler(nw *wsn.Network, dc *DutyCycle) *Scheduler {
	return &Scheduler{Nw: nw, DC: dc, forcedUntil: make([]float64, nw.Len())}
}

// Apply sets each node's state for time t: failed nodes stay failed; a node
// is awake when its duty-cycle window is open or it has been proactively
// forced awake past t.
func (s *Scheduler) Apply(t float64) {
	for _, nd := range s.Nw.Nodes {
		if nd.State == wsn.Failed {
			continue
		}
		on := s.DC == nil || s.DC.IsOn(nd.ID, t) || s.forcedUntil[nd.ID] > t
		if on {
			nd.State = wsn.Awake
		} else {
			nd.State = wsn.Asleep
		}
	}
}

// ForceAwake keeps node id awake until the given time, regardless of its
// duty-cycle window. It takes effect at the next Apply.
func (s *Scheduler) ForceAwake(id wsn.NodeID, until float64) {
	if until > s.forcedUntil[id] {
		s.forcedUntil[id] = until
	}
}

// AwakeCount returns the number of currently awake nodes.
func (s *Scheduler) AwakeCount() int {
	n := 0
	for _, nd := range s.Nw.Nodes {
		if nd.State == wsn.Awake {
			n++
		}
	}
	return n
}
