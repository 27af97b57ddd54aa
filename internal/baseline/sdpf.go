package baseline

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/statex"
	"repro/internal/wsn"
)

// SDPFConfig parameterizes the semi-distributed baseline (Coates & Ing,
// "Sensor network particle filters: motes as particles", SSP 2005, as
// modelled in Section II-B of the CDPF paper). Each particle's predicted
// area has the network's sensing radius, and the bearing likelihood
// inflates the noise for node-position quantization exactly as the CDPF
// tracker does (core.DensityQuantSigma).
type SDPFConfig struct {
	Dt     float64
	Sensor statex.BearingSensor
	Sizes  wsn.MsgSizes
}

const (
	// particlesPerNode is the number of particles seeded on each initially
	// detecting node (the paper's Fig. 5 discussion mentions eight).
	particlesPerNode = 8
	// sdpfVelSmoothing blends hop displacement with the previous velocity,
	// as the CDPF tracker's default VelSmoothing does.
	sdpfVelSmoothing = 0.5
)

// DefaultSDPFConfig returns the evaluation configuration.
func DefaultSDPFConfig() SDPFConfig {
	return SDPFConfig{
		Dt:     5,
		Sensor: statex.BearingSensor{SigmaN: 0.05},
		Sizes:  wsn.PaperMsgSizes(),
	}
}

// sdParticle is one mote-hosted particle: its position is its host node's
// position; velocity and weight travel with it.
type sdParticle struct {
	host wsn.NodeID
	vel  mathx.Vec2
	w    float64
}

// SDPF is the semi-distributed particle filter: disjoint particle subsets
// live on sensor nodes, measurements are shared locally, and weight
// aggregation goes through a global transceiver assumed one hop from every
// node (charged as unicasts plus two aggregate broadcasts per iteration).
type SDPF struct {
	nw         *wsn.Network
	cfg        SDPFConfig
	quantSigma float64 // core.DensityQuantSigma of the network
	parts      []sdParticle
	nTot       int // fixed particle budget once initialized
	init       bool
}

// NewSDPF validates the configuration.
func NewSDPF(nw *wsn.Network, cfg SDPFConfig) (*SDPF, error) {
	if cfg.Dt <= 0 {
		return nil, fmt.Errorf("baseline: SDPF Dt %v must be positive", cfg.Dt)
	}
	if cfg.Sensor.SigmaN <= 0 {
		return nil, fmt.Errorf("baseline: SDPF sensor noise must be positive")
	}
	if cfg.Sizes == (wsn.MsgSizes{}) {
		cfg.Sizes = wsn.PaperMsgSizes()
	}
	return &SDPF{nw: nw, cfg: cfg, quantSigma: core.DensityQuantSigma(nw)}, nil
}

// NumParticles returns the current particle count (N_s).
func (s *SDPF) NumParticles() int { return len(s.parts) }

// HolderCount returns the number of distinct particle-hosting nodes (N_n).
func (s *SDPF) HolderCount() int {
	seen := make(map[wsn.NodeID]struct{}, len(s.parts))
	for i := range s.parts {
		seen[s.parts[i].host] = struct{}{}
	}
	return len(seen)
}

// Step runs one SDPF iteration: particle propagation (broadcasts of
// particles + weights), local measurement sharing, likelihood update, weight
// aggregation at the global transceiver, normalization, resampling, and
// estimation. It returns the global weighted-mean estimate.
func (s *SDPF) Step(obs []core.Observation, rng *mathx.RNG) (est mathx.Vec2, ok bool) {
	if !s.init {
		if len(obs) == 0 {
			return mathx.Vec2{}, false
		}
		s.initialize(obs, rng)
		s.init = true
		return s.estimate(), true
	}

	s.nw.NextEpoch() // fresh packet-loss draws for this iteration

	// --- Particle propagation ---
	// Each hosting node broadcasts one message carrying its Ni particles
	// and weights: Σ Ni(Dp+Dw) bytes over N_n messages.
	byHost := s.groupByHost()
	for host, idxs := range byHost {
		s.nw.Transmit(host, wsn.MsgParticle, len(idxs)*(s.cfg.Sizes.Dp+s.cfg.Sizes.Dw))
	}
	// Every particle samples its next host from the linear-probability
	// profile of its own predicted area (the quantized prior proposal).
	survivors := s.parts[:0]
	for i := range s.parts {
		p := s.parts[i]
		hostPos := s.nw.Node(p.host).Pos
		center := hostPos.Add(p.vel.Scale(s.cfg.Dt))
		area := cluster.PredictedArea{Center: center, Radius: s.nw.Cfg.SensingRadius}
		cand := s.nw.ActiveNodesWithin(center, s.nw.Cfg.SensingRadius)
		// The new host must be able to receive the propagation broadcast.
		reachable := cand[:0]
		for _, id := range cand {
			if id == p.host || (s.nw.Node(id).Pos.Dist(hostPos) <= s.nw.Cfg.CommRadius && s.nw.Delivers(p.host, id)) {
				reachable = append(reachable, id)
			}
		}
		if len(reachable) == 0 {
			continue // particle lost; resampling replenishes the budget
		}
		weights := make([]float64, len(reachable))
		for j, id := range reachable {
			weights[j] = area.Probability(s.nw.Node(id).Pos)
		}
		var next wsn.NodeID
		if mathx.Sum(weights) <= 0 {
			next = reachable[rng.Intn(len(reachable))]
		} else {
			next = reachable[rng.Categorical(weights)]
		}
		hop := s.nw.Node(next).Pos.Sub(hostPos).Scale(1 / s.cfg.Dt)
		p.vel = hop.Lerp(p.vel, sdpfVelSmoothing)
		p.host = next
		survivors = append(survivors, p)
	}
	s.parts = survivors

	// --- Measurement sharing among particle-maintaining nodes ---
	obsByNode := make(map[wsn.NodeID]float64, len(obs))
	for _, o := range obs {
		obsByNode[o.Node] = o.Bearing
	}
	byHost = s.groupByHost()
	var sharers []wsn.NodeID
	for host := range byHost {
		if _, has := obsByNode[host]; has {
			sharers = append(sharers, host)
		}
	}
	sort.Slice(sharers, func(i, j int) bool { return sharers[i] < sharers[j] })
	for _, id := range sharers {
		s.nw.Transmit(id, wsn.MsgMeasurement, s.cfg.Sizes.Dm)
	}

	// --- Likelihood update (per host, over audible measurements) ---
	if len(sharers) > 0 {
		logw := make([]float64, len(s.parts))
		for i := range s.parts {
			pos := s.nw.Node(s.parts[i].host).Pos
			ll := 0.0
			for _, sid := range sharers {
				if sid != s.parts[i].host &&
					(s.nw.Node(sid).Pos.Dist(pos) > s.nw.Cfg.CommRadius || !s.nw.Delivers(sid, s.parts[i].host)) {
					continue
				}
				ll += s.bearingLL(s.nw.Node(sid).Pos, obsByNode[sid], pos)
			}
			w := s.parts[i].w
			if w <= 0 {
				w = 1e-300
			}
			logw[i] = math.Log(w) + ll
		}
		// Stable common rescaling; global normalization follows below.
		max := math.Inf(-1)
		for _, lw := range logw {
			if lw > max {
				max = lw
			}
		}
		for i := range s.parts {
			s.parts[i].w = math.Exp(logw[i] - max)
		}
	}

	// --- Weight aggregation at the global transceiver ---
	// Each hosting node unicasts its particles' weights (Ni·Dw); the
	// transceiver answers with two broadcast messages (query/total),
	// the "+2" of the paper's SDPF cost analysis.
	byHost = s.groupByHost()
	for _, idxs := range byHost {
		s.nw.Stats.Record(wsn.MsgWeight, len(idxs)*s.cfg.Sizes.Dw)
	}
	s.nw.Stats.Record(wsn.MsgControl, s.cfg.Sizes.Dw)
	s.nw.Stats.Record(wsn.MsgControl, s.cfg.Sizes.Dw)

	// --- Normalization, recovery, resampling, estimation ---
	total := 0.0
	for i := range s.parts {
		total += s.parts[i].w
	}
	diverged := false
	if total > 0 && len(obs) > 0 {
		for i := range s.parts {
			s.parts[i].w /= total
		}
		total = 1
		// Divergence guard: the detection centroid bounds the target within
		// the sensing radius; an estimate far beyond that means the weight
		// mass has drifted off the target even if a stray particle still
		// sits on a detecting node.
		var centroid mathx.Vec2
		for _, o := range obs {
			centroid = centroid.Add(s.nw.Node(o.Node).Pos)
		}
		centroid = centroid.Scale(1 / float64(len(obs)))
		diverged = s.estimate().Dist(centroid) > 2*s.nw.Cfg.SensingRadius
	}
	if len(s.parts) == 0 || total <= 0 || diverged || !s.overlapsDetections(obsByNode) {
		// Track lost: re-initialize on the current detections (the same
		// recovery CDPF uses).
		if len(obs) == 0 {
			return mathx.Vec2{}, false
		}
		s.initialize(obs, rng)
		return s.estimate(), true
	}
	if total > 0 && total != 1 {
		for i := range s.parts {
			s.parts[i].w /= total
		}
	}
	est = s.estimate()
	s.resample(rng)
	return est, true
}

// bearingLL mirrors the CDPF tracker's quantization-aware bearing
// log-likelihood.
func (s *SDPF) bearingLL(from mathx.Vec2, z float64, cand mathx.Vec2) float64 {
	sigma := s.cfg.Sensor.SigmaN
	if s.quantSigma > 0 {
		d := from.Dist(cand)
		if d < 1 {
			d = 1
		}
		q := s.quantSigma / d
		sigma = math.Sqrt(sigma*sigma + q*q)
	}
	pred := cand.Sub(from).Angle()
	return mathx.GaussianLogPDF(mathx.AngleDiff(z, pred), 0, sigma)
}

// overlapsDetections reports whether any particle is hosted on a detecting
// node (track-health check).
func (s *SDPF) overlapsDetections(obsByNode map[wsn.NodeID]float64) bool {
	if len(obsByNode) == 0 {
		return true // no detections: nothing to contradict the track
	}
	for i := range s.parts {
		if _, ok := obsByNode[s.parts[i].host]; ok {
			return true
		}
	}
	return false
}

// initialize seeds particlesPerNode particles on every detecting node with a
// diffuse velocity prior and uniform weights, fixing the particle budget.
func (s *SDPF) initialize(obs []core.Observation, rng *mathx.RNG) {
	s.parts = s.parts[:0]
	for _, o := range obs {
		if !s.nw.Node(o.Node).Active() {
			continue
		}
		for j := 0; j < particlesPerNode; j++ {
			vel := mathx.Polar(rng.Uniform(0, 5), rng.Uniform(-math.Pi, math.Pi))
			s.parts = append(s.parts, sdParticle{host: o.Node, vel: vel, w: 1})
		}
	}
	total := float64(len(s.parts))
	for i := range s.parts {
		s.parts[i].w = 1 / total
	}
	s.nTot = len(s.parts)
}

// estimate returns the globally weighted mean of particle host positions.
func (s *SDPF) estimate() mathx.Vec2 {
	var acc mathx.Vec2
	total := 0.0
	for i := range s.parts {
		acc = acc.Add(s.nw.Node(s.parts[i].host).Pos.Scale(s.parts[i].w))
		total += s.parts[i].w
	}
	if total <= 0 {
		return mathx.Vec2{}
	}
	return acc.Scale(1 / total)
}

// resample restores the fixed particle budget with systematic resampling,
// keeping each copy on its parent's host node (replication is local, so it
// costs no communication).
func (s *SDPF) resample(rng *mathx.RNG) {
	n := s.nTot
	if n <= 0 || len(s.parts) == 0 {
		return
	}
	counts := make([]int, len(s.parts))
	u := rng.Float64() / float64(n)
	acc := 0.0
	i := 0
	for k := 0; k < n; k++ {
		point := u + float64(k)/float64(n)
		for acc+s.parts[i].w < point && i < len(s.parts)-1 {
			acc += s.parts[i].w
			i++
		}
		counts[i]++
	}
	out := make([]sdParticle, 0, n)
	w := 1.0 / float64(n)
	for idx, c := range counts {
		for j := 0; j < c; j++ {
			p := s.parts[idx]
			p.w = w
			out = append(out, p)
		}
	}
	s.parts = out
}

// groupByHost indexes particle indices by their hosting node.
func (s *SDPF) groupByHost() map[wsn.NodeID][]int {
	m := make(map[wsn.NodeID][]int)
	for i := range s.parts {
		m[s.parts[i].host] = append(m[s.parts[i].host], i)
	}
	return m
}
