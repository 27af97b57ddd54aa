package baseline

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mathx"
	"repro/internal/recycle"
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

// sdNode is SDPF's per-node step scratch. The stamps let every step start
// clean without clearing the node-indexed slice.
type sdNode struct {
	hostStamp uint32  // host pass that last listed the node
	obsStamp  uint32  // step whose observations include the node
	count     int     // particles hosted (valid while hostStamp is current)
	z         float64 // observed bearing (valid while obsStamp is current)
	ll        float64 // joint log likelihood at the node (current step's hosts)
}

// SDPF is the semi-distributed particle filter: disjoint particle subsets
// live on sensor nodes, measurements are shared locally, and weight
// aggregation goes through a global transceiver assumed one hop from every
// node (charged as unicasts plus two aggregate broadcasts per iteration).
type SDPF struct {
	nw    *wsn.Network
	cfg   SDPFConfig
	bk    kernel.Bearing // Gaussian, inflated by core.DensityQuantSigma
	parts []sdParticle
	nTot  int // fixed particle budget once initialized
	init  bool

	// Step scratch, reused across steps (see DESIGN.md §16).
	nodes   []sdNode     // indexed by node ID
	stamp   uint32       // last stamp handed out to nodes
	hosts   []wsn.NodeID // distinct particle hosts, ascending
	sharers []wsn.NodeID // hosts with a measurement, ascending
	reach   []wsn.NodeID // a proposal's reachable next hosts
	probs   []float64    // their linear-probability weights
	logw    []float64
	// Sharer columns for the likelihood kernel, and one host's view of them.
	sx, sy, sz, dist []float64
	mask             []bool
	// resample's copy counts and output buffer (swapped with parts).
	counts []int
	spare  []sdParticle
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
	return &SDPF{
		nw:    nw,
		cfg:   cfg,
		bk:    kernel.NewBearing(cfg.Sensor.SigmaN, 0, core.DensityQuantSigma(nw), 0),
		nodes: recycle.Slice(sdNodesFree.Get(), nw.Len()),
	}, nil
}

// sdNodesFree keeps released node tables for the next NewSDPF.
var sdNodesFree recycle.List[[]sdNode]

// Release hands the filter's node table to the next NewSDPF on the process.
// Only the owner of a finished run may call it; a second Release is a no-op.
func (s *SDPF) Release() {
	if s.nodes == nil {
		return
	}
	sdNodesFree.Put(s.nodes)
	s.nodes = nil
}

// NumParticles returns the current particle count (N_s).
func (s *SDPF) NumParticles() int { return len(s.parts) }

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
	s.collectHosts()
	for _, host := range s.hosts {
		s.nw.Transmit(host, wsn.MsgParticle, s.nodes[host].count*(s.cfg.Sizes.Dp+s.cfg.Sizes.Dw))
	}
	s.propagate(rng)

	// --- Measurement sharing among particle-maintaining nodes ---
	s.stamp++
	obsStamp := s.stamp
	for _, o := range obs {
		n := &s.nodes[o.Node]
		n.obsStamp, n.z = obsStamp, o.Bearing
	}
	s.collectHosts()
	s.sharers = s.sharers[:0]
	for _, host := range s.hosts {
		if s.nodes[host].obsStamp == obsStamp {
			s.sharers = append(s.sharers, host)
		}
	}
	for _, id := range s.sharers {
		s.nw.Transmit(id, wsn.MsgMeasurement, s.cfg.Sizes.Dm)
	}

	// --- Likelihood update (per host, over audible measurements) ---
	if len(s.sharers) > 0 {
		// The likelihood depends only on the host, so each host's sum is
		// computed once and shared by every particle it carries.
		s.gatherSharers()
		for _, host := range s.hosts {
			s.nodes[host].ll = s.hostLL(host)
		}
		logw := slices.Grow(s.logw[:0], len(s.parts))[:len(s.parts)]
		s.logw = logw
		for i := range s.parts {
			w := s.parts[i].w
			if w <= 0 {
				w = 1e-300
			}
			logw[i] = math.Log(w) + s.nodes[s.parts[i].host].ll
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
	for _, host := range s.hosts {
		s.nw.Stats.Record(wsn.MsgWeight, s.nodes[host].count*s.cfg.Sizes.Dw)
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
	// Track health: with detections, some particle must sit on a detecting
	// node, i.e. some host is a sharer.
	overlaps := len(obs) == 0 || len(s.sharers) > 0
	if len(s.parts) == 0 || total <= 0 || diverged || !overlaps {
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

// collectHosts lists the distinct particle hosts in ascending order into
// s.hosts and counts each one's particles.
func (s *SDPF) collectHosts() {
	s.stamp++
	s.hosts = s.hosts[:0]
	for i := range s.parts {
		n := &s.nodes[s.parts[i].host]
		if n.hostStamp != s.stamp {
			n.hostStamp, n.count = s.stamp, 0
			s.hosts = append(s.hosts, s.parts[i].host)
		}
		n.count++
	}
	slices.Sort(s.hosts)
}

// propagate moves every particle to a next host sampled from the
// linear-probability profile of its own predicted area (the quantized prior
// proposal); particles with no reachable next host are lost.
//
// The proposal is a function of (host, vel) alone within one loss epoch, and
// resampling leaves each parent's copies contiguous and identical, so the
// spatial query and the weights are computed once per run of equal (host,
// vel). Every particle still makes its own draw, in order, so the RNG stream
// is the one a per-particle evaluation would consume.
func (s *SDPF) propagate(rng *mathx.RNG) {
	survivors := s.parts[:0]
	var runHost wsn.NodeID
	var runVel mathx.Vec2
	sum := 0.0
	for i := range s.parts {
		p := s.parts[i]
		if i == 0 || p.host != runHost || p.vel != runVel {
			runHost, runVel = p.host, p.vel
			sum = s.proposal(p.host, p.vel)
		}
		if len(s.reach) == 0 {
			continue // particle lost; resampling replenishes the budget
		}
		var next wsn.NodeID
		if sum <= 0 {
			next = s.reach[rng.Intn(len(s.reach))]
		} else {
			next = s.reach[rng.Categorical(s.probs)]
		}
		hop := s.nw.Node(next).Pos.Sub(s.nw.Node(p.host).Pos).Scale(1 / s.cfg.Dt)
		p.vel = hop.Lerp(p.vel, sdpfVelSmoothing)
		p.host = next
		survivors = append(survivors, p)
	}
	s.parts = survivors
}

// proposal fills s.reach with the active nodes in the predicted area of a
// particle at host moving at vel that can receive host's propagation
// broadcast, and s.probs with their linear-probability weights. It returns
// the weights' sum.
func (s *SDPF) proposal(host wsn.NodeID, vel mathx.Vec2) float64 {
	hostPos := s.nw.Node(host).Pos
	center := hostPos.Add(vel.Scale(s.cfg.Dt))
	area := cluster.PredictedArea{Center: center, Radius: s.nw.Cfg.SensingRadius}
	cand := s.nw.AppendActiveNodesWithin(s.reach[:0], center, s.nw.Cfg.SensingRadius)
	reach := cand[:0]
	for _, id := range cand {
		if id == host || (s.nw.Node(id).Pos.Dist(hostPos) <= s.nw.Cfg.CommRadius && s.nw.Delivers(host, id)) {
			reach = append(reach, id)
		}
	}
	s.reach = reach
	s.probs = s.probs[:0]
	for _, id := range reach {
		s.probs = append(s.probs, area.Probability(s.nw.Node(id).Pos))
	}
	return mathx.Sum(s.probs)
}

// gatherSharers mirrors the sharers' positions and bearings into the flat
// columns the likelihood kernel reads, and sizes the per-host dist/mask.
func (s *SDPF) gatherSharers() {
	n := len(s.sharers)
	s.sx, s.sy, s.sz = s.sx[:0], s.sy[:0], s.sz[:0]
	for _, id := range s.sharers {
		pos := s.nw.Node(id).Pos
		s.sx, s.sy, s.sz = append(s.sx, pos.X), append(s.sy, pos.Y), append(s.sz, s.nodes[id].z)
	}
	s.dist = slices.Grow(s.dist[:0], n)[:n]
	s.mask = slices.Grow(s.mask[:0], n)[:n]
}

// hostLL is the joint log likelihood at host over the measurements it
// hears: its own, and each in-range sharer's whose broadcast is delivered.
// The range-check distance doubles as the quantization-sigma distance, as
// in core.Tracker.holderLL.
func (s *SDPF) hostLL(host wsn.NodeID) float64 {
	pos := s.nw.Node(host).Pos
	commR := s.nw.Cfg.CommRadius
	for k, sid := range s.sharers {
		d := math.Hypot(s.sx[k]-pos.X, s.sy[k]-pos.Y)
		s.dist[k] = d
		s.mask[k] = sid == host || (d <= commR && s.nw.Delivers(sid, host))
	}
	ll, _, _ := s.bk.MaskedSum(s.sx, s.sy, s.sz, s.dist, s.mask, pos.X, pos.Y)
	return ll
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
// costs no communication). Copies of one parent land contiguously, which
// propagate's proposal memo relies on.
func (s *SDPF) resample(rng *mathx.RNG) {
	n := s.nTot
	if n <= 0 || len(s.parts) == 0 {
		return
	}
	counts := slices.Grow(s.counts[:0], len(s.parts))[:len(s.parts)]
	clear(counts)
	s.counts = counts
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
	out := s.spare[:0]
	w := 1.0 / float64(n)
	for idx, c := range counts {
		for j := 0; j < c; j++ {
			p := s.parts[idx]
			p.w = w
			out = append(out, p)
		}
	}
	s.parts, s.spare = out, s.parts
}
