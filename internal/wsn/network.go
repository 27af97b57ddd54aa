package wsn

import (
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/recycle"
)

// Config describes a deployment matching Section VI's simulation
// environment. Either NumNodes or Density must be set (Density wins when
// both are non-zero).
type Config struct {
	Width, Height float64 // field size (m); paper: 200 x 200
	NumNodes      int     // explicit node count
	Density       float64 // nodes per 100 m²; paper sweeps 5..40

	CommRadius    float64 // communication radius (m); paper: 30
	SensingRadius float64 // sensing radius (m); paper: 10
}

// DefaultConfig returns the paper's field with the given density.
func DefaultConfig(density float64) Config {
	return Config{
		Width: 200, Height: 200,
		Density:    density,
		CommRadius: 30, SensingRadius: 10,
	}
}

// nodeCount resolves the configured node count.
func (c Config) nodeCount() int {
	if c.Density > 0 {
		return int(math.Round(c.Density * c.Width * c.Height / 100))
	}
	return c.NumNodes
}

// Validate checks the configuration, including the paper's structural
// assumption that the sensing radius is at most half the communication
// radius (Section II-C2) — the CDPF overhearing argument depends on it.
func (c Config) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("wsn: field size %vx%v must be positive", c.Width, c.Height)
	}
	if c.nodeCount() <= 0 {
		return fmt.Errorf("wsn: node count %d must be positive (NumNodes=%d, Density=%v)",
			c.nodeCount(), c.NumNodes, c.Density)
	}
	if c.CommRadius <= 0 || c.SensingRadius <= 0 {
		return fmt.Errorf("wsn: radii must be positive (comm=%v, sensing=%v)",
			c.CommRadius, c.SensingRadius)
	}
	if c.SensingRadius > c.CommRadius/2 {
		return fmt.Errorf("wsn: sensing radius %v exceeds half the communication radius %v",
			c.SensingRadius, c.CommRadius)
	}
	return nil
}

// Network is a deployed sensor field: nodes, a spatial index, and the radio
// accounting shared by every algorithm run on it.
type Network struct {
	Cfg   Config
	Nodes []*Node

	grid  *Grid
	Stats *CommStats
	// Energy is the radio energy model used to charge nodes per
	// transmission/reception; nil disables energy accounting.
	Energy *EnergyModel

	// scratch buffer reused by queries that immediately copy out.
	scratch []NodeID
	// positions mirrors Nodes[i].Pos; the spatial grid indexes this slice,
	// and ApplyDrift updates it in place instead of reallocating.
	positions []mathx.Vec2
	// mark/markEpoch implement an O(1)-reset visited set for queries that
	// must deduplicate across several grid probes (DetectingNodes).
	mark      []uint32
	markEpoch uint32
	// backing is the node array Nodes points into; nil once released.
	backing []Node
	// driftScratch buffers the batched Gaussian drift draws of ApplyDrift.
	driftScratch []float64

	// packet-loss model (see loss.go and burst.go)
	lossMode  lossMode
	lossRate  float64
	lossSeed  uint64
	lossEpoch uint64
	burst     *burstChain
}

// NewNetwork deploys cfg.nodeCount() nodes uniformly at random over the
// field and builds the spatial index. The dense per-node arrays come from
// the memory of a released network when one is available (see Release).
func NewNetwork(cfg Config, rng *mathx.RNG) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.nodeCount()
	m := netFree.Get()
	// One contiguous backing array for all nodes: a per-node &Node{} would
	// cost n allocations and dominate the allocation profile of every
	// scenario build (16k nodes at density 40).
	backing := recycle.Slice(m.backing, n)
	nodes := recycle.Slice(m.nodes, n)
	positions := recycle.Slice(m.positions, n)
	for i := 0; i < n; i++ {
		p := mathx.V2(rng.Uniform(0, cfg.Width), rng.Uniform(0, cfg.Height))
		backing[i] = Node{ID: NodeID(i), Pos: p, State: Awake}
		nodes[i] = &backing[i]
		positions[i] = p
	}
	// Cell size near the communication radius keeps per-query candidate
	// counts proportional to true neighborhood sizes.
	cell := cfg.CommRadius
	if cell > cfg.Width {
		cell = cfg.Width
	}
	if m.grid == nil {
		m.grid = new(Grid)
	}
	m.grid.reset(cfg.Width, cfg.Height, cell, positions)
	return &Network{
		Cfg:       cfg,
		Nodes:     nodes,
		grid:      m.grid,
		Stats:     NewCommStats(),
		positions: positions,
		mark:      recycle.Slice(m.mark, n),
		backing:   backing,
	}, nil
}

// netMem is a released network's dense per-node memory, kept for the next
// NewNetwork.
type netMem struct {
	backing   []Node
	nodes     []*Node
	positions []mathx.Vec2
	mark      []uint32
	grid      *Grid
}

var netFree recycle.List[netMem]

// Release hands the network's dense per-node memory to the next NewNetwork
// on the process. Only the owner of a finished run may call it, once nothing
// reads the network any more; a second Release is a no-op.
func (nw *Network) Release() {
	if nw.backing == nil {
		return
	}
	netFree.Put(netMem{backing: nw.backing, nodes: nw.Nodes, positions: nw.positions, mark: nw.mark, grid: nw.grid})
	nw.backing, nw.Nodes, nw.positions, nw.mark, nw.grid = nil, nil, nil, nil, nil
}

// Node returns the node with the given ID.
func (nw *Network) Node(id NodeID) *Node { return nw.Nodes[int(id)] }

// Len returns the number of deployed nodes.
func (nw *Network) Len() int { return len(nw.Nodes) }

// Density returns the realized deployment density in nodes per 100 m².
func (nw *Network) Density() float64 {
	return float64(len(nw.Nodes)) * 100 / (nw.Cfg.Width * nw.Cfg.Height)
}

// NodesWithin returns the IDs of all nodes (any state) within distance r of
// p. The returned slice is freshly allocated; hot paths should prefer
// AppendNodesWithin with a reused buffer.
func (nw *Network) NodesWithin(p mathx.Vec2, r float64) []NodeID {
	nw.scratch = nw.AppendNodesWithin(nw.scratch[:0], p, r)
	out := make([]NodeID, len(nw.scratch))
	copy(out, nw.scratch)
	return out
}

// AppendNodesWithin appends the IDs of all nodes (any state) within distance
// r of p to dst and returns the extended slice. It allocates only when dst
// lacks capacity, so callers that reuse their buffer query allocation-free.
func (nw *Network) AppendNodesWithin(dst []NodeID, p mathx.Vec2, r float64) []NodeID {
	return nw.grid.Within(p, r, dst)
}

// ActiveNodesWithin returns the IDs of awake nodes within distance r of p.
// The returned slice is freshly allocated; hot paths should prefer
// AppendActiveNodesWithin with a reused buffer.
func (nw *Network) ActiveNodesWithin(p mathx.Vec2, r float64) []NodeID {
	nw.scratch = nw.AppendActiveNodesWithin(nw.scratch[:0], p, r)
	out := make([]NodeID, len(nw.scratch))
	copy(out, nw.scratch)
	return out
}

// AppendActiveNodesWithin appends the IDs of awake nodes within distance r of
// p to dst and returns the extended slice, in the same (grid bucket) order as
// ActiveNodesWithin. It allocates only when dst lacks capacity.
func (nw *Network) AppendActiveNodesWithin(dst []NodeID, p mathx.Vec2, r float64) []NodeID {
	start := len(dst)
	dst = nw.grid.Within(p, r, dst)
	out := dst[:start]
	for _, id := range dst[start:] {
		if nw.Nodes[id].Active() {
			out = append(out, id)
		}
	}
	return out
}

// Neighbors returns the awake one-hop neighbors of node id (nodes within the
// communication radius, excluding id itself). The returned slice is freshly
// allocated; hot paths should prefer AppendNeighbors with a reused buffer.
func (nw *Network) Neighbors(id NodeID) []NodeID {
	nw.scratch = nw.AppendNeighbors(nw.scratch[:0], id)
	out := make([]NodeID, len(nw.scratch))
	copy(out, nw.scratch)
	return out
}

// AppendNeighbors appends the awake one-hop neighbors of node id to dst and
// returns the extended slice. It allocates only when dst lacks capacity.
func (nw *Network) AppendNeighbors(dst []NodeID, id NodeID) []NodeID {
	self := nw.Nodes[id]
	start := len(dst)
	dst = nw.grid.Within(self.Pos, nw.Cfg.CommRadius, dst)
	out := dst[:start]
	for _, nid := range dst[start:] {
		if nid != id && nw.Nodes[nid].CanReceive() {
			out = append(out, nid)
		}
	}
	return out
}

// DetectingNodes returns the awake nodes whose sensing disc is crossed by
// any of the target's motion segments during one filter step — the instant
// detection model (Section II-C2).
func (nw *Network) DetectingNodes(segs [][2]mathx.Vec2) []NodeID {
	return nw.AppendDetectingNodes(nil, segs)
}

// AppendDetectingNodes is DetectingNodes appending into dst. Deduplication
// across segments uses the network's epoch-stamped visited set instead of a
// per-call map, so a reused dst makes the query allocation-free.
func (nw *Network) AppendDetectingNodes(dst []NodeID, segs [][2]mathx.Vec2) []NodeID {
	nw.markEpoch++
	epoch := nw.markEpoch
	for _, seg := range segs {
		nw.scratch = nw.grid.WithinSegment(seg[0], seg[1], nw.Cfg.SensingRadius, nw.scratch[:0])
		for _, id := range nw.scratch {
			if !nw.Nodes[id].Active() || nw.mark[id] == epoch {
				continue
			}
			nw.mark[id] = epoch
			dst = append(dst, id)
		}
	}
	return dst
}

// NearestNode returns the ID of the node closest to p (any state), searching
// outward in expanding radius rings. It panics on an empty network.
func (nw *Network) NearestNode(p mathx.Vec2) NodeID {
	if len(nw.Nodes) == 0 {
		panic("wsn: NearestNode on empty network")
	}
	r := nw.Cfg.CommRadius
	maxR := math.Hypot(nw.Cfg.Width, nw.Cfg.Height) + r
	for ; r <= maxR; r *= 2 {
		nw.scratch = nw.grid.Within(p, r, nw.scratch[:0])
		if len(nw.scratch) == 0 {
			continue
		}
		best := nw.scratch[0]
		bestD := nw.Nodes[best].Pos.Dist2(p)
		for _, id := range nw.scratch[1:] {
			if d := nw.Nodes[id].Pos.Dist2(p); d < bestD {
				best, bestD = id, d
			}
		}
		return best
	}
	// Fallback: linear scan (unreachable for in-field queries).
	best := nw.Nodes[0].ID
	bestD := nw.Nodes[0].Pos.Dist2(p)
	for _, nd := range nw.Nodes[1:] {
		if d := nd.Pos.Dist2(p); d < bestD {
			best, bestD = nd.ID, d
		}
	}
	return best
}

// Center returns the field's geometric centre, where CPF's sink is placed.
func (nw *Network) Center() mathx.Vec2 {
	return mathx.V2(nw.Cfg.Width/2, nw.Cfg.Height/2)
}

// ApplyDrift moves every node by independent Gaussian steps of the given
// per-axis standard deviation, clamped to the field, and rebuilds the
// spatial index — the slow-mobility model of Section V-D ("even in a mobile
// WSN, nodes rarely move fast"). Hop tables built before a drift are stale
// and must be rebuilt by their owners.
func (nw *Network) ApplyDrift(sigma float64, rng *mathx.RNG) {
	if sigma <= 0 {
		return
	}
	// Batch the 2n Gaussian steps in one fill (same draw order as the
	// historical per-node x, y pairs, so trajectories are bit-identical) and
	// update the shared position slice in place.
	if cap(nw.driftScratch) < 2*len(nw.Nodes) {
		nw.driftScratch = make([]float64, 2*len(nw.Nodes))
	}
	steps := nw.driftScratch[:2*len(nw.Nodes)]
	rng.NormalFill(steps, 0, sigma)
	for i, nd := range nw.Nodes {
		p := nd.Pos.Add(mathx.V2(steps[2*i], steps[2*i+1]))
		p.X = mathx.Clamp(p.X, 0, nw.Cfg.Width)
		p.Y = mathx.Clamp(p.Y, 0, nw.Cfg.Height)
		nd.Pos = p
		nw.positions[i] = p
	}
	nw.grid.Rebuild(nw.positions)
}

// ResetStates marks every node Awake, clears energy accounting, and rewinds
// the packet-loss process to epoch 0; used between repeated runs on a shared
// deployment, which must all see identical loss draws.
func (nw *Network) ResetStates() {
	for _, nd := range nw.Nodes {
		nd.State = Awake
		nd.EnergyUsed = 0
	}
	nw.ResetLossEpoch()
}
