package wsn

import (
	"math"
	"slices"

	"repro/internal/recycle"
)

// Routing support for the centralized baseline: CPF needs the hop count from
// every detecting node to the sink (H_i in Table I). Hop counts are computed
// by breadth-first search over the connectivity graph induced by the
// communication radius, treating every deployed node (regardless of sleep
// state) as a potential relay — duty-cycled forwarding wakes relays on
// demand, and the cost model charges per-hop transmissions identically.

// hopMem is BuildHopTable's private search memory, kept between calls: the
// unvisited-list grid and the BFS queue.
type hopMem struct {
	grid  Grid
	queue []NodeID
}

var hopFree recycle.List[hopMem]

// HopTable maps every node to its BFS hop distance from a root node.
// Unreachable nodes have Hops[i] == -1.
type HopTable struct {
	Root NodeID
	Hops []int
}

// BuildHopTable runs a BFS from root over the connectivity graph: an edge
// joins two nodes whose squared distance is at most CommRadius².
//
// The search indexes the nodes in a private grid of cells a third of the
// communication radius wide, each holding a list of its still-unvisited
// nodes. Expanding a node tests only the unvisited nodes of the cells its
// radio disc can reach, and swap-removes each one as it receives its hop
// count, so every node is discovered once and the work per expansion
// shrinks as the frontier sweeps the field. The edge predicate is the same
// as a full neighborhood scan's, and BFS distances do not depend on the
// order neighbors are discovered in, so the table is exactly the one a
// plain BFS over Within queries produces (DESIGN.md §10).
func (nw *Network) BuildHopTable(root NodeID) *HopTable {
	n := len(nw.Nodes)
	hops := make([]int, n)
	for i := range hops {
		hops[i] = -1
	}
	r := nw.Cfg.CommRadius
	r2 := r * r
	w, h := nw.Cfg.Width, nw.Cfg.Height
	// Cells of r/3 fit the disc more tightly than r-wide cells (a 7×7
	// window instead of 3×3 cells of three times the area); the cell is
	// widened only when the field/radius ratio would make the grid far
	// larger than the node count.
	cell := r / 3
	for (w/cell+2)*(h/cell+2) > float64(4*n+1024) {
		cell *= 2
	}
	// A private grid whose buckets serve as the unvisited lists: the search
	// consumes them, so the network's shared grid is never touched. The grid
	// and the queue never leave the call, so they are recycled here.
	m := hopFree.Get()
	g := &m.grid
	g.reset(w, h, cell, nw.positions)
	unvisited := g.buckets
	rb := unvisited[g.idx[root]]
	for k, id := range rb {
		if id == root {
			rb[k] = rb[len(rb)-1]
			unvisited[g.idx[root]] = rb[:len(rb)-1]
			break
		}
	}
	hops[root] = 0

	// The window is padded by a hair over r so that rounding in the window
	// arithmetic can never exclude a node the exact predicate admits.
	reach := r * (1 + 1e-9)
	queue := append(slices.Grow(m.queue[:0], n), root)
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		p := nw.positions[cur]
		next := hops[cur] + 1
		cx0 := clampInt(int(math.Floor((p.X-reach)/cell)), 0, g.cols-1)
		cx1 := clampInt(int(math.Floor((p.X+reach)/cell)), 0, g.cols-1)
		cy0 := clampInt(int(math.Floor((p.Y-reach)/cell)), 0, g.rows-1)
		cy1 := clampInt(int(math.Floor((p.Y+reach)/cell)), 0, g.rows-1)
		for cy := cy0; cy <= cy1; cy++ {
			for c := cy*g.cols + cx0; c <= cy*g.cols+cx1; c++ {
				list := unvisited[c]
				for k := 0; k < len(list); {
					id := list[k]
					if nw.positions[id].Dist2(p) > r2 {
						k++
						continue
					}
					hops[id] = next
					queue = append(queue, id)
					list[k] = list[len(list)-1]
					list = list[:len(list)-1]
				}
				unvisited[c] = list
			}
		}
	}
	m.queue, m.grid.positions = queue, nil
	hopFree.Put(m)
	return &HopTable{Root: root, Hops: hops}
}

// HopsFrom returns the hop count from id to the table's root, or -1 when id
// is disconnected from it.
func (t *HopTable) HopsFrom(id NodeID) int { return t.Hops[id] }

// MaxHops returns the largest finite hop count in the table (H_max of
// Table I), or 0 when only the root is reachable.
func (t *HopTable) MaxHops() int {
	max := 0
	for _, h := range t.Hops {
		if h > max {
			max = h
		}
	}
	return max
}

// Reachable returns the number of nodes with a finite hop count, including
// the root.
func (t *HopTable) Reachable() int {
	n := 0
	for _, h := range t.Hops {
		if h >= 0 {
			n++
		}
	}
	return n
}

// RouteBytes transmits `bytes` of kind `kind` from node id toward the
// table's root, charging one transmission per hop (the convergecast cost
// D*H_i of Table I). It returns the number of hops charged and false when
// the node is disconnected from the root. Relay transmissions are charged to
// global statistics; per-node energy is charged to the source only (relay
// attribution is not needed by any experiment, and the aggregate energy is
// conserved by charging tx+rx per hop to the source's account).
func (nw *Network) RouteBytes(t *HopTable, from NodeID, kind MsgKind, bytes int) (int, bool) {
	h := t.HopsFrom(from)
	if h < 0 {
		return 0, false
	}
	for i := 0; i < h; i++ {
		nw.Stats.Record(kind, bytes)
	}
	if nw.Energy != nil && h > 0 {
		nw.Nodes[from].EnergyUsed += float64(h) * (nw.Energy.TxCost(bytes) + nw.Energy.RxCost(bytes))
	}
	return h, true
}
