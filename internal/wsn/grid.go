package wsn

import (
	"math"

	"repro/internal/mathx"
	"repro/internal/recycle"
)

// Grid is a uniform spatial hash over node positions supporting
// O(candidates) circular range queries. Cell size is chosen close to the
// query radius so a query touches at most 9 cells' worth of candidates.
type Grid struct {
	cell       float64
	cols, rows int
	minX, minY float64
	buckets    [][]NodeID
	positions  []mathx.Vec2 // indexed by NodeID

	// backing/counts/idx implement the counting bucket layout: every bucket
	// is a capacity-limited window into one shared backing array (one
	// allocation for the whole grid instead of one per occupied bucket),
	// re-sliced from fresh counts on every build; idx caches each node's
	// bucket index between the counting and filling passes.
	backing []NodeID
	counts  []int32
	idx     []int32
}

// reset indexes the given positions over the bounding box
// [0,width] x [0,height] with the given cell size, reusing g's arrays where
// their capacity suffices.
func (g *Grid) reset(width, height, cell float64, positions []mathx.Vec2) {
	if cell <= 0 {
		panic("wsn: grid cell size must be positive")
	}
	cols := int(math.Ceil(width/cell)) + 1
	rows := int(math.Ceil(height/cell)) + 1
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	g.cell, g.cols, g.rows = cell, cols, rows
	g.positions = positions
	g.buckets = recycle.Slice(g.buckets, cols*rows)
	g.backing = recycle.Slice(g.backing, len(positions))
	g.counts = recycle.Slice(g.counts, cols*rows)
	g.idx = recycle.Slice(g.idx, len(positions))
	g.layout(positions)
}

// layout counts nodes per bucket, slices the shared backing array into
// per-bucket windows, and fills them — one allocation-free pass replacing a
// growing slice per occupied bucket, which cost an allocation (and several
// growth copies) per bucket and dominated the scenario-build profile.
// Per-bucket insertion order stays ascending ID, so query candidate order is
// unchanged.
func (g *Grid) layout(positions []mathx.Vec2) {
	for i := range g.counts {
		g.counts[i] = 0
	}
	for id, p := range positions {
		idx := g.bucketIndex(p)
		g.idx[id] = int32(idx)
		g.counts[idx]++
	}
	off := 0
	for i, c := range g.counts {
		g.buckets[i] = g.backing[off : off : off+int(c)]
		off += int(c)
	}
	for id := range positions {
		idx := g.idx[id]
		g.buckets[idx] = append(g.buckets[idx], NodeID(id))
	}
}

// Rebuild re-indexes the grid over the given positions, reusing the existing
// bucket storage. Positions must have the same length as the slice the grid
// was built with; insertion order (ascending ID per bucket) matches reset,
// so a rebuilt grid answers queries in the same candidate order.
func (g *Grid) Rebuild(positions []mathx.Vec2) {
	if len(positions) != len(g.positions) {
		panic("wsn: grid rebuild with mismatched position count")
	}
	g.positions = positions
	g.layout(positions)
}

func (g *Grid) bucketIndex(p mathx.Vec2) int {
	cx := int(math.Floor((p.X - g.minX) / g.cell))
	cy := int(math.Floor((p.Y - g.minY) / g.cell))
	cx = clampInt(cx, 0, g.cols-1)
	cy = clampInt(cy, 0, g.rows-1)
	return cy*g.cols + cx
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Within appends to dst the IDs of all indexed nodes with distance <= r from
// p and returns the extended slice. Results are in ascending ID order within
// each visited bucket but not globally sorted.
func (g *Grid) Within(p mathx.Vec2, r float64, dst []NodeID) []NodeID {
	if r < 0 {
		return dst
	}
	r2 := r * r
	cx0 := clampInt(int(math.Floor((p.X-g.minX-r)/g.cell)), 0, g.cols-1)
	cx1 := clampInt(int(math.Floor((p.X-g.minX+r)/g.cell)), 0, g.cols-1)
	cy0 := clampInt(int(math.Floor((p.Y-g.minY-r)/g.cell)), 0, g.rows-1)
	cy1 := clampInt(int(math.Floor((p.Y-g.minY+r)/g.cell)), 0, g.rows-1)
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			for _, id := range g.buckets[cy*g.cols+cx] {
				if g.positions[id].Dist2(p) <= r2 {
					dst = append(dst, id)
				}
			}
		}
	}
	return dst
}

// WithinSegment appends the IDs of nodes whose distance to segment [a, b] is
// at most r — the instant-detection query: which sensing discs did the
// target's motion segment cross?
func (g *Grid) WithinSegment(a, b mathx.Vec2, r float64, dst []NodeID) []NodeID {
	if r < 0 {
		return dst
	}
	minX := math.Min(a.X, b.X) - r
	maxX := math.Max(a.X, b.X) + r
	minY := math.Min(a.Y, b.Y) - r
	maxY := math.Max(a.Y, b.Y) + r
	cx0 := clampInt(int(math.Floor((minX-g.minX)/g.cell)), 0, g.cols-1)
	cx1 := clampInt(int(math.Floor((maxX-g.minX)/g.cell)), 0, g.cols-1)
	cy0 := clampInt(int(math.Floor((minY-g.minY)/g.cell)), 0, g.rows-1)
	cy1 := clampInt(int(math.Floor((maxY-g.minY)/g.cell)), 0, g.rows-1)
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			for _, id := range g.buckets[cy*g.cols+cx] {
				if mathx.SegmentPointDist(a, b, g.positions[id]) <= r {
					dst = append(dst, id)
				}
			}
		}
	}
	return dst
}
