package wsn

import (
	"math"
	"testing"

	"repro/internal/mathx"
)

func testNetwork(t *testing.T, density float64, seed uint64) *Network {
	t.Helper()
	nw, err := NewNetwork(DefaultConfig(density), mathx.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestConfigValidate(t *testing.T) {
	ok := DefaultConfig(10)
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := ok
	bad.Width = 0
	if bad.Validate() == nil {
		t.Fatal("zero width accepted")
	}
	bad = ok
	bad.Density = 0
	bad.NumNodes = 0
	if bad.Validate() == nil {
		t.Fatal("zero nodes accepted")
	}
	bad = ok
	bad.SensingRadius = 20 // > comm/2
	if bad.Validate() == nil {
		t.Fatal("sensing radius above comm/2 accepted (violates Section II-C2)")
	}
	bad = ok
	bad.CommRadius = -1
	if bad.Validate() == nil {
		t.Fatal("negative comm radius accepted")
	}
}

func TestDeploymentCountAndBounds(t *testing.T) {
	nw := testNetwork(t, 20, 1)
	// 20 nodes/100m² over 200x200 = 8000 nodes.
	if nw.Len() != 8000 {
		t.Fatalf("node count = %d, want 8000", nw.Len())
	}
	for _, nd := range nw.Nodes {
		p := nd.Pos
		if p.X < 0 || p.X >= 200 || p.Y < 0 || p.Y >= 200 {
			t.Fatalf("node %d outside field: %v", nd.ID, p)
		}
		if nd.State != Awake {
			t.Fatalf("node %d not awake after deployment", nd.ID)
		}
	}
	if d := nw.Density(); math.Abs(d-20) > 0.01 {
		t.Fatalf("Density = %v", d)
	}
}

func TestDeploymentExplicitCount(t *testing.T) {
	cfg := Config{Width: 100, Height: 100, NumNodes: 500, CommRadius: 30, SensingRadius: 10}
	nw, err := NewNetwork(cfg, mathx.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if nw.Len() != 500 {
		t.Fatalf("explicit count = %d", nw.Len())
	}
}

func TestDeploymentDeterministic(t *testing.T) {
	a := testNetwork(t, 5, 99)
	b := testNetwork(t, 5, 99)
	for i := range a.Nodes {
		if a.Nodes[i].Pos != b.Nodes[i].Pos {
			t.Fatal("same-seed deployments differ")
		}
	}
}

func TestNodesWithinMatchesBruteForce(t *testing.T) {
	nw := testNetwork(t, 10, 3)
	rng := mathx.NewRNG(4)
	for trial := 0; trial < 25; trial++ {
		p := mathx.V2(rng.Uniform(0, 200), rng.Uniform(0, 200))
		r := rng.Uniform(1, 60)
		got := nw.NodesWithin(p, r)
		gotSet := make(map[NodeID]bool, len(got))
		for _, id := range got {
			if gotSet[id] {
				t.Fatalf("duplicate ID %d in range query", id)
			}
			gotSet[id] = true
		}
		count := 0
		for _, nd := range nw.Nodes {
			if nd.Pos.Dist(p) <= r {
				count++
				if !gotSet[nd.ID] {
					t.Fatalf("grid missed node %d at dist %v <= %v", nd.ID, nd.Pos.Dist(p), r)
				}
			}
		}
		if count != len(got) {
			t.Fatalf("grid returned %d nodes, brute force %d", len(got), count)
		}
	}
}

func TestWithinSegmentMatchesBruteForce(t *testing.T) {
	nw := testNetwork(t, 10, 5)
	rng := mathx.NewRNG(6)
	for trial := 0; trial < 25; trial++ {
		a := mathx.V2(rng.Uniform(0, 200), rng.Uniform(0, 200))
		b := a.Add(mathx.Polar(rng.Uniform(0, 30), rng.Uniform(-math.Pi, math.Pi)))
		r := rng.Uniform(1, 15)
		got := nw.grid.WithinSegment(a, b, r, nil)
		gotSet := make(map[NodeID]bool, len(got))
		for _, id := range got {
			gotSet[id] = true
		}
		count := 0
		for _, nd := range nw.Nodes {
			if mathx.SegmentPointDist(a, b, nd.Pos) <= r {
				count++
				if !gotSet[nd.ID] {
					t.Fatalf("segment query missed node %d", nd.ID)
				}
			}
		}
		if count != len(got) {
			t.Fatalf("segment query returned %d, brute force %d", len(got), count)
		}
	}
}

func TestNeighborsExcludesSelfAndInactive(t *testing.T) {
	nw := testNetwork(t, 10, 7)
	id := NodeID(100)
	nbrs := nw.Neighbors(id)
	if len(nbrs) == 0 {
		t.Fatal("dense network node has no neighbors")
	}
	for _, nb := range nbrs {
		if nb == id {
			t.Fatal("Neighbors includes self")
		}
		if nw.Node(nb).Pos.Dist(nw.Node(id).Pos) > nw.Cfg.CommRadius {
			t.Fatal("neighbor outside communication radius")
		}
	}
	// Put one neighbor to sleep; it must disappear.
	victim := nbrs[0]
	nw.Node(victim).State = Asleep
	for _, nb := range nw.Neighbors(id) {
		if nb == victim {
			t.Fatal("sleeping node still returned as neighbor")
		}
	}
	nw.Node(victim).State = Failed
	for _, nb := range nw.Neighbors(id) {
		if nb == victim {
			t.Fatal("failed node still returned as neighbor")
		}
	}
}

func TestActiveNodesWithin(t *testing.T) {
	nw := testNetwork(t, 10, 8)
	p := mathx.V2(100, 100)
	all := nw.NodesWithin(p, 20)
	if len(all) == 0 {
		t.Fatal("no nodes near center of dense field")
	}
	nw.Node(all[0]).State = Asleep
	active := nw.ActiveNodesWithin(p, 20)
	if len(active) != len(all)-1 {
		t.Fatalf("active = %d, want %d", len(active), len(all)-1)
	}
}

func TestDetectingNodes(t *testing.T) {
	nw := testNetwork(t, 20, 9)
	segs := [][2]mathx.Vec2{
		{mathx.V2(50, 100), mathx.V2(65, 100)},
		{mathx.V2(65, 100), mathx.V2(80, 100)},
	}
	det := nw.DetectingNodes(segs)
	if len(det) == 0 {
		t.Fatal("no detections in dense field")
	}
	seen := make(map[NodeID]bool)
	for _, id := range det {
		if seen[id] {
			t.Fatal("duplicate detection across overlapping segments")
		}
		seen[id] = true
		// Verify the node is actually within sensing range of some segment.
		ok := false
		for _, s := range segs {
			if mathx.SegmentPointDist(s[0], s[1], nw.Node(id).Pos) <= nw.Cfg.SensingRadius {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("node %d detected without sensing coverage", id)
		}
	}
	// Sleeping nodes never detect (instant detection requires being awake).
	victim := det[0]
	nw.Node(victim).State = Asleep
	for _, id := range nw.DetectingNodes(segs) {
		if id == victim {
			t.Fatal("sleeping node detected the target")
		}
	}
}

func TestNearestNode(t *testing.T) {
	nw := testNetwork(t, 5, 10)
	rng := mathx.NewRNG(11)
	for trial := 0; trial < 10; trial++ {
		p := mathx.V2(rng.Uniform(0, 200), rng.Uniform(0, 200))
		got := nw.NearestNode(p)
		bestD := math.Inf(1)
		var best NodeID
		for _, nd := range nw.Nodes {
			if d := nd.Pos.Dist(p); d < bestD {
				bestD, best = d, nd.ID
			}
		}
		if got != best {
			t.Fatalf("NearestNode(%v) = %d (d=%v), want %d (d=%v)",
				p, got, nw.Node(got).Pos.Dist(p), best, bestD)
		}
	}
}

func TestResetStates(t *testing.T) {
	nw := testNetwork(t, 5, 12)
	nw.Node(0).State = Failed
	nw.Node(1).State = Asleep
	nw.Node(2).EnergyUsed = 42
	nw.ResetStates()
	if nw.Node(0).State != Awake || nw.Node(1).State != Awake || nw.Node(2).EnergyUsed != 0 {
		t.Fatal("ResetStates incomplete")
	}
}

func TestApplyDrift(t *testing.T) {
	nw := testNetwork(t, 5, 60)
	before := make([]mathx.Vec2, nw.Len())
	for i, nd := range nw.Nodes {
		before[i] = nd.Pos
	}
	rng := mathx.NewRNG(61)
	nw.ApplyDrift(1.0, rng)
	moved := 0
	var drift []float64
	for i, nd := range nw.Nodes {
		d := nd.Pos.Dist(before[i])
		if d > 0 {
			moved++
		}
		drift = append(drift, d)
		if nd.Pos.X < 0 || nd.Pos.X > nw.Cfg.Width || nd.Pos.Y < 0 || nd.Pos.Y > nw.Cfg.Height {
			t.Fatalf("node %d drifted out of the field: %v", i, nd.Pos)
		}
	}
	if moved < nw.Len()*9/10 {
		t.Fatalf("only %d of %d nodes moved", moved, nw.Len())
	}
	// Mean 2-D displacement for sigma=1 is sigma*sqrt(pi/2) ~ 1.25.
	if m := mathx.Mean(drift); m < 0.9 || m > 1.6 {
		t.Fatalf("mean drift = %v", m)
	}
	// The spatial index must be rebuilt: range queries still match brute force.
	p := mathx.V2(100, 100)
	got := nw.NodesWithin(p, 25)
	count := 0
	for _, nd := range nw.Nodes {
		if nd.Pos.Dist(p) <= 25 {
			count++
		}
	}
	if len(got) != count {
		t.Fatalf("post-drift grid query %d vs brute force %d", len(got), count)
	}
	// Zero sigma is a no-op.
	pos0 := nw.Node(0).Pos
	nw.ApplyDrift(0, rng)
	if nw.Node(0).Pos != pos0 {
		t.Fatal("zero drift moved a node")
	}
}

// TestReleaseTwiceIsNoOp checks that releasing a network a second time
// hands nothing back again: two later networks must not share memory.
func TestReleaseTwiceIsNoOp(t *testing.T) {
	nw, err := NewNetwork(DefaultConfig(5), mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	nw.Release()
	nw.Release()
	if nw.Nodes != nil {
		t.Fatal("a released network still exposes its nodes")
	}
	a, err := NewNetwork(DefaultConfig(5), mathx.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNetwork(DefaultConfig(5), mathx.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Nodes[0] == b.Nodes[0] || &a.positions[0] == &b.positions[0] || a.grid == b.grid {
		t.Error("two networks share recycled memory after a double Release")
	}
}
