package wsn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mathx"
)

// referenceHops is the plain BFS BuildHopTable must reproduce: a FIFO queue
// expanding every dequeued node over a full Within query of the network's
// shared grid.
func referenceHops(nw *Network, root NodeID) []int {
	hops := make([]int, len(nw.Nodes))
	for i := range hops {
		hops[i] = -1
	}
	hops[root] = 0
	queue := []NodeID{root}
	var buf []NodeID
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		buf = nw.grid.Within(nw.Nodes[cur].Pos, nw.Cfg.CommRadius, buf[:0])
		for _, nb := range buf {
			if hops[nb] == -1 {
				hops[nb] = hops[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return hops
}

// TestHopTableMatchesReferenceBFS pins the unvisited-list BFS to the plain
// BFS entry for entry: sparse deployments with disconnected (-1) nodes up to
// the paper's densest field, three roots each, a drifted network, and a
// network with failed and asleep nodes (the table ignores node state).
func TestHopTableMatchesReferenceBFS(t *testing.T) {
	check := func(t *testing.T, nw *Network, root NodeID) {
		t.Helper()
		got := nw.BuildHopTable(root)
		if got.Root != root {
			t.Fatalf("root %d: table root = %d", root, got.Root)
		}
		want := referenceHops(nw, root)
		for i := range want {
			if got.Hops[i] != want[i] {
				t.Fatalf("root %d: node %d hops = %d, reference BFS = %d", root, i, got.Hops[i], want[i])
			}
		}
	}
	roots := func(nw *Network) []NodeID {
		return []NodeID{nw.NearestNode(nw.Center()), 0, NodeID(nw.Len() - 1)}
	}
	disconnected := false
	for _, density := range []float64{0.1, 0.5, 1, 2, 5, 10, 20, 40} {
		seeds := []uint64{1, 2, 3}
		if density >= 20 {
			seeds = seeds[:2]
		}
		for _, seed := range seeds {
			nw := testNetwork(t, density, seed)
			for _, root := range roots(nw) {
				check(t, nw, root)
			}
			disconnected = disconnected || nw.BuildHopTable(0).Reachable() < nw.Len()
		}
	}
	if !disconnected {
		t.Fatal("no case produced a disconnected node")
	}

	t.Run("drift", func(t *testing.T) {
		nw := testNetwork(t, 5, 11)
		rng := mathx.NewRNG(12)
		for i := 0; i < 3; i++ {
			nw.ApplyDrift(4, rng)
			for _, root := range roots(nw) {
				check(t, nw, root)
			}
		}
	})
	t.Run("node-states", func(t *testing.T) {
		nw := testNetwork(t, 10, 13)
		for i, nd := range nw.Nodes {
			switch i % 3 {
			case 1:
				nd.State = Failed
			case 2:
				nd.State = Asleep
			}
		}
		for _, root := range roots(nw) {
			check(t, nw, root)
		}
	})
}

// BenchmarkBuildHopTable times one hop table from the central sink, the
// per-cell setup cost of CPF, DPF and the EKF reference.
func BenchmarkBuildHopTable(b *testing.B) {
	for _, density := range []float64{20, 40} {
		b.Run(fmt.Sprintf("density=%g", density), func(b *testing.B) {
			nw, err := NewNetwork(DefaultConfig(density), mathx.NewRNG(1))
			if err != nil {
				b.Fatal(err)
			}
			sink := nw.NearestNode(nw.Center())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nw.BuildHopTable(sink)
			}
		})
	}
}

func TestHopTableBasics(t *testing.T) {
	nw := testNetwork(t, 10, 40)
	sink := nw.NearestNode(nw.Center())
	ht := nw.BuildHopTable(sink)
	if ht.HopsFrom(sink) != 0 {
		t.Fatalf("root hops = %d", ht.HopsFrom(sink))
	}
	// In this dense deployment every node should be connected.
	if ht.Reachable() != nw.Len() {
		t.Fatalf("reachable = %d of %d", ht.Reachable(), nw.Len())
	}
	// Paper's observation: in a 200x200 field with r=30, any node reaches
	// the central sink within at most ~5 hops (the paper says four; BFS can
	// be one more on sparse corners).
	if ht.MaxHops() > 6 {
		t.Fatalf("MaxHops = %d, want small", ht.MaxHops())
	}
	// Hop counts are at least the geometric lower bound ceil(d/r).
	for _, nd := range nw.Nodes {
		d := nd.Pos.Dist(nw.Node(sink).Pos)
		lb := int(math.Ceil(d / nw.Cfg.CommRadius))
		if ht.HopsFrom(nd.ID) < lb {
			t.Fatalf("node %d hops %d below geometric bound %d", nd.ID, ht.HopsFrom(nd.ID), lb)
		}
	}
}

func TestHopTableNeighborConsistency(t *testing.T) {
	nw := testNetwork(t, 5, 41)
	sink := NodeID(0)
	ht := nw.BuildHopTable(sink)
	// BFS property: hop counts of radio neighbors differ by at most 1.
	for _, nd := range nw.Nodes {
		if ht.HopsFrom(nd.ID) < 0 {
			continue
		}
		for _, nb := range nw.NodesWithin(nd.Pos, nw.Cfg.CommRadius) {
			if nb == nd.ID || ht.HopsFrom(nb) < 0 {
				continue
			}
			if diff := ht.HopsFrom(nd.ID) - ht.HopsFrom(nb); diff > 1 || diff < -1 {
				t.Fatalf("neighbor hop counts differ by %d", diff)
			}
		}
	}
}

func TestHopTableDisconnected(t *testing.T) {
	// Two nodes farther apart than the communication radius: unreachable.
	cfg := Config{Width: 200, Height: 200, NumNodes: 2, CommRadius: 30, SensingRadius: 10}
	var nw *Network
	// Retry seeds until the two random nodes are actually far apart.
	for seed := uint64(1); ; seed++ {
		n, err := NewNetwork(cfg, mathx.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		if n.Nodes[0].Pos.Dist(n.Nodes[1].Pos) > 30 {
			nw = n
			break
		}
	}
	ht := nw.BuildHopTable(0)
	if ht.HopsFrom(1) != -1 {
		t.Fatal("disconnected node has finite hops")
	}
	if ht.Reachable() != 1 {
		t.Fatalf("Reachable = %d", ht.Reachable())
	}
	if hops, ok := nw.RouteBytes(ht, 1, MsgMeasurement, 4); ok || hops != 0 {
		t.Fatal("routing from disconnected node succeeded")
	}
	if nw.Stats.TotalMsgs() != 0 {
		t.Fatal("failed route was counted")
	}
}

func TestRouteBytesChargesPerHop(t *testing.T) {
	nw := testNetwork(t, 10, 42)
	nw.Energy = DefaultEnergyModel()
	sink := nw.NearestNode(nw.Center())
	ht := nw.BuildHopTable(sink)
	// Find a multi-hop node.
	var src NodeID = -1
	for _, nd := range nw.Nodes {
		if ht.HopsFrom(nd.ID) >= 3 {
			src = nd.ID
			break
		}
	}
	if src < 0 {
		t.Skip("no multi-hop node found")
	}
	h := ht.HopsFrom(src)
	hops, ok := nw.RouteBytes(ht, src, MsgMeasurement, 4)
	if !ok || hops != h {
		t.Fatalf("RouteBytes hops = %d ok=%v, want %d", hops, ok, h)
	}
	if nw.Stats.Msgs[MsgMeasurement] != int64(h) {
		t.Fatalf("messages = %d, want %d (one per hop)", nw.Stats.Msgs[MsgMeasurement], h)
	}
	if nw.Stats.Bytes[MsgMeasurement] != int64(4*h) {
		t.Fatalf("bytes = %d, want %d", nw.Stats.Bytes[MsgMeasurement], 4*h)
	}
	wantE := float64(h) * (nw.Energy.TxCost(4) + nw.Energy.RxCost(4))
	if math.Abs(nw.Node(src).EnergyUsed-wantE) > 1e-9 {
		t.Fatalf("energy = %v, want %v", nw.Node(src).EnergyUsed, wantE)
	}
	// Routing from the sink itself costs nothing.
	before := nw.Stats.TotalMsgs()
	if hops, ok := nw.RouteBytes(ht, sink, MsgMeasurement, 4); !ok || hops != 0 {
		t.Fatal("sink self-route wrong")
	}
	if nw.Stats.TotalMsgs() != before {
		t.Fatal("zero-hop route was counted")
	}
}
