package core

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/wsn"
)

// stepWithTarget feeds the tracker one iteration of observations for a
// target at the given position.
func stepWithTarget(t *testing.T, tr *Tracker, nw *wsn.Network, target mathx.Vec2, rng *mathx.RNG) StepResult {
	t.Helper()
	det := nw.ActiveNodesWithin(target, nw.Cfg.SensingRadius)
	obs := make([]Observation, len(det))
	for i, id := range det {
		obs[i] = Observation{Node: id, Bearing: tr.cfg.Sensor.Measure(nw.Node(id).Pos, target, rng)}
	}
	return tr.Step(obs, rng)
}

func TestMaxHoldersCap(t *testing.T) {
	nw := denseNetwork(t, 31)
	// White-box: seed more than maxHolders equal-weight holders; the cap
	// keeps exactly maxHolders, breaking weight ties by ascending node ID.
	tr, err := NewTracker(nw, DefaultConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	const seeded = maxHolders + 44
	for id := 0; id < seeded; id++ {
		tr.parts.add(wsn.NodeID(id), mathx.Vec2{}, 1)
	}
	if got := tr.capHolders(); got != seeded-maxHolders {
		t.Fatalf("capHolders removed %d, want %d", got, seeded-maxHolders)
	}
	holders := tr.Holders()
	if len(holders) != maxHolders || holders[0] != 0 || holders[maxHolders-1] != maxHolders-1 {
		t.Fatalf("kept %d holders, want IDs 0..%d", len(holders), maxHolders-1)
	}

	// Through Step: per-particle areas around more than maxHolders spread-out,
	// stationary particles record onto far more nodes than the cap, and the
	// propagation phase must bound the population to exactly maxHolders.
	cfg := DefaultConfig(false)
	cfg.PerParticleAreas = true
	tr, err = NewTracker(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stride := nw.Len() / seeded
	for i := 0; i < seeded; i++ {
		tr.parts.add(wsn.NodeID(i*stride), mathx.Vec2{}, 1)
	}
	rng := mathx.NewRNG(32)
	for k := 0; k < 3; k++ {
		res := tr.Step(nil, rng)
		if res.Holders != maxHolders || len(tr.Holders()) != maxHolders {
			t.Fatalf("coast iteration %d: holders %d (result %d), want the cap %d",
				k, len(tr.Holders()), res.Holders, maxHolders)
		}
	}
}

func TestWeightsStayFiniteAndPositive(t *testing.T) {
	nw := denseNetwork(t, 33)
	tr, _ := NewTracker(nw, DefaultConfig(false))
	rng := mathx.NewRNG(34)
	target := mathx.V2(30, 100)
	for k := 0; k < 8; k++ {
		stepWithTarget(t, tr, nw, target, rng)
		for _, id := range tr.Holders() {
			w := tr.Weight(id)
			if !(w > 0) || math.IsInf(w, 0) || math.IsNaN(w) {
				t.Fatalf("iteration %d: weight on %d is %v", k, id, w)
			}
		}
		target = target.Add(mathx.V2(15, 0))
	}
}

func TestGracePeriodPreventsReinitStorm(t *testing.T) {
	nw := denseNetwork(t, 35)
	tr, _ := NewTracker(nw, DefaultConfig(false))
	rng := mathx.NewRNG(36)
	// Initialize on one site, then teleport the target far away: the first
	// miss re-initializes; the freshly created cloud must get a grace
	// iteration (no second full drop immediately after).
	stepWithTarget(t, tr, nw, mathx.V2(40, 40), rng)
	resJump := stepWithTarget(t, tr, nw, mathx.V2(160, 160), rng)
	if resJump.Created == 0 {
		t.Skip("no detectors at the far site")
	}
	if tr.missedIters != -1 {
		t.Fatalf("grace period not armed after reinit: missedIters = %d", tr.missedIters)
	}
}

func TestNEWeightsFollowContributions(t *testing.T) {
	// White-box: after an NE weight assignment, the ratio of two surviving
	// non-detecting holders' weights must equal the ratio of their
	// contributions times the ratio of their corrected weights. With equal
	// corrected weights the ratio reduces to the contribution ratio.
	nw := denseNetwork(t, 37)
	cfg := DefaultConfig(true)
	tr, _ := NewTracker(nw, cfg)
	// Install two synthetic particles with equal weights near a predicted
	// position, then run assignNE directly.
	pred := mathx.V2(100, 100)
	cs := EstimateContributions(nw, pred, nw.Cfg.SensingRadius)
	if cs == nil || len(cs.Nodes) < 2 {
		t.Skip("estimation area too sparse")
	}
	a, b := cs.Nodes[0], cs.Nodes[1]
	tr.parts.add(a, mathx.Vec2{}, 0.5)
	tr.parts.add(b, mathx.Vec2{}, 0.5)
	res := StepResult{Predicted: pred, PredictedValid: true}
	tr.assignNE(nil, &res)
	wa, wb := tr.Weight(a), tr.Weight(b)
	if wa == 0 || wb == 0 {
		t.Fatal("holders inside the area were dropped")
	}
	wantRatio := cs.Of(a) / cs.Of(b)
	if math.Abs(wa/wb-wantRatio) > 1e-9 {
		t.Fatalf("weight ratio %v, want contribution ratio %v", wa/wb, wantRatio)
	}
}

func TestNEDropsHoldersOutsideArea(t *testing.T) {
	nw := denseNetwork(t, 38)
	tr, _ := NewTracker(nw, DefaultConfig(true))
	pred := mathx.V2(100, 100)
	inside := nw.NearestNode(pred)
	outside := nw.NearestNode(mathx.V2(30, 30))
	tr.parts.add(inside, mathx.Vec2{}, 0.5)
	tr.parts.add(outside, mathx.Vec2{}, 0.5)
	res := StepResult{Predicted: pred, PredictedValid: true}
	tr.assignNE(nil, &res)
	if tr.Weight(outside) != 0 {
		t.Fatal("holder outside the estimation area survived")
	}
	if tr.Weight(inside) == 0 {
		t.Fatal("holder inside the estimation area dropped")
	}
}

func TestPacketLossReducesOverhearing(t *testing.T) {
	// With heavy loss the overheard totals shrink but the filter still
	// produces estimates (robustness of the overhearing design).
	nw := denseNetwork(t, 39)
	nw.SetLossRate(0.4, 99)
	tr, _ := NewTracker(nw, DefaultConfig(false))
	rng := mathx.NewRNG(40)
	target := mathx.V2(30, 100)
	estimates := 0
	for k := 0; k < 8; k++ {
		res := stepWithTarget(t, tr, nw, target, rng)
		if res.EstimateValid {
			estimates++
		}
		target = target.Add(mathx.V2(15, 0))
	}
	if estimates < 5 {
		t.Fatalf("only %d estimates under 40%% loss", estimates)
	}
}

func TestHoldersSortedAndWeightsQueryable(t *testing.T) {
	nw := denseNetwork(t, 41)
	tr, _ := NewTracker(nw, DefaultConfig(false))
	rng := mathx.NewRNG(42)
	stepWithTarget(t, tr, nw, mathx.V2(30, 100), rng)
	hs := tr.Holders()
	for i := 1; i < len(hs); i++ {
		if hs[i] <= hs[i-1] {
			t.Fatal("Holders not strictly sorted")
		}
	}
	// Weight of a non-holder is zero.
	var nonHolder wsn.NodeID = -1
	for id := wsn.NodeID(0); int(id) < nw.Len(); id++ {
		held := false
		for _, h := range hs {
			if h == id {
				held = true
				break
			}
		}
		if !held {
			nonHolder = id
			break
		}
	}
	if nonHolder >= 0 && tr.Weight(nonHolder) != 0 {
		t.Fatal("non-holder has weight")
	}
}

// TestOverhearingConsistency encodes the paper's Section IV-A argument: with
// r_s <= r_c/2 and the propagation not reaching too far, every recorder
// overhears (nearly) every propagation broadcast, so the per-recorder totals
// used for normalization agree with the global total.
func TestOverhearingConsistency(t *testing.T) {
	nw := denseNetwork(t, 90)
	tr, _ := NewTracker(nw, DefaultConfig(false))
	rng := mathx.NewRNG(91)
	target := mathx.V2(100, 100) // centre of the field
	// Establish a steady track first.
	for k := 0; k < 3; k++ {
		stepWithTarget(t, tr, nw, target, rng)
		target = target.Add(mathx.V2(15, 0))
	}
	holders := tr.Holders()
	if len(holders) < 2 {
		t.Skip("too few holders for the consistency check")
	}
	// Reconstruct the broadcast set as propagate() would see it.
	var bcasts []bcast
	globalTotal := 0.0
	for _, id := range holders {
		bcasts = append(bcasts, bcast{id: id, pos: nw.Node(id).Pos, w: tr.Weight(id)})
		globalTotal += tr.Weight(id)
	}
	// Every holder (a guaranteed overhearing participant) must compute a
	// total within 10% of the global one.
	tr.gatherBcastColumns(bcasts)
	for _, id := range holders {
		local, _ := tr.overheardTotalCompute(id, bcasts)
		if math.Abs(local-globalTotal) > 0.1*globalTotal {
			t.Fatalf("holder %d overheard %v of global %v", id, local, globalTotal)
		}
	}
}
