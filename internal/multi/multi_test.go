package multi

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/statex"
	"repro/internal/wsn"
)

func multiNetwork(t *testing.T, seed uint64) *wsn.Network {
	t.Helper()
	nw, err := wsn.NewNetwork(wsn.DefaultConfig(20), mathx.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// observe builds observations for multiple targets: each node within sensing
// range of any target measures the bearing to its nearest one.
func observe(nw *wsn.Network, sensor statex.BearingSensor, targets []mathx.Vec2, rng *mathx.RNG) []core.Observation {
	seen := map[wsn.NodeID]mathx.Vec2{}
	for _, tg := range targets {
		for _, id := range nw.ActiveNodesWithin(tg, nw.Cfg.SensingRadius) {
			if prev, ok := seen[id]; !ok || nw.Node(id).Pos.Dist(tg) < nw.Node(id).Pos.Dist(prev) {
				seen[id] = tg
			}
		}
	}
	var obs []core.Observation
	for id, tg := range seen {
		obs = append(obs, core.Observation{Node: id, Bearing: sensor.Measure(nw.Node(id).Pos, tg, rng)})
	}
	return obs
}

func TestConfigValidation(t *testing.T) {
	nw := multiNetwork(t, 1)
	bad := DefaultConfig(false)
	bad.Tracker.Dt = 0
	if _, err := NewManager(nw, bad); err == nil {
		t.Fatal("invalid per-track tracker config accepted")
	}
	ok, err := NewManager(nw, DefaultConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	if ok.gate != 3*nw.Cfg.SensingRadius {
		t.Fatalf("gate = %v, want three sensing radii", ok.gate)
	}
}

func TestTwoTargetsTwoTracks(t *testing.T) {
	nw := multiNetwork(t, 2)
	mgr, err := NewManager(nw, DefaultConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	sensor := statex.BearingSensor{SigmaN: 0.05}
	rng := mathx.NewRNG(3)
	obsRNG := mathx.NewRNG(4)

	// Two targets far apart, both moving east at 3 m/s.
	t1 := mathx.V2(20, 50)
	t2 := mathx.V2(20, 150)
	const dt = 5.0
	for k := 0; k < 8; k++ {
		obs := observe(nw, sensor, []mathx.Vec2{t1, t2}, obsRNG)
		tracks := mgr.Step(obs, rng)
		if k >= 2 {
			if len(tracks) != 2 {
				t.Fatalf("k=%d: %d tracks, want 2", k, len(tracks))
			}
			// Each target must be claimed by a distinct nearby track.
			for _, tg := range []mathx.Vec2{t1, t2} {
				found := false
				for _, tr := range tracks {
					if tr.EstimateValid && tr.Estimate.Dist(tg) < 25 {
						found = true
					}
				}
				if !found {
					t.Fatalf("k=%d: no track near target %v", k, tg)
				}
			}
		}
		t1 = t1.Add(mathx.V2(3*dt, 0))
		t2 = t2.Add(mathx.V2(3*dt, 0))
	}
}

func TestTrackAccuracyPerTarget(t *testing.T) {
	nw := multiNetwork(t, 5)
	mgr, _ := NewManager(nw, DefaultConfig(false))
	sensor := statex.BearingSensor{SigmaN: 0.05}
	rng := mathx.NewRNG(6)
	obsRNG := mathx.NewRNG(7)

	pos := []mathx.Vec2{{X: 30, Y: 60}, {X: 170, Y: 140}}
	vel := []mathx.Vec2{{X: 3, Y: 0.5}, {X: -3, Y: -0.5}}
	const dt = 5.0
	var errs []float64
	var prev []mathx.Vec2
	for k := 0; k < 8; k++ {
		obs := observe(nw, sensor, pos, obsRNG)
		tracks := mgr.Step(obs, rng)
		// Estimates lag one iteration: compare against the previous truth.
		if k >= 2 && prev != nil {
			for _, tg := range prev {
				best := math.Inf(1)
				for _, tr := range tracks {
					if tr.EstimateValid {
						if d := tr.Estimate.Dist(tg); d < best {
							best = d
						}
					}
				}
				errs = append(errs, best)
			}
		}
		prev = append([]mathx.Vec2{}, pos...)
		for i := range pos {
			pos[i] = pos[i].Add(vel[i].Scale(dt))
		}
	}
	if len(errs) < 8 {
		t.Fatalf("only %d per-target errors", len(errs))
	}
	if rms := mathx.RMS(errs); rms > 10 {
		t.Fatalf("multi-target RMSE = %.2f", rms)
	}
}

func TestTrackRetirement(t *testing.T) {
	nw := multiNetwork(t, 8)
	mgr, _ := NewManager(nw, DefaultConfig(false))
	sensor := statex.BearingSensor{SigmaN: 0.05}
	rng := mathx.NewRNG(9)
	obsRNG := mathx.NewRNG(10)

	tg := mathx.V2(100, 100)
	for k := 0; k < 3; k++ {
		mgr.Step(observe(nw, sensor, []mathx.Vec2{tg}, obsRNG), rng)
		tg = tg.Add(mathx.V2(15, 0))
	}
	if len(mgr.Tracks()) != 1 {
		t.Fatalf("tracks = %d, want 1", len(mgr.Tracks()))
	}
	// Target disappears: the track survives two empty steps and retires on
	// the third.
	for k := 1; k <= 3; k++ {
		mgr.Step(nil, rng)
		want := 1
		if k == 3 {
			want = 0
		}
		if live := len(mgr.Tracks()); live != want {
			t.Fatalf("after %d empty steps: %d live tracks, want %d", k, live, want)
		}
	}
}

func TestClutterSuppression(t *testing.T) {
	nw := multiNetwork(t, 11)
	mgr, _ := NewManager(nw, DefaultConfig(false))
	rng := mathx.NewRNG(12)
	// A single isolated spurious detection must not start a track.
	lone := nw.NearestNode(mathx.V2(100, 100))
	mgr.Step([]core.Observation{{Node: lone, Bearing: 0.3}}, rng)
	if len(mgr.Tracks()) != 0 {
		t.Fatal("clutter started a track")
	}
	// Two mutually close detections are the smallest cluster that does.
	mgr, _ = NewManager(nw, DefaultConfig(false))
	pair := nw.ActiveNodesWithin(nw.Node(lone).Pos, 3)
	if len(pair) < 2 {
		t.Skip("no second node near the clutter site")
	}
	mgr.Step([]core.Observation{{Node: pair[0], Bearing: 0.3}, {Node: pair[1], Bearing: 0.3}}, rng)
	if len(mgr.Tracks()) != 1 {
		t.Fatalf("two-detection cluster started %d tracks, want 1", len(mgr.Tracks()))
	}
}

func TestClustersPartition(t *testing.T) {
	nw := multiNetwork(t, 13)
	mgr, _ := NewManager(nw, DefaultConfig(false))
	// Build observations at two far-apart sites.
	var obs []core.Observation
	for _, c := range []mathx.Vec2{{X: 40, Y: 40}, {X: 160, Y: 160}} {
		for _, id := range nw.ActiveNodesWithin(c, 8) {
			obs = append(obs, core.Observation{Node: id})
		}
	}
	cls := mgr.clusters(obs)
	if len(cls) != 2 {
		t.Fatalf("clusters = %d, want 2", len(cls))
	}
	total := 0
	for _, cl := range cls {
		total += len(cl)
	}
	if total != len(obs) {
		t.Fatalf("clusters cover %d of %d observations", total, len(obs))
	}
	if mgr.clusters(nil) != nil {
		t.Fatal("empty clusters should be nil")
	}
}

func TestCrossingTargetsKeepTwoTracks(t *testing.T) {
	// Targets pass near each other; tracks may swap identity, but the
	// manager must not collapse below two live tracks while both are
	// observable, and estimates must stay near *some* target.
	nw := multiNetwork(t, 14)
	mgr, _ := NewManager(nw, DefaultConfig(false))
	sensor := statex.BearingSensor{SigmaN: 0.05}
	rng := mathx.NewRNG(15)
	obsRNG := mathx.NewRNG(16)

	p1 := mathx.V2(40, 70)
	p2 := mathx.V2(40, 130)
	v1 := mathx.V2(3, 0.9) // converging paths
	v2 := mathx.V2(3, -0.9)
	const dt = 5.0
	for k := 0; k < 9; k++ {
		obs := observe(nw, sensor, []mathx.Vec2{p1, p2}, obsRNG)
		tracks := mgr.Step(obs, rng)
		if k >= 2 && p1.Dist(p2) > 25 {
			if len(tracks) < 2 {
				t.Fatalf("k=%d: collapsed to %d tracks while targets %0.f m apart",
					k, len(tracks), p1.Dist(p2))
			}
		}
		p1 = p1.Add(v1.Scale(dt))
		p2 = p2.Add(v2.Scale(dt))
	}
}
