package core

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/statex"
	"repro/internal/wsn"
)

func denseNetwork(t *testing.T, seed uint64) *wsn.Network {
	t.Helper()
	nw, err := wsn.NewNetwork(wsn.DefaultConfig(20), mathx.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestConfigValidation(t *testing.T) {
	nw := denseNetwork(t, 1)
	bad := DefaultConfig(false)
	bad.Dt = 0
	if _, err := NewTracker(nw, bad); err == nil {
		t.Fatal("Dt=0 accepted")
	}
	bad = DefaultConfig(false)
	bad.Sensor = statex.BearingSensor{SigmaN: 0}
	if _, err := NewTracker(nw, bad); err == nil {
		t.Fatal("SigmaN=0 accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	nw := denseNetwork(t, 2)
	tr, err := NewTracker(nw, Config{Dt: 5, Sensor: statex.BearingSensor{SigmaN: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.cfg.VelSmoothing != 0.5 || tr.cfg.NEDetectBoost != 1000 || tr.cfg.QuantSigma != DensityQuantSigma(nw) {
		t.Fatalf("defaults = %+v", tr.cfg)
	}
	if tr.cfg.Sizes != wsn.PaperMsgSizes() {
		t.Fatalf("sizes default = %+v", tr.cfg.Sizes)
	}
}

func TestInitializationStep(t *testing.T) {
	nw := denseNetwork(t, 3)
	tr, err := NewTracker(nw, DefaultConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	target := mathx.V2(30, 100)
	det := nw.ActiveNodesWithin(target, nw.Cfg.SensingRadius)
	if len(det) == 0 {
		t.Skip("no detectors")
	}
	rng := mathx.NewRNG(4)
	obs := make([]Observation, len(det))
	for i, id := range det {
		obs[i] = Observation{Node: id, Bearing: tr.cfg.Sensor.Measure(nw.Node(id).Pos, target, rng)}
	}
	res := tr.Step(obs, rng)
	if res.EstimateValid {
		t.Fatal("estimate produced at the initialization step")
	}
	if res.Created != len(det) {
		t.Fatalf("created %d particles, want %d", res.Created, len(det))
	}
	if res.Holders != len(det) {
		t.Fatalf("holders = %d", res.Holders)
	}
	for _, id := range det {
		if tr.Weight(id) != initWeight {
			t.Fatalf("init weight on %d = %v", id, tr.Weight(id))
		}
	}
	// Initialization transmits nothing: no particles to propagate, and the
	// likelihood step has no holders to share measurements.
	if nw.Stats.TotalMsgs() != 0 {
		t.Fatalf("init transmitted %d msgs", nw.Stats.TotalMsgs())
	}
}

func TestSecondStepProducesLaggedEstimate(t *testing.T) {
	nw := denseNetwork(t, 5)
	tr, _ := NewTracker(nw, DefaultConfig(false))
	rng := mathx.NewRNG(6)

	t0 := mathx.V2(30, 100)
	t1 := mathx.V2(45, 100)
	mkObs := func(target mathx.Vec2) []Observation {
		det := nw.ActiveNodesWithin(target, nw.Cfg.SensingRadius)
		obs := make([]Observation, len(det))
		for i, id := range det {
			obs[i] = Observation{Node: id, Bearing: tr.cfg.Sensor.Measure(nw.Node(id).Pos, target, rng)}
		}
		return obs
	}
	tr.Step(mkObs(t0), rng)
	res := tr.Step(mkObs(t1), rng)
	if !res.EstimateValid {
		t.Fatal("no estimate at second iteration")
	}
	// The estimate is for iteration 0; it must be near t0, not t1.
	if d := res.Estimate.Dist(t0); d > nw.Cfg.SensingRadius {
		t.Fatalf("lagged estimate %v is %v m from t0", res.Estimate, d)
	}
	if res.Estimate.Dist(t0) > res.Estimate.Dist(t1) {
		// t0 and t1 are 15 m apart; the estimate of iteration 0 should be
		// closer to t0.
		t.Fatalf("estimate %v closer to t1 than t0", res.Estimate)
	}
}

func TestPropagationTransmitsParticleAndWeightBytes(t *testing.T) {
	nw := denseNetwork(t, 7)
	tr, _ := NewTracker(nw, DefaultConfig(false))
	rng := mathx.NewRNG(8)
	target := mathx.V2(30, 100)
	det := nw.ActiveNodesWithin(target, nw.Cfg.SensingRadius)
	obs := make([]Observation, len(det))
	for i, id := range det {
		obs[i] = Observation{Node: id, Bearing: tr.cfg.Sensor.Measure(nw.Node(id).Pos, target, rng)}
	}
	tr.Step(obs, rng)
	holdersBefore := int64(len(tr.Holders()))
	nw.Stats.Reset()
	tr.Step(nil, rng) // propagation only (no detections)
	sizes := tr.cfg.Sizes
	if nw.Stats.Msgs[wsn.MsgParticle] != holdersBefore {
		t.Fatalf("propagation messages = %d, want %d", nw.Stats.Msgs[wsn.MsgParticle], holdersBefore)
	}
	wantBytes := holdersBefore * int64(sizes.Dp+sizes.Dw)
	if nw.Stats.Bytes[wsn.MsgParticle] != wantBytes {
		t.Fatalf("propagation bytes = %d, want %d", nw.Stats.Bytes[wsn.MsgParticle], wantBytes)
	}
	if nw.Stats.Msgs[wsn.MsgMeasurement] != 0 {
		t.Fatal("measurement traffic without detections")
	}
}

func TestWeightConservationThroughPropagation(t *testing.T) {
	nw := denseNetwork(t, 9)
	tr, _ := NewTracker(nw, DefaultConfig(false))
	rng := mathx.NewRNG(10)
	target := mathx.V2(100, 100) // center: everyone in range hears everyone
	det := nw.ActiveNodesWithin(target, nw.Cfg.SensingRadius)
	obs := make([]Observation, len(det))
	for i, id := range det {
		obs[i] = Observation{Node: id, Bearing: tr.cfg.Sensor.Measure(nw.Node(id).Pos, target, rng)}
	}
	tr.Step(obs, rng)
	// Manually run only the propagation phase and check the normalized
	// weights sum to ~1 (rule 1 of Section III-B plus overheard total).
	// The low-weight drop runs inside propagate, so the exact total is the
	// surviving holders' mass plus the pruned mass; the per-node recording
	// accumulators still hold both.
	var res StepResult
	tr.propagate(&res)
	if len(tr.Holders()) == 0 {
		t.Skip("all particles lost in one hop (sparse pocket)")
	}
	kept := 0.0
	for _, id := range tr.Holders() {
		kept += tr.Weight(id)
	}
	total := 0.0
	for _, id := range tr.scr.touched {
		total += tr.scr.accW[id]
	}
	if kept > total {
		t.Fatalf("surviving weight %v exceeds recorded total %v", kept, total)
	}
	if math.Abs(total-1) > 0.05 {
		t.Fatalf("propagated weight total = %v, want ~1", total)
	}
}

func TestHoldersAreUniquePerNode(t *testing.T) {
	// Combination invariant: at most one particle per node, so Holders()
	// returns strictly increasing IDs.
	nw := denseNetwork(t, 11)
	tr, _ := NewTracker(nw, DefaultConfig(false))
	rng := mathx.NewRNG(12)
	target := mathx.V2(30, 100)
	for k := 0; k < 5; k++ {
		det := nw.ActiveNodesWithin(target, nw.Cfg.SensingRadius)
		obs := make([]Observation, len(det))
		for i, id := range det {
			obs[i] = Observation{Node: id, Bearing: tr.cfg.Sensor.Measure(nw.Node(id).Pos, target, rng)}
		}
		tr.Step(obs, rng)
		hs := tr.Holders()
		for i := 1; i < len(hs); i++ {
			if hs[i] <= hs[i-1] {
				t.Fatal("duplicate or unsorted holders")
			}
		}
		target = target.Add(mathx.V2(15, 0))
	}
}

func TestNETransmitsNoMeasurementBytes(t *testing.T) {
	nw := denseNetwork(t, 13)
	tr, _ := NewTracker(nw, DefaultConfig(true))
	rng := mathx.NewRNG(14)
	target := mathx.V2(30, 100)
	for k := 0; k < 6; k++ {
		det := nw.ActiveNodesWithin(target, nw.Cfg.SensingRadius)
		obs := make([]Observation, len(det))
		for i, id := range det {
			obs[i] = Observation{Node: id, Bearing: tr.cfg.Sensor.Measure(nw.Node(id).Pos, target, rng)}
		}
		tr.Step(obs, rng)
		target = target.Add(mathx.V2(15, 0))
	}
	if nw.Stats.Bytes[wsn.MsgMeasurement] != 0 {
		t.Fatalf("CDPF-NE transmitted %d measurement bytes", nw.Stats.Bytes[wsn.MsgMeasurement])
	}
	if nw.Stats.Bytes[wsn.MsgParticle] == 0 {
		t.Fatal("CDPF-NE transmitted no propagation traffic")
	}
}

func TestInactiveDetectorCreatesNoParticle(t *testing.T) {
	nw := denseNetwork(t, 15)
	tr, _ := NewTracker(nw, DefaultConfig(false))
	rng := mathx.NewRNG(16)
	target := mathx.V2(30, 100)
	det := nw.ActiveNodesWithin(target, nw.Cfg.SensingRadius)
	if len(det) < 2 {
		t.Skip("need detectors")
	}
	// Craft an observation from a node that then fails before the step.
	obs := []Observation{{Node: det[0], Bearing: 0}}
	nw.Node(det[0]).State = wsn.Failed
	res := tr.Step(obs, rng)
	if res.Created != 0 {
		t.Fatal("failed node created a particle")
	}
}

// TestReleaseTwiceIsNoOp checks that releasing a tracker a second time hands
// nothing back again: two later trackers must not share tables.
func TestReleaseTwiceIsNoOp(t *testing.T) {
	nw, err := wsn.NewNetwork(wsn.DefaultConfig(5), mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTracker(nw, DefaultConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	tr.Release()
	tr.Release()
	a, err := NewTracker(nw, DefaultConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTracker(nw, DefaultConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	if a.parts == b.parts || &a.scr.accStamp[0] == &b.scr.accStamp[0] {
		t.Error("two trackers share recycled tables after a double Release")
	}
}
