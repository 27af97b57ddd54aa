package sched

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/wsn"
)

func TestDutyCycleValidation(t *testing.T) {
	rng := mathx.NewRNG(1)
	if _, err := NewDutyCycle(5, 0, 0.5, rng); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := NewDutyCycle(5, 10, 1.5, rng); err == nil {
		t.Fatal("on-fraction > 1 accepted")
	}
}

func TestDutyCycleFraction(t *testing.T) {
	rng := mathx.NewRNG(2)
	dc, err := NewDutyCycle(200, 10, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Time-averaged on-fraction per node must be ~0.3.
	for id := 0; id < 200; id += 37 {
		on := 0
		const samples = 1000
		for i := 0; i < samples; i++ {
			if dc.IsOn(wsn.NodeID(id), float64(i)*0.0973) {
				on++
			}
		}
		frac := float64(on) / samples
		if math.Abs(frac-0.3) > 0.05 {
			t.Fatalf("node %d on-fraction = %v", id, frac)
		}
	}
}

func TestDutyCycleExtremes(t *testing.T) {
	rng := mathx.NewRNG(3)
	alwaysOn, _ := NewDutyCycle(5, 10, 1, rng)
	alwaysOff, _ := NewDutyCycle(5, 10, 0, rng)
	for tm := 0.0; tm < 30; tm += 0.7 {
		if !alwaysOn.IsOn(0, tm) {
			t.Fatal("on-fraction 1 node slept")
		}
		if alwaysOff.IsOn(0, tm) {
			t.Fatal("on-fraction 0 node woke")
		}
	}
}

func newTestNetwork(t *testing.T) *wsn.Network {
	t.Helper()
	nw, err := wsn.NewNetwork(wsn.DefaultConfig(5), mathx.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestSchedulerApplyAlwaysOn(t *testing.T) {
	nw := newTestNetwork(t)
	s := NewScheduler(nw, nil)
	s.Apply(0)
	if s.AwakeCount() != nw.Len() {
		t.Fatalf("always-on awake = %d of %d", s.AwakeCount(), nw.Len())
	}
}

func TestSchedulerApplyDutyCycle(t *testing.T) {
	nw := newTestNetwork(t)
	rng := mathx.NewRNG(8)
	dc, _ := NewDutyCycle(nw.Len(), 10, 0.2, rng)
	s := NewScheduler(nw, dc)
	s.Apply(3.7)
	frac := float64(s.AwakeCount()) / float64(nw.Len())
	if math.Abs(frac-0.2) > 0.05 {
		t.Fatalf("awake fraction = %v, want ~0.2", frac)
	}
	// States must agree with the duty-cycle predicate.
	for _, nd := range nw.Nodes {
		want := dc.IsOn(nd.ID, 3.7)
		got := nd.State == wsn.Awake
		if want != got {
			t.Fatalf("node %d state %v disagrees with duty cycle %v", nd.ID, got, want)
		}
	}
}

func TestSchedulerFailedStaysFailed(t *testing.T) {
	nw := newTestNetwork(t)
	nw.Node(0).State = wsn.Failed
	s := NewScheduler(nw, nil)
	s.Apply(0)
	if nw.Node(0).State != wsn.Failed {
		t.Fatal("Apply resurrected a failed node")
	}
	s.ForceAwake(0, 100)
	s.Apply(1)
	if nw.Node(0).State != wsn.Failed {
		t.Fatal("ForceAwake resurrected a failed node")
	}
}

func TestForceAwakeOverridesDutyCycle(t *testing.T) {
	nw := newTestNetwork(t)
	rng := mathx.NewRNG(9)
	dc, _ := NewDutyCycle(nw.Len(), 10, 0, rng) // everyone sleeps
	s := NewScheduler(nw, dc)
	s.Apply(0)
	if s.AwakeCount() != 0 {
		t.Fatal("expected all asleep")
	}
	s.ForceAwake(5, 50)
	s.Apply(10)
	if nw.Node(5).State != wsn.Awake {
		t.Fatal("forced node not awake")
	}
	s.Apply(60) // force expired
	if nw.Node(5).State != wsn.Asleep {
		t.Fatal("forced wake did not expire")
	}
}

func TestProactiveWake(t *testing.T) {
	nw := newTestNetwork(t)
	rng := mathx.NewRNG(10)
	dc, _ := NewDutyCycle(nw.Len(), 10, 0, rng)
	s := NewScheduler(nw, dc)
	s.Apply(0)
	center := nw.Center()
	inArea := nw.NodesWithin(center, 10)
	if len(inArea) == 0 {
		t.Skip("no nodes in wake area")
	}
	// Pick an awake beacon adjacent to the area.
	beacon := inArea[0]
	nw.Node(beacon).State = wsn.Awake
	before := nw.Stats.Msgs[wsn.MsgControl]
	woken := s.ProactiveWake(beacon, center, 10, 100)
	if woken == 0 {
		t.Fatal("nothing woken")
	}
	if nw.Stats.Msgs[wsn.MsgControl] != before+1 {
		t.Fatal("wake beacon not charged")
	}
	for _, id := range inArea {
		if nw.Node(id).State != wsn.Awake {
			t.Fatalf("node %d in wake area still asleep", id)
		}
	}
	// The forced state survives the next Apply within the window.
	s.Apply(50)
	for _, id := range inArea {
		if nw.Node(id).State != wsn.Awake {
			t.Fatal("forced wake lost at Apply within window")
		}
	}
}

func TestProactiveWakeSilent(t *testing.T) {
	nw := newTestNetwork(t)
	s := NewScheduler(nw, nil)
	before := nw.Stats.TotalMsgs()
	s.ProactiveWake(-1, nw.Center(), 10, 100)
	if nw.Stats.TotalMsgs() != before {
		t.Fatal("silent wake transmitted")
	}
}
