package statex

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func TestStateVectorRoundTrip(t *testing.T) {
	s := State{Pos: mathx.V2(1, 2), Vel: mathx.V2(3, 4)}
	v := s.Vector()
	want := []float64{1, 2, 3, 4}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("Vector = %v", v)
		}
	}
	if got := StateFromVector(v); got != s {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestStateFromVectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("StateFromVector with 3 elements did not panic")
		}
	}()
	StateFromVector([]float64{1, 2, 3})
}

func TestStateSpeedHeading(t *testing.T) {
	s := State{Vel: mathx.V2(3, 4)}
	if s.Speed() != 5 {
		t.Fatalf("Speed = %v", s.Speed())
	}
	s = State{Vel: mathx.V2(0, 2)}
	if math.Abs(s.Heading()-math.Pi/2) > 1e-12 {
		t.Fatalf("Heading = %v", s.Heading())
	}
}

func TestCVModelValidation(t *testing.T) {
	if _, err := NewCVModel(0, 1, 1); err == nil {
		t.Fatal("dt=0 accepted")
	}
	if _, err := NewCVModel(-1, 1, 1); err == nil {
		t.Fatal("dt<0 accepted")
	}
	if _, err := NewCVModel(1, -0.1, 1); err == nil {
		t.Fatal("negative sigma accepted")
	}
}

func TestCVModelMatricesMatchPaper(t *testing.T) {
	m := MustCVModel(5, 0.05, 0.05)
	wantPhi := mathx.MatFromRows(
		[]float64{1, 0, 5, 0},
		[]float64{0, 1, 0, 5},
		[]float64{0, 0, 1, 0},
		[]float64{0, 0, 0, 1},
	)
	if m.Phi.MaxAbsDiff(wantPhi) > 0 {
		t.Fatalf("Phi = \n%v", m.Phi)
	}
	wantGamma := mathx.MatFromRows(
		[]float64{12.5, 0},
		[]float64{0, 12.5},
		[]float64{1, 0},
		[]float64{0, 1},
	)
	if m.Gamma.MaxAbsDiff(wantGamma) > 0 {
		t.Fatalf("Gamma = \n%v", m.Gamma)
	}
}

func TestCVStepDeterministicMatchesMatrix(t *testing.T) {
	m := MustCVModel(5, 0.05, 0.05)
	s := State{Pos: mathx.V2(1, 2), Vel: mathx.V2(0.5, -0.25)}
	got := m.StepDeterministic(s)
	want := StateFromVector(m.Phi.MulVec(s.Vector()))
	if got.Pos.Dist(want.Pos) > 1e-12 || got.Vel.Dist(want.Vel) > 1e-12 {
		t.Fatalf("StepDeterministic %+v != matrix %+v", got, want)
	}
}

func TestCVStepNoiseMoments(t *testing.T) {
	m := MustCVModel(1, 0.2, 0.3)
	rng := mathx.NewRNG(4)
	s := State{Pos: mathx.V2(0, 0), Vel: mathx.V2(1, 0)}
	n := 50000
	var dvx, dvy []float64
	for i := 0; i < n; i++ {
		next := m.Step(s, rng)
		dvx = append(dvx, next.Vel.X-1)
		dvy = append(dvy, next.Vel.Y)
	}
	if sd := mathx.StdDev(dvx); math.Abs(sd-0.2) > 0.01 {
		t.Fatalf("vx noise stddev = %v, want 0.2", sd)
	}
	if sd := mathx.StdDev(dvy); math.Abs(sd-0.3) > 0.01 {
		t.Fatalf("vy noise stddev = %v, want 0.3", sd)
	}
	if mu := mathx.Mean(dvx); math.Abs(mu) > 0.005 {
		t.Fatalf("vx noise mean = %v", mu)
	}
}

func TestCVStepMatchesMatrixForm(t *testing.T) {
	// x_k = Φx + Γv must hold exactly for the sampled v. Reconstruct v from
	// the velocity delta and verify the position delta.
	m := MustCVModel(5, 0.05, 0.05)
	rng := mathx.NewRNG(8)
	s := State{Pos: mathx.V2(3, 4), Vel: mathx.V2(1, 2)}
	for i := 0; i < 100; i++ {
		next := m.Step(s, rng)
		vx := next.Vel.X - s.Vel.X
		vy := next.Vel.Y - s.Vel.Y
		wantX := s.Pos.X + m.Dt*s.Vel.X + m.Dt*m.Dt/2*vx
		wantY := s.Pos.Y + m.Dt*s.Vel.Y + m.Dt*m.Dt/2*vy
		if math.Abs(next.Pos.X-wantX) > 1e-9 || math.Abs(next.Pos.Y-wantY) > 1e-9 {
			t.Fatalf("step %d inconsistent with matrix form", i)
		}
		s = next
	}
}

func TestProcessCovPSD(t *testing.T) {
	m := MustCVModel(5, 0.05, 0.07)
	q := m.ProcessCov()
	if q.Rows != 4 || q.Cols != 4 {
		t.Fatalf("Q shape %dx%d", q.Rows, q.Cols)
	}
	// Q should be symmetric and PSD: Q + eps*I must be SPD.
	if q.MaxAbsDiff(q.T()) > 1e-12 {
		t.Fatal("Q not symmetric")
	}
	if _, err := q.Add(mathx.Identity(4).Scale(1e-9)).Cholesky(); err != nil {
		t.Fatalf("Q not PSD: %v", err)
	}
}

func TestGenTrajectoryBasics(t *testing.T) {
	cfg := DefaultTargetConfig()
	rng := mathx.NewRNG(1)
	tr, err := GenTrajectory(cfg, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 51 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Points[0] != cfg.Start {
		t.Fatalf("start = %v", tr.Points[0])
	}
	if tr.Times[0] != 0 || tr.Times[50] != 50 {
		t.Fatalf("times = %v..%v", tr.Times[0], tr.Times[50])
	}
}

func TestGenTrajectoryConstantSpeed(t *testing.T) {
	cfg := DefaultTargetConfig()
	tr, err := GenTrajectory(cfg, 50, mathx.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < tr.Len(); i++ {
		d := tr.Points[i].Dist(tr.Points[i+1])
		if math.Abs(d-cfg.Speed*cfg.StepDt) > 1e-9 {
			t.Fatalf("segment %d length %v, want %v", i, d, cfg.Speed*cfg.StepDt)
		}
		if math.Abs(tr.Vels[i].Norm()-cfg.Speed) > 1e-9 {
			t.Fatalf("segment %d speed %v", i, tr.Vels[i].Norm())
		}
	}
}

func TestGenTrajectoryTurnBound(t *testing.T) {
	cfg := DefaultTargetConfig()
	tr, err := GenTrajectory(cfg, 200, mathx.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < tr.Len()-1; i++ {
		turn := mathx.AngleDiff(tr.Vels[i+1].Angle(), tr.Vels[i].Angle())
		if math.Abs(turn) > cfg.MaxTurn+1e-9 {
			t.Fatalf("turn %d = %v deg exceeds bound", i, mathx.Rad2Deg(turn))
		}
	}
}

func TestGenTrajectoryValidation(t *testing.T) {
	cfg := DefaultTargetConfig()
	if _, err := GenTrajectory(cfg, -1, mathx.NewRNG(1)); err == nil {
		t.Fatal("negative steps accepted")
	}
	bad := cfg
	bad.StepDt = 0
	if _, err := GenTrajectory(bad, 10, mathx.NewRNG(1)); err == nil {
		t.Fatal("zero step accepted")
	}
}

func TestSubsample(t *testing.T) {
	cfg := DefaultTargetConfig()
	tr, _ := GenTrajectory(cfg, 50, mathx.NewRNG(5))
	sub := tr.Subsample(5)
	if sub.Len() != 11 {
		t.Fatalf("subsample Len = %d", sub.Len())
	}
	for i := 0; i < sub.Len(); i++ {
		if sub.Points[i] != tr.Points[5*i] {
			t.Fatalf("subsample point %d mismatch", i)
		}
		if sub.Times[i] != tr.Times[5*i] {
			t.Fatalf("subsample time %d mismatch", i)
		}
	}
	// Coarse velocity must explain the coarse displacement.
	for i := 0; i+1 < sub.Len(); i++ {
		dt := sub.Times[i+1] - sub.Times[i]
		pred := sub.Points[i].Add(sub.Vels[i].Scale(dt))
		if pred.Dist(sub.Points[i+1]) > 1e-9 {
			t.Fatalf("coarse velocity %d does not explain displacement", i)
		}
	}
}

func TestPathLength(t *testing.T) {
	cfg := DefaultTargetConfig()
	tr, _ := GenTrajectory(cfg, 50, mathx.NewRNG(6))
	want := cfg.Speed * cfg.StepDt * 50
	if got := tr.PathLength(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("PathLength = %v, want %v", got, want)
	}
}

func TestSegmentsBetween(t *testing.T) {
	cfg := DefaultTargetConfig()
	tr, _ := GenTrajectory(cfg, 10, mathx.NewRNG(7))
	segs := tr.SegmentsBetween(0, 5)
	if len(segs) != 5 {
		t.Fatalf("SegmentsBetween(0,5) = %d segments", len(segs))
	}
	if segs[0][0] != tr.Points[0] || segs[4][1] != tr.Points[5] {
		t.Fatal("SegmentsBetween endpoints wrong")
	}
	if got := tr.SegmentsBetween(9, 10); len(got) != 1 {
		t.Fatalf("tail window = %d segments", len(got))
	}
	if got := tr.SegmentsBetween(10, 20); len(got) != 0 {
		t.Fatalf("past-end window = %d segments", len(got))
	}
}

func TestBearingMeasureNoiseless(t *testing.T) {
	s := BearingSensor{SigmaN: 1e-12}
	rng := mathx.NewRNG(9)
	z := s.Measure(mathx.V2(0, 0), mathx.V2(1, 1), rng)
	if math.Abs(z-math.Pi/4) > 1e-6 {
		t.Fatalf("bearing = %v, want pi/4", z)
	}
	// Node-relative: shifting both by the same offset keeps the bearing.
	z2 := s.Measure(mathx.V2(10, 10), mathx.V2(11, 11), rng)
	if math.Abs(z2-math.Pi/4) > 1e-6 {
		t.Fatalf("relative bearing = %v", z2)
	}
}

func TestBearingLikelihoodPeaksAtTruth(t *testing.T) {
	s := BearingSensor{SigmaN: 0.05}
	from := mathx.V2(0, 0)
	target := mathx.V2(10, 5)
	z := s.TrueBearing(from, target)
	atTruth := s.LogLikelihood(from, z, target)
	off := s.LogLikelihood(from, z, mathx.V2(10, 8))
	if atTruth <= off {
		t.Fatalf("likelihood at truth %v not greater than off-truth %v", atTruth, off)
	}
}

func TestBearingLikelihoodSeamSafe(t *testing.T) {
	// Target due west: bearing ~ pi. A candidate slightly south-west gives a
	// predicted bearing near -pi; the wrapped residual must stay small.
	s := BearingSensor{SigmaN: 0.1}
	from := mathx.V2(0, 0)
	z := math.Pi - 0.01
	cand := mathx.V2(-10, -0.2) // predicted bearing just below -pi+eps
	ll := s.LogLikelihood(from, z, cand)
	if ll < mathx.GaussianLogPDF(0.1, 0, 0.1) {
		t.Fatalf("seam residual destroyed likelihood: %v", ll)
	}
}

func TestMeasureWrapProperty(t *testing.T) {
	s := BearingSensor{SigmaN: 0.3}
	rng := mathx.NewRNG(10)
	f := func(fx, fy, tx, ty float64) bool {
		for _, v := range []float64{fx, fy, tx, ty} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		from := mathx.V2(math.Mod(fx, 100), math.Mod(fy, 100))
		target := mathx.V2(math.Mod(tx, 100), math.Mod(ty, 100))
		if from.Dist(target) < 1e-9 {
			return true
		}
		z := s.Measure(from, target, rng)
		return z > -math.Pi-1e-12 && z <= math.Pi+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
