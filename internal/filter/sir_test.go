package filter

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/statex"
)

func TestNewSIRValidation(t *testing.T) {
	if _, err := NewSIR(SIRConfig{N: 0}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := NewSIR(SIRConfig{N: 10, ESSFraction: 1.5}); err == nil {
		t.Fatal("ESSFraction > 1 accepted")
	}
	f, err := NewSIR(SIRConfig{N: 10})
	if err != nil {
		t.Fatal(err)
	}
	if f.cfg.Resampler == nil || f.cfg.ESSFraction != 1 {
		t.Fatal("defaults not applied")
	}
}

func TestSIRStepBeforeInitPanics(t *testing.T) {
	f, _ := NewSIR(SIRConfig{N: 10})
	defer func() {
		if recover() == nil {
			t.Fatal("Step before Init did not panic")
		}
	}()
	f.Step(
		func(s statex.State, rng *mathx.RNG) statex.State { return s },
		func(statex.State) float64 { return 0 },
		mathx.NewRNG(1),
	)
}

func TestSIRInit(t *testing.T) {
	f, _ := NewSIR(SIRConfig{N: 100})
	rng := mathx.NewRNG(1)
	f.Init(func(r *mathx.RNG) statex.State {
		return statex.State{Pos: mathx.V2(r.Normal(5, 1), r.Normal(-3, 1))}
	}, rng)
	set := f.Particles()
	if set.Len() != 100 {
		t.Fatalf("Init produced %d particles", set.Len())
	}
	if math.Abs(set.TotalWeight()-1) > 1e-9 {
		t.Fatalf("initial total weight = %v", set.TotalWeight())
	}
	mean := set.MeanPos()
	if math.Abs(mean.X-5) > 0.5 || math.Abs(mean.Y+3) > 0.5 {
		t.Fatalf("initial cloud mean = %v", mean)
	}
}

// TestSIRMatchesKalman cross-checks the particle filter against the exact
// Kalman solution on a linear-Gaussian system: with enough particles the SIR
// estimate must track the KF estimate closely.
func TestSIRMatchesKalman(t *testing.T) {
	m := statex.MustCVModel(1, 0.05, 0.05)
	const sigmaZ = 0.5
	sysRng := mathx.NewRNG(7)
	truth := statex.State{Pos: mathx.V2(0, 0), Vel: mathx.V2(1, 0.5)}

	kf := positionKalman(t, m, sigmaZ, []float64{0, 0, 1, 0.5})

	pf, _ := NewSIR(SIRConfig{N: 2000})
	pfRng := mathx.NewRNG(8)
	pf.Init(func(r *mathx.RNG) statex.State {
		return statex.State{
			Pos: mathx.V2(r.Normal(0, 1), r.Normal(0, 1)),
			Vel: mathx.V2(r.Normal(1, 0.3), r.Normal(0.5, 0.3)),
		}
	}, pfRng)

	propose := func(s statex.State, r *mathx.RNG) statex.State { return m.Step(s, r) }

	var diff []float64
	for k := 0; k < 60; k++ {
		truth = m.Step(truth, sysRng)
		z := mathx.V2(
			truth.Pos.X+sysRng.Normal(0, sigmaZ),
			truth.Pos.Y+sysRng.Normal(0, sigmaZ),
		)
		kf.Predict()
		if err := kf.Update([]float64{z.X, z.Y}); err != nil {
			t.Fatal(err)
		}
		loglik := func(c statex.State) float64 {
			return mathx.GaussianLogPDF(z.X, c.Pos.X, sigmaZ) +
				mathx.GaussianLogPDF(z.Y, c.Pos.Y, sigmaZ)
		}
		est := pf.Step(propose, loglik, pfRng)
		diff = append(diff, est.Pos.Dist(kf.PosEstimate()))
	}
	if mean := mathx.Mean(diff[10:]); mean > 0.25 {
		t.Fatalf("PF deviates from KF by %v on average (want < 0.25)", mean)
	}
}

func TestSIRReducesErrorVsPrior(t *testing.T) {
	// With measurements, the SIR estimate must beat dead reckoning.
	m := statex.MustCVModel(1, 0.2, 0.2)
	const sigmaZ = 1.0
	sysRng := mathx.NewRNG(21)
	truth := statex.State{Pos: mathx.V2(0, 0), Vel: mathx.V2(1, 0)}
	dead := truth

	pf, _ := NewSIR(SIRConfig{N: 500})
	pfRng := mathx.NewRNG(22)
	pf.Init(func(r *mathx.RNG) statex.State {
		return statex.State{
			Pos: mathx.V2(r.Normal(0, 0.5), r.Normal(0, 0.5)),
			Vel: mathx.V2(r.Normal(1, 0.2), r.Normal(0, 0.2)),
		}
	}, pfRng)
	propose := func(s statex.State, r *mathx.RNG) statex.State { return m.Step(s, r) }

	var pfErr, deadErr []float64
	for k := 0; k < 80; k++ {
		truth = m.Step(truth, sysRng)
		dead = m.StepDeterministic(dead)
		z := mathx.V2(
			truth.Pos.X+sysRng.Normal(0, sigmaZ),
			truth.Pos.Y+sysRng.Normal(0, sigmaZ),
		)
		loglik := func(c statex.State) float64 {
			return mathx.GaussianLogPDF(z.X, c.Pos.X, sigmaZ) +
				mathx.GaussianLogPDF(z.Y, c.Pos.Y, sigmaZ)
		}
		est := pf.Step(propose, loglik, pfRng)
		pfErr = append(pfErr, est.Pos.Dist(truth.Pos))
		deadErr = append(deadErr, dead.Pos.Dist(truth.Pos))
	}
	if mathx.Mean(pfErr) >= mathx.Mean(deadErr) {
		t.Fatalf("PF error %v not better than dead reckoning %v",
			mathx.Mean(pfErr), mathx.Mean(deadErr))
	}
}

func TestSIRResamplesEveryStepByDefault(t *testing.T) {
	pf, _ := NewSIR(SIRConfig{N: 50})
	rng := mathx.NewRNG(33)
	pf.Init(func(r *mathx.RNG) statex.State {
		return statex.State{Pos: mathx.V2(r.Float64(), r.Float64())}
	}, rng)
	// Skewed likelihood concentrates weight; after Step, weights must be
	// uniform again because the default config resamples each iteration.
	pf.Step(
		func(s statex.State, r *mathx.RNG) statex.State { return s },
		func(c statex.State) float64 { return -c.Pos.Norm2() * 50 },
		rng,
	)
	w := pf.Particles().Weights()
	for _, wi := range w {
		if math.Abs(wi-1.0/50) > 1e-9 {
			t.Fatalf("weights not reset by resampling: %v", wi)
		}
	}
}

func TestSIRNoResampleWhenThresholdLow(t *testing.T) {
	pf, _ := NewSIR(SIRConfig{N: 50, ESSFraction: 0.01})
	rng := mathx.NewRNG(34)
	pf.Init(func(r *mathx.RNG) statex.State {
		return statex.State{Pos: mathx.V2(r.Float64(), r.Float64())}
	}, rng)
	pf.Step(
		func(s statex.State, r *mathx.RNG) statex.State { return s },
		func(c statex.State) float64 { return -c.Pos.Norm2() },
		rng,
	)
	// Mild likelihood keeps ESS above 1%, so weights should be non-uniform.
	w := pf.Particles().Weights()
	uniform := true
	for _, wi := range w {
		if math.Abs(wi-1.0/50) > 1e-6 {
			uniform = false
		}
	}
	if uniform {
		t.Fatal("filter resampled despite ESS above threshold")
	}
}
