package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

func TestSensingDefenseConfigValidation(t *testing.T) {
	sc, err := scenario.Build(scenario.Default(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	bad := []func(*core.Config){
		func(c *core.Config) { c.GateSigma = -1 },
		func(c *core.Config) { c.GateSigma = 0.5 }, // would gate in-model residuals
		func(c *core.Config) { c.Sensor.TailNu = -2 },
	}
	for i, mutate := range bad {
		cfg := core.DefaultConfig(false)
		mutate(&cfg)
		if _, err := core.NewTracker(sc.Net, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := core.NewTracker(sc.Net, core.HardenedSensingConfig(false)); err != nil {
		t.Fatalf("HardenedSensingConfig rejected: %v", err)
	}
}

func TestQuarantineStatsEmptyWhenDisabled(t *testing.T) {
	sc, err := scenario.Build(scenario.Default(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.NewTracker(sc.Net, core.DefaultConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	rng := sc.RNG(1)
	for k := 0; k < sc.Iterations(); k++ {
		tr.Step(sc.Observations(k), rng)
	}
	q := tr.Quarantine()
	if q.Gated != 0 || q.Evictions != 0 || len(q.Quarantined) != 0 || len(q.Ever) != 0 {
		t.Fatalf("defenses-off run recorded defense activity: %+v", q)
	}
}

func TestDefendedCleanRunStaysAccurate(t *testing.T) {
	// The defense stack must not wreck clean-sensor tracking: a hardened run
	// on a clean scenario should stay in the same error regime as the
	// undefended run and quarantine nobody.
	mse := func(cfg core.Config) float64 {
		sc, err := scenario.Build(scenario.Default(20, 31))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := core.NewTracker(sc.Net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := sc.RNG(1)
		var sum float64
		var n int
		for k := 0; k < sc.Iterations(); k++ {
			r := tr.Step(sc.Observations(k), rng)
			if r.EstimateValid && k >= 1 {
				e := r.Estimate.Dist(sc.Truth(k - 1))
				sum += e * e
				n++
			}
		}
		if cfg.Quarantine {
			if q := tr.Quarantine(); len(q.Ever) != 0 {
				t.Fatalf("clean run quarantined nodes: %v", q.Ever)
			}
		}
		if n == 0 {
			t.Fatal("no estimates")
		}
		return sum / float64(n)
	}
	plain := mse(core.DefaultConfig(false))
	defended := mse(core.HardenedSensingConfig(false))
	if defended > 3*plain+1 {
		t.Fatalf("defended clean-run MSE %v vs plain %v", defended, plain)
	}
}
