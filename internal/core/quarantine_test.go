package core

import (
	"testing"

	"repro/internal/wsn"
)

func TestReputationEvictsPersistentDeviant(t *testing.T) {
	r := newReputation()
	ids := []wsn.NodeID{1, 2, 3, 4, 5}
	// Node 5 borderline deviant (just past quarDevSigma); the rest consistent.
	// One strike halves the score; the second evicts.
	resid := []float64{0.5, 0.8, 0.3, 0.6, 4}
	for round := 0; round < 2; round++ {
		if r.isQuarantined(5) {
			t.Fatalf("node 5 quarantined after only %d rounds", round)
		}
		r.observe(ids, resid)
	}
	if !r.isQuarantined(5) {
		t.Fatal("persistent deviant not quarantined after 2 rounds")
	}
	for _, id := range ids[:4] {
		if r.isQuarantined(id) {
			t.Fatalf("consistent node %d quarantined", id)
		}
	}
	if r.evictions != 1 {
		t.Fatalf("evictions = %d", r.evictions)
	}
}

func TestReputationEvictsGrossDeviantOnSight(t *testing.T) {
	// A reading far beyond the consensus (here ~7σ) carries enough evidence
	// to evict in a single round — cohorts turn over too fast for a faulty
	// node to be guaranteed a second judgement.
	r := newReputation()
	r.observe([]wsn.NodeID{1, 2, 3, 4}, []float64{0.5, 0.8, 0.3, 20})
	if !r.isQuarantined(4) {
		t.Fatal("gross deviant not quarantined on first sighting")
	}
	if r.isQuarantined(1) || r.isQuarantined(2) || r.isQuarantined(3) {
		t.Fatal("consistent node quarantined")
	}
}

func TestReputationReadmitsRecoveredSensor(t *testing.T) {
	r := newReputation()
	ids := []wsn.NodeID{1, 2, 3, 4}
	bad := []float64{0.5, 0.5, 0.5, 15}
	for i := 0; i < 4; i++ {
		r.observe(ids, bad)
	}
	if !r.isQuarantined(4) {
		t.Fatal("not quarantined")
	}
	// Sensor recovers: consistent readings climb the score back out.
	good := []float64{0.5, 0.5, 0.5, 0.4}
	rounds := 0
	for r.isQuarantined(4) && rounds < 20 {
		r.observe(ids, good)
		rounds++
	}
	if r.isQuarantined(4) {
		t.Fatal("recovered sensor never readmitted")
	}
	if rounds < 2 {
		t.Fatalf("readmitted after %d rounds — hysteresis too weak", rounds)
	}
	if r.readmissions != 1 {
		t.Fatalf("readmissions = %d", r.readmissions)
	}
}

func TestReputationMedianGuardsBadPrediction(t *testing.T) {
	// When the shared prediction is off, every node shows a large residual;
	// the median test must flag nobody.
	r := newReputation()
	ids := []wsn.NodeID{1, 2, 3, 4, 5}
	allBig := []float64{12, 14, 11, 13, 15}
	for i := 0; i < 6; i++ {
		r.observe(ids, allBig)
	}
	for _, id := range ids {
		if r.isQuarantined(id) {
			t.Fatalf("node %d quarantined despite cohort-wide residuals", id)
		}
	}
}

func TestReputationIgnoresTinyCohorts(t *testing.T) {
	r := newReputation()
	for i := 0; i < 10; i++ {
		r.observe([]wsn.NodeID{1, 2}, []float64{0.1, 50})
	}
	if r.isQuarantined(2) {
		t.Fatal("two-node cohort produced a quarantine judgement")
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1}, 3},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Fatalf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
