package experiments

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sensorfault"
	"repro/internal/wsn"
)

// TestSensorFaultSweepDeterminism extends the fleet determinism contract to
// the sensor-fault grid: the rendered tables — including the quarantine
// detector scores — must be byte-identical at worker counts 1 and 8, so the
// fault injection, the defense stack, and the reputation machine can never
// depend on execution order.
func TestSensorFaultSweepDeterminism(t *testing.T) {
	render := func(workers int) string {
		results, err := Exec{Workers: workers}.SensorFaultSweep(
			20, []sensorfault.Kind{sensorfault.Stuck}, []float64{0, 0.2}, Seeds(2))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		aggs := metrics.Summarize(results)
		rmse, cov := SensorFaultTables(aggs)
		return rmse.String() + "\n" + cov.String() + "\n" + SensorFaultQuarantineTable(aggs).String()
	}
	serial := render(1)
	if got := render(8); got != serial {
		t.Fatalf("sensor-fault tables diverged from serial:\n--- serial ---\n%s\n--- workers=8 ---\n%s", serial, got)
	}
}

// TestSensorFaultDefenseHeadline pins the benchmark's headline claims at the
// paper's default density: with 20% stuck sensors the undefended filter
// degrades measurably while the hardened configuration stays within 2× of
// the clean-field RMSE, and the quarantine detector catches real victims
// with high precision.
func TestSensorFaultDefenseHeadline(t *testing.T) {
	results, err := Exec{}.SensorFaultSweep(20, []sensorfault.Kind{sensorfault.Stuck}, []float64{0, 0.2}, Seeds(3))
	if err != nil {
		t.Fatal(err)
	}
	aggs := metrics.Summarize(results)
	heads := SensorFaultHeadlines(aggs)
	if len(heads) != 1 {
		t.Fatalf("headlines = %d, want 1", len(heads))
	}
	h := heads[0]
	if h.Kind != "stuck" || h.FaultyPct != 20 {
		t.Fatalf("unexpected headline %+v", h)
	}
	if !(h.CleanRMSE > 0) || !(h.UndefendedRMSE > 0) || !(h.DefendedRMSE > 0) {
		t.Fatalf("non-positive RMSE in headline %+v", h)
	}
	if h.UndefendedRMSE <= h.CleanRMSE {
		t.Fatalf("20%% stuck sensors did not degrade the undefended filter: clean %.2f, undefended %.2f",
			h.CleanRMSE, h.UndefendedRMSE)
	}
	if h.DefendedRMSE > 2*h.CleanRMSE {
		t.Fatalf("defended RMSE %.2f exceeds 2× clean %.2f", h.DefendedRMSE, h.CleanRMSE)
	}
	if h.DefendedRMSE >= h.UndefendedRMSE {
		t.Fatalf("defenses did not help: defended %.2f, undefended %.2f",
			h.DefendedRMSE, h.UndefendedRMSE)
	}
	for _, a := range aggs {
		if a.Algo != "cdpf+def/stuck" || a.Density != 20 {
			continue
		}
		if math.IsNaN(a.MeanQuarPrecision) || a.MeanQuarPrecision < 0.9 {
			t.Fatalf("quarantine precision = %v, want >= 0.9", a.MeanQuarPrecision)
		}
		if math.IsNaN(a.MeanQuarRecall) || a.MeanQuarRecall <= 0.2 {
			t.Fatalf("quarantine recall = %v, want > 0.2", a.MeanQuarRecall)
		}
		if a.MeanEvictions <= 0 {
			t.Fatalf("mean evictions = %v, want > 0", a.MeanEvictions)
		}
	}
}

// TestQuarantineScore checks the precision/recall accounting against a
// fabricated detector output: precision over the ever-quarantined set, recall
// over the faulty nodes the machine actually judged.
func TestQuarantineScore(t *testing.T) {
	var script sensorfault.Script
	script.StuckAt(0, 1, []wsn.NodeID{1, 2, 3, 4})
	q := core.QuarantineStats{
		Ever:   []wsn.NodeID{1, 2, 9},           // two real victims, one false alarm
		Scored: []wsn.NodeID{1, 2, 3, 8, 9, 10}, // victim 4 never judged
	}
	prec, rec := quarantineScore(q, &script)
	if prec != 2.0/3.0 {
		t.Fatalf("precision = %v, want 2/3", prec)
	}
	if rec != 2.0/3.0 {
		t.Fatalf("recall = %v, want 2/3 (victims 1,2 of scoreable 1,2,3)", rec)
	}

	// Empty denominators are NaN, not 0 — the tables render them as dashes.
	prec, rec = quarantineScore(core.QuarantineStats{}, &script)
	if !math.IsNaN(prec) || !math.IsNaN(rec) {
		t.Fatalf("empty stats: prec=%v rec=%v, want NaN", prec, rec)
	}
	prec, rec = quarantineScore(q, nil)
	if prec != 0 || !math.IsNaN(rec) {
		t.Fatalf("nil script: prec=%v rec=%v, want 0 and NaN", prec, rec)
	}
}
