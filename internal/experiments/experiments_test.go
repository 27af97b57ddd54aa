package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/spec"
)

func TestParseAlgo(t *testing.T) {
	for _, name := range []string{"cpf", "sdpf", "cdpf", "cdpf-ne"} {
		if _, err := ParseAlgo(name); err != nil {
			t.Fatalf("ParseAlgo(%q): %v", name, err)
		}
	}
	if _, err := ParseAlgo("nope"); err == nil {
		t.Fatal("unknown algo accepted")
	}
	if len(AllAlgos()) != 4 {
		t.Fatal("AllAlgos != 4")
	}
}

func TestSeeds(t *testing.T) {
	s := Seeds(10)
	if len(s) != 10 || s[0] != 31 || s[9] != 310 {
		t.Fatalf("Seeds = %v", s)
	}
}

// runCellResult runs one clean cell and returns its metrics result.
func runCellResult(t *testing.T, algo Algo, density float64, seed uint64) metrics.RunResult {
	t.Helper()
	out, err := RunCell(context.Background(), spec.Axes{Algo: string(algo), Density: density, Seed: seed})
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	return out.Result
}

// The TestRunOnce* tests keep their names from the retired single-run
// entry point; they exercise RunCell's clean cells.

func TestRunOnceAllAlgos(t *testing.T) {
	for _, algo := range AllAlgos() {
		r := runCellResult(t, algo, 10, 31)
		if r.Algo != string(algo) || r.Density != 10 || r.Seed != 31 {
			t.Fatalf("%s: metadata %+v", algo, r)
		}
		if len(r.Errors) < 5 {
			t.Fatalf("%s: only %d estimates", algo, len(r.Errors))
		}
		if r.Bytes() <= 0 {
			t.Fatalf("%s: no communication recorded", algo)
		}
		if rm := r.RMSE(); math.IsNaN(rm) || rm > 30 {
			t.Fatalf("%s: rmse %v", algo, rm)
		}
	}
}

func TestRunOnceDeterministic(t *testing.T) {
	a := runCellResult(t, AlgoCDPF, 10, 62)
	b := runCellResult(t, AlgoCDPF, 10, 62)
	if a.RMSE() != b.RMSE() || a.Bytes() != b.Bytes() {
		t.Fatal("RunCell not deterministic")
	}
}

func TestFig4(t *testing.T) {
	points, err := Fig4(20, 31)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 11 {
		t.Fatalf("points = %d", len(points))
	}
	haveC, haveNE := 0, 0
	for _, p := range points {
		if p.HaveC {
			haveC++
			if p.CDPF.Dist(p.Truth) > 30 {
				t.Fatalf("k=%d CDPF estimate wildly off: %v vs %v", p.K, p.CDPF, p.Truth)
			}
		}
		if p.HaveNE {
			haveNE++
		}
	}
	if haveC < 8 || haveNE < 7 {
		t.Fatalf("coverage: cdpf %d, ne %d", haveC, haveNE)
	}
	tbl := Fig4Table(points)
	if tbl.Rows() != len(points) {
		t.Fatalf("table rows = %d", tbl.Rows())
	}
	if !strings.Contains(tbl.String(), "Fig. 4") {
		t.Fatal("missing title")
	}
}

func TestSweepAndTables(t *testing.T) {
	results, err := Exec{}.Sweep([]float64{5, 10}, Seeds(2), []Algo{AlgoCDPF, AlgoCDPFNE})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*2*2 {
		t.Fatalf("results = %d", len(results))
	}
	aggs := metrics.Summarize(results)
	if len(aggs) != 4 {
		t.Fatalf("aggregates = %d", len(aggs))
	}
	f5 := Fig5Table(aggs)
	f6 := Fig6Table(aggs)
	if f5.Rows() != 2 || f6.Rows() != 2 {
		t.Fatalf("table rows: %d, %d", f5.Rows(), f6.Rows())
	}
	if !strings.Contains(f5.String(), "cdpf-ne") {
		t.Fatalf("fig5 missing algo column:\n%s", f5)
	}
}

func TestTable1(t *testing.T) {
	tbl, meas, err := Table1(20, 31)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 5 {
		t.Fatalf("Table I rows = %d", tbl.Rows())
	}
	if meas.Params.N <= 0 || meas.Params.Ns <= 0 || meas.Params.Hmax <= 0 {
		t.Fatalf("measured params %+v", meas.Params)
	}
	// At density 20 the mean measuring-node count should be tens and the
	// CDPF holder count well below it.
	if meas.MeanDetectors < 20 || meas.MeanDetectors > 150 {
		t.Fatalf("mean detectors = %v", meas.MeanDetectors)
	}
	if meas.MeanHolders >= meas.MeanDetectors {
		t.Fatalf("holders %v not below detectors %v", meas.MeanHolders, meas.MeanDetectors)
	}
	if err := meas.Params.Orderings(); err != nil {
		t.Fatal(err)
	}
}

func TestHeadlines(t *testing.T) {
	mk := func(algo string, d, rmse, bytes float64) metrics.Aggregate {
		return metrics.Aggregate{Algo: algo, Density: d, MeanRMSE: rmse, MeanBytes: bytes}
	}
	aggs := []metrics.Aggregate{
		mk("cpf", 20, 2, 6000),
		mk("sdpf", 20, 4, 60000),
		mk("cdpf", 20, 4.4, 3000),
		mk("cdpf-ne", 20, 6, 5000),
	}
	h := Headlines(aggs)
	if math.Abs(h.CostReductionVsSDPF-95) > 1e-9 {
		t.Fatalf("vs SDPF = %v", h.CostReductionVsSDPF)
	}
	if math.Abs(h.CostReductionVsCPF-50) > 1e-9 {
		t.Fatalf("vs CPF = %v", h.CostReductionVsCPF)
	}
	if math.Abs(h.ErrIncreaseCDPF-10) > 1e-9 || math.Abs(h.ErrIncreaseNE-50) > 1e-9 {
		t.Fatalf("err increases = %+v", h)
	}
}

func TestFailureSweep(t *testing.T) {
	results, err := Exec{}.FailureSweep(20, []float64{0, 0.3}, Seeds(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*2*2 {
		t.Fatalf("results = %d", len(results))
	}
	aggs := metrics.Summarize(results)
	tbl := FailureTable(aggs)
	if tbl.Rows() != 2 {
		t.Fatalf("failure table rows = %d", tbl.Rows())
	}
	// Even with 30% failures tracking must produce estimates.
	for _, r := range results {
		if len(r.Errors) < 4 {
			t.Fatalf("failure run produced only %d estimates", len(r.Errors))
		}
	}
}

func TestSleepSweep(t *testing.T) {
	results, err := Exec{}.SleepSweep(20, []float64{0.2}, Seeds(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
}

func TestDutyCycleEnergy(t *testing.T) {
	results, err := DutyCycleEnergy(20, 31, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	always, duty := results[0], results[1]
	if always.AwakeShare < 0.99 {
		t.Fatalf("always-on awake share = %v", always.AwakeShare)
	}
	if duty.AwakeShare > 0.6 {
		t.Fatalf("duty-cycled awake share = %v", duty.AwakeShare)
	}
	if duty.EnergyJ >= always.EnergyJ {
		t.Fatalf("duty cycling did not save energy: %v vs %v", duty.EnergyJ, always.EnergyJ)
	}
	if duty.Estimates < 5 {
		t.Fatalf("duty-cycled tracking broke down: %d estimates", duty.Estimates)
	}
	tbl := DutyCycleTable(results)
	if tbl.Rows() != 2 {
		t.Fatal("duty table rows")
	}
}

func TestDesignAblation(t *testing.T) {
	results, err := Exec{}.DesignAblation(20, Seeds(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("ablation rows = %d", len(results))
	}
	for _, r := range results {
		if math.IsNaN(r.RMSE) || r.Bytes <= 0 {
			t.Fatalf("ablation %q invalid: %+v", r.Variant, r)
		}
	}
	if AblationTable(results).Rows() != 6 {
		t.Fatal("ablation table rows")
	}
}

func TestLatencyComparison(t *testing.T) {
	tbl, err := LatencyComparison(20, 31)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 11 {
		t.Fatalf("latency rows = %d", tbl.Rows())
	}
	out := tbl.String()
	if !strings.Contains(out, "cpf_convergecast_slots") {
		t.Fatal("missing latency columns")
	}
}

func TestRunOnceDPF(t *testing.T) {
	r := runCellResult(t, AlgoDPF, 10, 31)
	if len(r.Errors) < 5 {
		t.Fatalf("DPF produced %d estimates", len(r.Errors))
	}
	// DPF's raw measurement traffic must be cheaper than CPF's (P < Dm),
	// though the backward parameter exchange narrows the total gap.
	c := runCellResult(t, AlgoCPF, 10, 31)
	if r.Bytes() >= c.Bytes() {
		t.Fatalf("DPF bytes %d not below CPF %d", r.Bytes(), c.Bytes())
	}
}

func TestTable1Empirical(t *testing.T) {
	tbl, err := Exec{}.Table1Empirical(10, Seeds(1))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 5 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	out := tbl.String()
	for _, name := range []string{"cpf", "dpf", "sdpf", "cdpf", "cdpf-ne"} {
		if !strings.Contains(out, name) {
			t.Fatalf("missing %s row:\n%s", name, out)
		}
	}
}

func TestLossSweep(t *testing.T) {
	results, err := Exec{}.LossSweep(20, []float64{0, 0.3}, Seeds(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*2*2 {
		t.Fatalf("results = %d", len(results))
	}
	aggs := metrics.Summarize(results)
	tbl := LossTable(aggs)
	if tbl.Rows() != 2 {
		t.Fatalf("loss table rows = %d", tbl.Rows())
	}
	// Tracking must survive 30% loss (possibly degraded, never absent).
	for _, r := range results {
		if len(r.Errors) < 4 {
			t.Fatalf("%s at loss %.0f%%: only %d estimates", r.Algo, r.Density, len(r.Errors))
		}
	}
}

func TestRadiusRatioSweep(t *testing.T) {
	tbl, err := RadiusRatioSweep(20, []float64{20, 30, 40}, Seeds(2))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 3 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	if !strings.Contains(tbl.String(), "rc/rs") {
		t.Fatal("missing headers")
	}
}

func TestResamplerAblation(t *testing.T) {
	tbl, err := ResamplerAblation(Seeds(2))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 4 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	out := tbl.String()
	for _, name := range []string{"systematic", "multinomial", "stratified", "residual"} {
		if !strings.Contains(out, name) {
			t.Fatalf("missing scheme %s:\n%s", name, out)
		}
	}
}

func TestAggregationComparison(t *testing.T) {
	tbl, err := AggregationComparison(20, 31)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() < 8 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	out := tbl.String()
	if !strings.Contains(out, "transceiver_B") || !strings.Contains(out, "gossip_B") {
		t.Fatal("missing columns")
	}
}

func TestMobilitySweep(t *testing.T) {
	results, err := Exec{}.MobilitySweep(20, []float64{0, 1}, Seeds(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*2*2 {
		t.Fatalf("results = %d", len(results))
	}
	tbl := MobilityTable(metrics.Summarize(results))
	if tbl.Rows() != 2 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	for _, r := range results {
		if len(r.Errors) < 5 {
			t.Fatalf("%s at drift %.1f: only %d estimates", r.Algo, r.Density, len(r.Errors))
		}
	}
}

func TestMultiTargetExperiment(t *testing.T) {
	tbl, err := Exec{}.MultiTargetExperiment(20, []int{1, 2}, Seeds(2))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 2 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
}

func TestResilienceLossSweep(t *testing.T) {
	rates := []float64{0, 0.5}
	results, err := Exec{}.ResilienceLossSweep(20, rates, 0.2, ResilienceBurstLen, Seeds(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(rates)*4 {
		t.Fatalf("results = %d", len(results))
	}
	// Every algorithm must appear at both corners and must report the
	// resilience metrics without panicking, even at 50% bursty loss with
	// 20% of the nodes fail-stopped mid-run.
	seen := map[string]int{}
	for _, r := range results {
		seen[r.Algo]++
		if r.Iterations == 0 {
			t.Fatalf("%s at %.0f%%: no iterations recorded", r.Algo, r.Density)
		}
	}
	for _, algo := range AllAlgos() {
		if seen[string(algo)] != len(rates) {
			t.Fatalf("algo %s appeared %d times, want %d", algo, seen[string(algo)], len(rates))
		}
	}
	aggs := metrics.Summarize(results)
	rmse, cov, reacq := ResilienceTables(aggs, "loss %")
	for _, tbl := range []interface{ Rows() int }{rmse, cov, reacq} {
		if tbl.Rows() != len(rates) {
			t.Fatalf("resilience table rows = %d, want %d", tbl.Rows(), len(rates))
		}
	}
	if !strings.Contains(rmse.String(), "cdpf-ne") {
		t.Fatalf("rmse table missing algo column:\n%s", rmse)
	}
	if ResilienceLockTable(aggs, "loss %").Rows() != len(rates) {
		t.Fatal("lock table rows")
	}
	if len(ResilienceHeadlines(aggs)) != 4 {
		t.Fatal("headline count")
	}
	// The clean corner must track well for all algorithms.
	for _, a := range aggs {
		if a.Density == 0 && (math.IsNaN(a.MeanRMSE) || a.MeanRMSE > 30) {
			t.Fatalf("%s clean-corner rmse = %v", a.Algo, a.MeanRMSE)
		}
	}
}

func TestResilienceSweepDeterministic(t *testing.T) {
	run := func() []metrics.RunResult {
		results, err := Exec{}.ResilienceLossSweep(20, []float64{0.4}, 0.2, ResilienceBurstLen, Seeds(1))
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	a, b := run(), run()
	for i := range a {
		if a[i].RMSE() != b[i].RMSE() || a[i].Bytes() != b[i].Bytes() ||
			a[i].LossEpisodes != b[i].LossEpisodes || a[i].LockedFrac != b[i].LockedFrac {
			t.Fatalf("run %d (%s) not deterministic: %+v vs %+v", i, a[i].Algo, a[i], b[i])
		}
	}
}

func TestResilienceFailSweep(t *testing.T) {
	results, err := Exec{}.ResilienceFailSweep(20, []float64{0, 0.2}, ResilienceLossRate, ResilienceBurstLen, Seeds(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*4 {
		t.Fatalf("results = %d", len(results))
	}
	tbl, _, _ := ResilienceTables(metrics.Summarize(results), "fail %")
	if tbl.Rows() != 2 {
		t.Fatalf("fail table rows = %d", tbl.Rows())
	}
}
