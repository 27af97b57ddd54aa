package experiments

import (
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/spec"
)

// The resilience benchmark: the repo's first quantitative robustness study.
// It injects the fault classes real deployments exhibit — bursty link loss
// (Gilbert–Elliott, whole filter iterations dark) and scheduled mid-run
// node failures — and measures how each algorithm's error, coverage, and
// time-to-reacquire degrade. CDPF and CDPF-NE run with the graceful-
// degradation mechanisms enabled (core.ResilientConfig: bounded
// re-broadcast with backoff, incomplete-total compensation), so the tables
// price robustness in the same bytes the rest of the evaluation uses.

// ResilienceDefaults are the benchmark's fixed parameters.
const (
	// ResilienceBurstLen is the mean Bad-state sojourn in filter iterations;
	// values <= 1 select iid loss instead.
	ResilienceBurstLen = 3.0
	// ResilienceFailFrac is the fraction of nodes fail-stopped mid-run in
	// the loss-rate sweep.
	ResilienceFailFrac = 0.2
	// ResilienceLossRate is the link loss rate held fixed in the
	// failed-fraction sweep.
	ResilienceLossRate = 0.3
)

// ResilienceLossRates returns the benchmark's loss-rate grid (0..0.5).
func ResilienceLossRates() []float64 { return []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5} }

// ResilienceFailFracs returns the benchmark's failed-fraction grid.
func ResilienceFailFracs() []float64 { return []float64{0, 0.1, 0.2, 0.3, 0.4} }

// ResilienceLossSweep runs all four algorithms across the loss-rate grid
// under bursty loss with failFrac of the nodes fail-stopping mid-run, CDPF
// variants hardened. The Density field of the results stores the loss
// percentage for grouping.
func (e Exec) ResilienceLossSweep(density float64, rates []float64, failFrac, burstLen float64, seeds []uint64) ([]metrics.RunResult, error) {
	grid := axisGrid(rates, AllAlgos(), seeds, func(ax *spec.Axes, rate float64) {
		ax.Density, ax.Loss, ax.Burst, ax.FailFrac, ax.Hardened = density, rate, burstLen, failFrac, "on"
	})
	return e.sweep(grid, func(r *metrics.RunResult, ax spec.Axes) { r.Density = 100 * ax.Loss })
}

// ResilienceFailSweep runs all four algorithms across the failed-fraction
// grid at a fixed bursty loss rate, CDPF variants hardened. The Density
// field of the results stores the failed percentage for grouping.
func (e Exec) ResilienceFailSweep(density float64, fracs []float64, lossRate, burstLen float64, seeds []uint64) ([]metrics.RunResult, error) {
	grid := axisGrid(fracs, AllAlgos(), seeds, func(ax *spec.Axes, frac float64) {
		ax.Density, ax.Loss, ax.Burst, ax.FailFrac, ax.Hardened = density, lossRate, burstLen, frac, "on"
	})
	return e.sweep(grid, func(r *metrics.RunResult, ax spec.Axes) { r.Density = 100 * ax.FailFrac })
}

// ResilienceTables renders one resilience sweep as three tables: RMSE,
// coverage (fraction of iterations with an estimate), and mean
// time-to-reacquire in filter iterations. axis labels the sweep variable
// (e.g. "loss %" or "fail %").
func ResilienceTables(aggs []metrics.Aggregate, axis string) (rmse, cov, reacq *report.Table) {
	rmse = sweepTable(aggs, fmt.Sprintf("Resilience — RMSE (m) vs %s", axis),
		func(a metrics.Aggregate) float64 { return a.MeanRMSE })
	rmse.Headers[0] = axis
	cov = sweepTable(aggs, fmt.Sprintf("Resilience — coverage vs %s", axis),
		func(a metrics.Aggregate) float64 { return a.MeanCoverage })
	cov.Headers[0] = axis
	reacq = sweepTable(aggs, fmt.Sprintf("Resilience — mean iterations to reacquire vs %s", axis),
		func(a metrics.Aggregate) float64 { return a.MeanReacquire })
	reacq.Headers[0] = axis
	return rmse, cov, reacq
}

// ResilienceLockTable renders the fraction-of-time-locked view of a sweep.
func ResilienceLockTable(aggs []metrics.Aggregate, axis string) *report.Table {
	t := sweepTable(aggs, fmt.Sprintf("Resilience — fraction of time locked vs %s", axis),
		func(a metrics.Aggregate) float64 { return a.MeanLocked })
	t.Headers[0] = axis
	return t
}

// ResilienceChart renders the RMSE degradation curves of a sweep.
func ResilienceChart(aggs []metrics.Aggregate, axis string) *report.Chart {
	return sweepChart(aggs, fmt.Sprintf("Resilience — RMSE vs %s", axis), axis, "rmse_m",
		func(a metrics.Aggregate) float64 { return a.MeanRMSE })
}

// ResilienceHeadline summarizes CDPF's degradation between the clean and
// the worst corner of a loss sweep: RMSE inflation and coverage retained.
type ResilienceHeadline struct {
	Algo            string
	RMSEInflation   float64 // worst-corner RMSE / clean RMSE
	CoverageAtWorst float64
}

// ResilienceHeadlines extracts per-algorithm degradation headlines from a
// sweep grouped by loss percentage.
func ResilienceHeadlines(aggs []metrics.Aggregate) []ResilienceHeadline {
	lo := map[string]metrics.Aggregate{}
	hi := map[string]metrics.Aggregate{}
	var order []string
	for _, a := range aggs {
		if _, seen := lo[a.Algo]; !seen {
			order = append(order, a.Algo)
			lo[a.Algo] = a
			hi[a.Algo] = a
			continue
		}
		if a.Density < lo[a.Algo].Density {
			lo[a.Algo] = a
		}
		if a.Density > hi[a.Algo].Density {
			hi[a.Algo] = a
		}
	}
	var out []ResilienceHeadline
	for _, algo := range order {
		h := ResilienceHeadline{Algo: algo, CoverageAtWorst: hi[algo].MeanCoverage}
		if lo[algo].MeanRMSE > 0 && !math.IsNaN(lo[algo].MeanRMSE) && !math.IsNaN(hi[algo].MeanRMSE) {
			h.RMSEInflation = hi[algo].MeanRMSE / lo[algo].MeanRMSE
		} else {
			h.RMSEInflation = math.NaN()
		}
		out = append(out, h)
	}
	return out
}
