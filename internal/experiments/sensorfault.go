package experiments

import (
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sensorfault"
	"repro/internal/spec"
	"repro/internal/wsn"
)

// The sensor-fault benchmark: the robustness study for sensors that keep
// talking but report wrong bearings (stuck, drifting, noisy, outlier-prone,
// or Byzantine — see internal/sensorfault). Every grid cell runs CDPF twice
// on the *same* corrupted scenario: once as shipped (undefended, the paper's
// configuration) and once with the Byzantine-tolerant sensing defenses
// (core.HardenedSensingConfig: innovation gating, Student-t likelihood,
// online node quarantine), so the tables show exactly what the defense stack
// buys and what it costs. Defended runs also score the quarantine detector
// against the fault script's ground-truth victim set.

// SensorFaultFracs returns the benchmark's faulty-fraction grid.
func SensorFaultFracs() []float64 { return []float64{0, 0.1, 0.2, 0.3} }

// SensorFaultKinds returns the benchmark's fault-kind grid: every kind, in
// declaration order.
func SensorFaultKinds() []sensorfault.Kind { return sensorfault.AllKinds() }

// sensorFaultAlgo labels a sensor-fault run for grouping: "cdpf/<kind>" for
// the undefended configuration, "cdpf+def/<kind>" for the hardened one.
func sensorFaultAlgo(defended bool, kind sensorfault.Kind) string {
	if defended {
		return "cdpf+def/" + kind.String()
	}
	return "cdpf/" + kind.String()
}

// quarantineScore computes the detector's precision and recall: precision
// over the ever-quarantined set, recall over the scoreable victims — faulty
// nodes the reputation machine actually judged (a victim that never shared a
// measurement in a large-enough cohort is outside the detector's reach by
// construction). Either is NaN when its denominator is empty.
func quarantineScore(q core.QuarantineStats, script *sensorfault.Script) (precision, recall float64) {
	faulty := make(map[wsn.NodeID]bool)
	if script != nil {
		for _, id := range script.FaultyNodes() {
			faulty[id] = true
		}
	}
	tp := 0
	for _, id := range q.Ever {
		if faulty[id] {
			tp++
		}
	}
	precision = math.NaN()
	if len(q.Ever) > 0 {
		precision = float64(tp) / float64(len(q.Ever))
	}
	everSet := make(map[wsn.NodeID]bool, len(q.Ever))
	for _, id := range q.Ever {
		everSet[id] = true
	}
	scoreable, caught := 0, 0
	for _, id := range q.Scored {
		if !faulty[id] {
			continue
		}
		scoreable++
		if everSet[id] {
			caught++
		}
	}
	recall = math.NaN()
	if scoreable > 0 {
		recall = float64(caught) / float64(scoreable)
	}
	return precision, recall
}

// SensorFaultSweep runs the (kind × fraction × defense) grid at one density
// across the fleet. Each corrupted scenario is tracked undefended and
// defended; the Density field of the results stores the faulty percentage
// for grouping, and the Algo field encodes both the defense and the kind
// ("cdpf/stuck", "cdpf+def/stuck", ...).
func (e Exec) SensorFaultSweep(density float64, kinds []sensorfault.Kind, fracs []float64, seeds []uint64) ([]metrics.RunResult, error) {
	var grid []spec.Axes
	for _, kind := range kinds {
		for _, frac := range fracs {
			for _, defended := range []bool{false, true} {
				for _, seed := range seeds {
					grid = append(grid, spec.Axes{
						Algo: "cdpf", Density: density, Seed: seed,
						SensorFault: kind.String(), SensorFaultFrac: frac, Defend: defended,
					})
				}
			}
		}
	}
	return e.sweep(grid, relabelSensorFault)
}

// relabelSensorFault groups a sensor-fault cell's result by faulty
// percentage under its "cdpf[+def]/<kind>" label.
func relabelSensorFault(r *metrics.RunResult, ax spec.Axes) {
	// The kind parsed when the cell ran, so it is known to be valid.
	kind, _ := sensorfault.ParseKind(ax.SensorFault)
	r.Algo = sensorFaultAlgo(ax.Defend, kind)
	r.Density = 100 * ax.SensorFaultFrac
}

// SensorFaultTables renders a sensor-fault sweep as RMSE and coverage grids
// over the faulty percentage, one column per (defense, kind) combination.
func SensorFaultTables(aggs []metrics.Aggregate) (rmse, cov *report.Table) {
	rmse = sweepTable(aggs, "Sensor faults — RMSE (m) vs faulty %",
		func(a metrics.Aggregate) float64 { return a.MeanRMSE })
	rmse.Headers[0] = "faulty %"
	cov = sweepTable(aggs, "Sensor faults — coverage vs faulty %",
		func(a metrics.Aggregate) float64 { return a.MeanCoverage })
	cov.Headers[0] = "faulty %"
	return rmse, cov
}

// SensorFaultQuarantineTable renders the quarantine detector's scores: one
// row per (kind, faulty %) of the defended runs, with the seed-averaged
// precision, recall, eviction count, and gated-term count.
func SensorFaultQuarantineTable(aggs []metrics.Aggregate) *report.Table {
	t := report.NewTable("Sensor faults — quarantine detector",
		"kind", "faulty %", "precision", "recall", "evictions", "gated terms")
	for _, a := range aggs {
		kind, ok := strings.CutPrefix(a.Algo, "cdpf+def/")
		if !ok {
			continue
		}
		t.AddRow(kind, a.Density, nanDash(a.MeanQuarPrecision), nanDash(a.MeanQuarRecall),
			nanDash(a.MeanEvictions), nanDash(a.MeanGated))
	}
	return t
}

// nanDash renders NaN as the tables' empty-cell marker.
func nanDash(v float64) interface{} {
	if math.IsNaN(v) {
		return "-"
	}
	return v
}

// SensorFaultHeadline summarizes one fault kind at the sweep's worst faulty
// fraction: the clean-field RMSE, and the undefended versus defended RMSE
// under faults.
type SensorFaultHeadline struct {
	Kind           string
	FaultyPct      float64
	CleanRMSE      float64
	UndefendedRMSE float64
	DefendedRMSE   float64
}

// SensorFaultHeadlines extracts per-kind headlines from a sweep, comparing
// the largest faulty percentage against the clean (0%) undefended baseline.
func SensorFaultHeadlines(aggs []metrics.Aggregate) []SensorFaultHeadline {
	type pair struct{ undef, def map[float64]float64 }
	byKind := map[string]*pair{}
	var order []string
	maxPct := 0.0
	for _, a := range aggs {
		defended := false
		kind := a.Algo
		if k, ok := strings.CutPrefix(a.Algo, "cdpf+def/"); ok {
			defended, kind = true, k
		} else if k, ok := strings.CutPrefix(a.Algo, "cdpf/"); ok {
			kind = k
		} else {
			continue
		}
		p := byKind[kind]
		if p == nil {
			p = &pair{undef: map[float64]float64{}, def: map[float64]float64{}}
			byKind[kind] = p
			order = append(order, kind)
		}
		if defended {
			p.def[a.Density] = a.MeanRMSE
		} else {
			p.undef[a.Density] = a.MeanRMSE
		}
		if a.Density > maxPct {
			maxPct = a.Density
		}
	}
	var out []SensorFaultHeadline
	for _, kind := range order {
		p := byKind[kind]
		out = append(out, SensorFaultHeadline{
			Kind:           kind,
			FaultyPct:      maxPct,
			CleanRMSE:      p.undef[0],
			UndefendedRMSE: p.undef[maxPct],
			DefendedRMSE:   p.def[maxPct],
		})
	}
	return out
}
