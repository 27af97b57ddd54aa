package experiments

import (
	"os"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sensorfault"
	"repro/internal/spec"
)

// The spec-golden tests close the loop on the declarative spec subsystem:
// each checked-in spec under examples/specs/ is expanded, every cell runs
// through RunCell (the single execution path behind cdpfsim and
// cdpfmatrix), the results are relabeled the way the original sweep
// labeled them, and the rendered tables must byte-match the published
// results/*.csv. A drift in the spec compiler, the cell runner, or the
// specs themselves shows up as a CSV diff.

// runSpecCells expands the named example spec and executes every cell whose
// axes pass keep (nil keeps all), relabeling each result for aggregation.
func runSpecCells(t *testing.T, name string, keep func(spec.Axes) bool,
	relabel func(*metrics.RunResult, spec.Axes)) []metrics.RunResult {
	t.Helper()
	f, err := spec.Load("../../examples/specs/" + name + ".json")
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != name {
		t.Fatalf("spec name %q, file says %q", f.Name, name)
	}
	cells, err := f.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var grid []spec.Axes
	for _, c := range cells {
		if keep == nil || keep(c.Axes) {
			grid = append(grid, c.Axes)
		}
	}
	results, err := Exec{Workers: 2}.sweep(grid, relabel)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// assertTableMatchesCSV renders the table and requires byte-identity with
// the published results file.
func assertTableMatchesCSV(t *testing.T, tab *report.Table, file string) {
	t.Helper()
	want, err := os.ReadFile("../../results/" + file + ".csv")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	if err := tab.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("%s.csv differs from spec-driven regeneration:\ngot:\n%s\nwant:\n%s",
			file, got.String(), want)
	}
}

// TestSpecReproducesResilienceCSVs regenerates the full resilience loss and
// fail sweeps from examples/specs/resilience-*.json.
func TestSpecReproducesResilienceCSVs(t *testing.T) {
	if testing.Short() {
		t.Skip("full ten-seed sweeps; skipped with -short")
	}
	lossResults := runSpecCells(t, "resilience-loss", nil,
		func(r *metrics.RunResult, ax spec.Axes) { r.Density = 100 * ax.Loss })
	rmse, cov, reacq := ResilienceTables(metrics.Summarize(lossResults), "loss %")
	assertTableMatchesCSV(t, rmse, "resilience_rmse")
	assertTableMatchesCSV(t, cov, "resilience_coverage")
	assertTableMatchesCSV(t, reacq, "resilience_reacq")
	assertTableMatchesCSV(t, ResilienceLockTable(metrics.Summarize(lossResults), "loss %"), "resilience_locked")

	failResults := runSpecCells(t, "resilience-fail", nil,
		func(r *metrics.RunResult, ax spec.Axes) { r.Density = 100 * ax.FailFrac })
	failRMSE, failCov, failReacq := ResilienceTables(metrics.Summarize(failResults), "fail %")
	assertTableMatchesCSV(t, failRMSE, "resilience_fail_rmse")
	assertTableMatchesCSV(t, failCov, "resilience_fail_coverage")
	assertTableMatchesCSV(t, failReacq, "resilience_fail_reacq")
}

// TestSpecReproducesLossCSV regenerates the unreliable-links sweep from
// examples/specs/loss.json.
func TestSpecReproducesLossCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("ten-seed sweep; skipped with -short")
	}
	results := runSpecCells(t, "loss", nil,
		func(r *metrics.RunResult, ax spec.Axes) { r.Density = 100 * ax.Loss })
	assertTableMatchesCSV(t, LossTable(metrics.Summarize(results)), "loss")
}

// TestSpecReproducesSensorFaultCSVs regenerates the sensor-fault grid from
// examples/specs/sensorfault.json, including the quarantine detector table.
func TestSpecReproducesSensorFaultCSVs(t *testing.T) {
	if testing.Short() {
		t.Skip("full ten-seed grid; skipped with -short")
	}
	results := runSpecCells(t, "sensorfault", nil,
		func(r *metrics.RunResult, ax spec.Axes) {
			kind, err := sensorfault.ParseKind(ax.SensorFault)
			if err != nil {
				t.Fatal(err)
			}
			r.Algo = sensorFaultAlgo(ax.Defend, kind)
			r.Density = 100 * ax.SensorFaultFrac
		})
	aggs := metrics.Summarize(results)
	rmse, cov := SensorFaultTables(aggs)
	assertTableMatchesCSV(t, rmse, "sensorfault_rmse")
	assertTableMatchesCSV(t, cov, "sensorfault_coverage")
	assertTableMatchesCSV(t, SensorFaultQuarantineTable(aggs), "sensorfault_quarantine")
}

// TestSpecReproducesFigureRows regenerates the density-5/20/40 slice of the
// Fig. 5/6 sweep from examples/specs/fig56-sweep.json and requires every
// produced row to byte-match the published CSVs (the full eight-density
// sweep is the same spec unfiltered; the slice keeps the suite's runtime
// bounded, as in TestHotPathResultsByteIdentical).
func TestSpecReproducesFigureRows(t *testing.T) {
	if testing.Short() {
		t.Skip("ten-seed sweep slice; skipped with -short")
	}
	densities := map[float64]bool{5: true, 20: true, 40: true}
	results := runSpecCells(t, "fig56-sweep",
		func(ax spec.Axes) bool { return densities[ax.Density] }, nil)
	aggs := metrics.Summarize(results)
	for _, fc := range []struct {
		file  string
		table *report.Table
	}{
		{"fig5", Fig5Table(aggs)},
		{"fig6", Fig6Table(aggs)},
	} {
		want, err := os.ReadFile("../../results/" + fc.file + ".csv")
		if err != nil {
			t.Fatal(err)
		}
		golden := make(map[string]string)
		for _, line := range strings.Split(strings.TrimSpace(string(want)), "\n")[1:] {
			cell, _, _ := strings.Cut(line, ",")
			golden[cell] = line
		}
		var got strings.Builder
		if err := fc.table.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(got.String()), "\n")
		if len(lines) != len(densities)+1 {
			t.Fatalf("%s: got %d lines, want %d", fc.file, len(lines), len(densities)+1)
		}
		for _, line := range lines[1:] {
			cell, _, _ := strings.Cut(line, ",")
			if golden[cell] != line {
				t.Errorf("%s density %s:\ngot  %s\nwant %s", fc.file, cell, line, golden[cell])
			}
		}
	}
}

// TestCISmokeSpecShape pins the CI matrix spec: twelve serveable cells that
// the matrix-smoke job can execute in seconds.
func TestCISmokeSpecShape(t *testing.T) {
	f, err := spec.Load("../../examples/specs/ci-smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := f.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 12 {
		t.Fatalf("ci-smoke expands to %d cells, want 12", len(cells))
	}
	for _, c := range cells {
		if !c.Axes.IsCDPF() {
			t.Errorf("cell %s is not a cdpf variant", c.Name)
		}
	}
}
