package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/spec"
)

// recycleSpecs is a mixed workload for the recycling test: every algorithm
// at a sparse and a dense deployment under bursty loss, plus a spec for each
// axis that changes how a cell uses its per-node memory (mid-run fail-stop,
// node drift, duty cycling, Byzantine sensors with the defenses, two
// targets).
func recycleSpecs() []*spec.File {
	mk := func(name string, base spec.Axes, g spec.Grid) *spec.File {
		return &spec.File{Version: spec.Version, Name: name, Base: base, Grid: g}
	}
	return []*spec.File{
		mk("algos", spec.Axes{Loss: 0.3, Burst: 4},
			spec.Grid{Density: []float64{5, 40}, Algo: []string{"cpf", "dpf", "sdpf", "ekf", "cdpf", "cdpf-ne"}}),
		mk("failstop", spec.Axes{Density: 5, FailFrac: 0.3},
			spec.Grid{Algo: []string{"cpf", "sdpf", "cdpf", "cdpf-ne"}}),
		mk("drift", spec.Axes{Density: 5, Mobility: 0.5},
			spec.Grid{Algo: []string{"cpf", "sdpf", "cdpf", "cdpf-ne"}}),
		mk("duty", spec.Axes{Density: 10, Duty: 0.3},
			spec.Grid{Algo: []string{"cdpf", "cdpf-ne"}}),
		mk("byzantine", spec.Axes{Density: 10, SensorFault: "byzantine", SensorFaultFrac: 0.2, Defend: true},
			spec.Grid{Algo: []string{"cdpf", "cdpf-ne"}}),
		mk("targets", spec.Axes{Algo: "cdpf", Density: 10, Targets: 2},
			spec.Grid{Seed: []uint64{31, 62}}),
	}
}

// cellBytes is what a cell must reproduce exactly: its trace CSV and its
// metrics result (%+v prints every float64 in its shortest exact form).
type cellBytes struct {
	trace  []byte
	result string
}

// TestCellRecyclingByteIdentical runs a mixed list of cells in one process
// in two different orders, then through RunMatrix with four workers, and
// requires every cell's trace CSV and RunResult to be byte-identical across
// the three runs. Each cell draws its networks, tracker tables and baseline
// buffers from whatever the cells before it released, so a recycled table
// that is not reset, or one released while still in use (which the race
// detector also reports under -race), shows up as a differing cell.
func TestCellRecyclingByteIdentical(t *testing.T) {
	type job struct {
		spec string
		cell spec.Cell
	}
	specs := recycleSpecs()
	var jobs []job
	for _, f := range specs {
		cells, err := f.Expand()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			jobs = append(jobs, job{f.Name, c})
		}
	}
	key := func(specName, cell string) string { return specName + "/" + cell }

	runInOrder := func(order []job) map[string]cellBytes {
		out := make(map[string]cellBytes, len(order))
		for _, j := range order {
			o, err := RunCell(context.Background(), j.cell.Axes)
			if err != nil {
				t.Fatalf("%s: %v", key(j.spec, j.cell.Name), err)
			}
			var buf bytes.Buffer
			if err := o.Trace.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			out[key(j.spec, j.cell.Name)] = cellBytes{buf.Bytes(), fmt.Sprintf("%+v", o.Result)}
		}
		return out
	}
	forward := runInOrder(jobs)
	// The second order alternates from both ends, so dense and sparse cells
	// of different algorithms follow each other differently.
	var mixed []job
	for i, k := 0, len(jobs)-1; i <= k; i, k = i+1, k-1 {
		mixed = append(mixed, jobs[k])
		if i != k {
			mixed = append(mixed, jobs[i])
		}
	}
	if len(mixed) != len(jobs) || slices.EqualFunc(mixed, jobs, func(a, b job) bool { return a.cell.Name == b.cell.Name && a.spec == b.spec }) {
		t.Fatal("the second order must be a different permutation of the cells")
	}
	second := runInOrder(mixed)

	matrix := make(map[string]cellBytes, len(jobs))
	for _, f := range specs {
		dir := t.TempDir()
		sum, err := RunMatrix(f, MatrixOptions{Exec: Exec{Workers: 4}, OutDir: dir, Version: "test"})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range sum.Statuses {
			if !st.Executed || st.Result == nil {
				t.Fatalf("%s: cell %s did not execute", f.Name, st.Name)
			}
			data, err := os.ReadFile(filepath.Join(dir, st.Name, "trace.csv"))
			if err != nil {
				t.Fatal(err)
			}
			matrix[key(f.Name, st.Name)] = cellBytes{data, fmt.Sprintf("%+v", *st.Result)}
		}
	}

	for _, j := range jobs {
		k := key(j.spec, j.cell.Name)
		want := forward[k]
		for _, run := range []struct {
			name string
			got  map[string]cellBytes
		}{{"second order", second}, {"RunMatrix, 4 workers", matrix}} {
			got, ok := run.got[k]
			switch {
			case !ok:
				t.Errorf("%s: %s missing", run.name, k)
			case !bytes.Equal(got.trace, want.trace):
				t.Errorf("%s: %s trace CSV differs from the first run", run.name, k)
			case got.result != want.result:
				t.Errorf("%s: %s RunResult differs from the first run:\n got %s\nwant %s", run.name, k, got.result, want.result)
			}
		}
	}
}
