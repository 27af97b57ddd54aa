package main

import (
	"reflect"
	"testing"

	"repro/internal/serve"
	"repro/internal/spec"
)

// TestFrozenSpecs validates the workload documents under specs/ and pins
// their shape, so an edit to them shows up as a failing test rather than as
// a silent change of what the benchmark measures.
func TestFrozenSpecs(t *testing.T) {
	fig, err := loadSweep("specs/fig56.json", 1)
	if err != nil {
		t.Fatal(err)
	}
	wantFig := spec.Grid{
		Density: []float64{5, 10, 15, 20, 25, 30, 35, 40},
		Algo:    []string{"cpf", "sdpf", "cdpf", "cdpf-ne"},
	}
	if g := fig.file.Grid; !reflect.DeepEqual(g.Density, wantFig.Density) || !reflect.DeepEqual(g.Algo, wantFig.Algo) ||
		len(g.Seed) != 10 || len(fig.cells) != 320 || fig.iters != 320*11 {
		t.Errorf("fig56: grid %+v, %d cells, %d iterations; want the paper's 8 densities x 4 algorithms x 10 seeds, 11 iterations each",
			g, len(fig.cells), fig.iters)
	}

	track, err := loadSweep("specs/cdpf-track.json", 1)
	if err != nil {
		t.Fatal(err)
	}
	g := track.file.Grid
	if !reflect.DeepEqual(g.Density, []float64{20, 40}) || !reflect.DeepEqual(g.Loss, []float64{0, 0.3}) ||
		!reflect.DeepEqual(g.Algo, []string{"cdpf", "cdpf-ne"}) || len(g.Seed) != 100 ||
		len(track.cells) != 800 || track.iters != 800*61 {
		t.Errorf("cdpf-track: grid %+v, %d cells, %d iterations; want 2 densities x 2 losses x 2 algorithms x 100 seeds, 61 iterations each",
			g, len(track.cells), track.iters)
	}
	for _, c := range track.cells {
		if c.Axes.Dt != 1 || c.Axes.Steps != 60 {
			t.Fatalf("cdpf-track cell %s: dt %v steps %d, want 1 and 60", c.Name, c.Axes.Dt, c.Axes.Steps)
		}
	}

	c, _, err := spec.LoadCell("specs/served-cell.json")
	if err != nil {
		t.Fatal(err)
	}
	if a := c.Axes; a.Algo != "cdpf" || a.Density != 20 || a.Dt != 1 || a.Steps != 60 {
		t.Errorf("served cell %+v, want cdpf at density 20, dt 1, 60 steps", a)
	}
	if _, err := serve.Observations(serve.SessionSpec{Cell: &c.Axes}); err != nil {
		t.Errorf("served cell is not serveable: %v", err)
	}
}

// TestSeedsDeriveFromTheWorkloadSeed: the same seed gives the same cells,
// another seed other cells.
func TestSeedsDeriveFromTheWorkloadSeed(t *testing.T) {
	a, err := loadSweep("specs/fig56.json", 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := loadSweep("specs/fig56.json", 7)
	c, _ := loadSweep("specs/fig56.json", 8)
	if !reflect.DeepEqual(a.cells, b.cells) {
		t.Error("seed 7 expanded to different cells twice")
	}
	if reflect.DeepEqual(a.file.Grid.Seed, c.file.Grid.Seed) {
		t.Error("seeds 7 and 8 derived the same cell seeds")
	}
}
