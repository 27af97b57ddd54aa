package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// opts builds the default test options (single seed, serial).
func opts(exp string, seeds int, density float64, csvDir string) options {
	return options{exp: exp, seeds: seeds, density: density, csvDir: csvDir, parallel: 1}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(context.Background(), opts("nope", 1, 20, "")); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunRejectsNonPositiveParallel(t *testing.T) {
	o := opts("fig4", 1, 20, "")
	o.parallel = -3
	if err := run(context.Background(), o); err == nil || !strings.Contains(err.Error(), "-parallel") {
		t.Fatalf("err = %v, want -parallel validation error", err)
	}
}

func TestRunRejectsInvalidFlags(t *testing.T) {
	cases := []struct {
		name string
		o    options
		want string
	}{
		{"zero seeds", opts("fig4", 0, 20, ""), "-seeds"},
		{"negative seeds", opts("fig4", -2, 20, ""), "-seeds"},
		{"zero density", opts("fig4", 1, 0, ""), "-density"},
		{"negative density", opts("fig4", 1, -5, ""), "-density"},
	}
	for _, c := range cases {
		err := run(context.Background(), c.o)
		if err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not name %s", c.name, err, c.want)
		}
		if strings.Contains(err.Error(), "\n") {
			t.Fatalf("%s: error %q is not one line", c.name, err)
		}
	}
}

func TestRunSensorFaultWritesCSVs(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), opts("sensorfault", 1, 10, dir)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sensorfault_rmse.csv", "sensorfault_coverage.csv", "sensorfault_quarantine.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(strings.Split(strings.TrimSpace(string(data)), "\n")) < 2 {
			t.Fatalf("%s has no data rows:\n%s", name, data)
		}
	}
}

func TestRunFig4WithCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), opts("fig4", 1, 20, dir)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig4.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 12 { // header + 11 iterations
		t.Fatalf("fig4.csv has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "k,truth_x") {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestRunCancelledContext(t *testing.T) {
	// A pre-cancelled context (the moral equivalent of Ctrl-C before the
	// sweep starts) must abort the fleet and surface the context error
	// instead of running the cells.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := opts("table1", 2, 10, "")
	o.parallel = 4
	err := run(ctx, o)
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunSingleExperiments(t *testing.T) {
	// Cheap single-seed smoke over every single-density experiment.
	for _, exp := range []string{"table1", "duty", "latency", "aggregation", "resampler"} {
		if err := run(context.Background(), opts(exp, 1, 10, "")); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
}

func TestRunParallelMatchesSerialCSV(t *testing.T) {
	// The determinism contract at the CLI layer: every CSV a parallel run
	// of the full suite writes must be byte-identical to the serial run's.
	render := func(parallel int) map[string][]byte {
		dir := t.TempDir()
		o := opts("all", 2, 10, dir)
		o.parallel = parallel
		if err := run(context.Background(), o); err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		paths, err := filepath.Glob(filepath.Join(dir, "*.csv"))
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string][]byte, len(paths))
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			files[filepath.Base(p)] = data
		}
		return files
	}
	serial := render(1)
	if len(serial) != 26 {
		t.Fatalf("serial run wrote %d CSVs, want 26", len(serial))
	}
	par := render(4)
	if len(par) != len(serial) {
		t.Fatalf("parallel run wrote %d CSVs, serial %d", len(par), len(serial))
	}
	for name, want := range serial {
		if got := par[name]; string(got) != string(want) {
			t.Errorf("%s: parallel CSV diverged from serial:\n%s\nvs\n%s", name, want, got)
		}
	}
}
