// Command benchtab regenerates every table and figure of the paper's
// evaluation section (Table I, Figs. 4–6) plus the extension studies, as
// aligned text tables on stdout and optional CSV files.
//
// The sweep cells (density × seed × algorithm grid points) execute on the
// internal/fleet runtime: -parallel N fans them out over N workers with
// bit-identical output at any worker count; -parallel 1 runs the legacy
// serial path.
//
// Usage:
//
//	benchtab [-exp all|table1|fig4|fig5|fig6|failure|sleep|duty|ablation|latency|resilience|sensorfault|kernels]
//	         [-seeds N] [-density D] [-csv DIR]
//	         [-parallel N] [-progress]
//	         [-cpuprofile FILE] [-memprofile FILE] [-trace FILE]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/spec"
	"repro/internal/version"
)

func main() {
	var o options
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.StringVar(&o.exp, "exp", "all", "experiment to run: all, table1, fig4, fig5, fig6, failure, sleep, loss, duty, ablation, multitarget, mobility, radius, resampler, aggregation, latency, resilience, sensorfault, kernels (hot-path profiling loop, not part of all)")
	flag.IntVar(&o.seeds, "seeds", 10, "number of random seeds per configuration (paper: 10)")
	flag.Float64Var(&o.density, "density", 20, "node density (nodes per 100 m²) for single-density experiments")
	flag.StringVar(&o.csvDir, "csv", "", "also write each table as CSV into this directory")
	flag.BoolVar(&o.chart, "chart", false, "render Fig. 5/6 sweeps as ASCII charts too")
	flag.IntVar(&o.parallel, "parallel", runtime.GOMAXPROCS(0), "fleet workers for sweep cells (1 = legacy serial path)")
	flag.BoolVar(&o.progress, "progress", false, "print fleet progress (jobs done, jobs/sec, ETA) to stderr")
	flag.StringVar(&o.prof.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	flag.StringVar(&o.prof.MemProfile, "memprofile", "", "write a pprof heap profile at exit to this file")
	flag.StringVar(&o.prof.Trace, "trace", "", "write a runtime execution trace of the run to this file")
	flag.Parse()
	if *showVersion {
		fmt.Println("benchtab", version.String())
		return
	}

	// Ctrl-C / SIGTERM cancels the fleet cleanly: queued sweep cells drain
	// without running and the run returns the context error.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	stopProf, err := prof.Start(o.prof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
	runErr := run(ctx, o)
	if err := stopProf(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", runErr)
		os.Exit(1)
	}
}

// options carries the parsed command line.
type options struct {
	exp      string
	seeds    int
	density  float64
	csvDir   string
	chart    bool
	parallel int
	progress bool
	prof     prof.Flags
}

func run(ctx context.Context, o options) error {
	if o.parallel < 1 {
		return fmt.Errorf("-parallel must be >= 1, got %d", o.parallel)
	}
	if o.seeds < 1 {
		return fmt.Errorf("-seeds must be >= 1, got %d", o.seeds)
	}
	// Scenario-level validation goes through the spec axes — the same single
	// path cdpfsim, cdpfmatrix, and cdpfd admission use. Zero is guarded
	// separately because a spec cell treats 0 as "unset, use the default"
	// while an explicit -density 0 is an error.
	if o.density == 0 {
		return fmt.Errorf("-density must be positive, got 0")
	}
	if err := (spec.Axes{Density: o.density}).Validate(); err != nil {
		return fmt.Errorf("-density: %w", err)
	}
	exec := experiments.Exec{Workers: o.parallel, Ctx: ctx}
	if o.progress {
		exec.Observer = fleet.NewProgress(os.Stderr, time.Second)
	}
	return runExperiments(o, exec)
}

func runExperiments(o options, exec experiments.Exec) error {
	emit := func(name string, t *report.Table) error {
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if o.csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(o.csvDir, 0o755); err != nil {
			return err
		}
		// Write-then-rename so an interrupted run never leaves a truncated
		// CSV behind under the published name.
		final := filepath.Join(o.csvDir, name+".csv")
		tmp := final + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		if err := f.Close(); err != nil {
			os.Remove(tmp)
			return err
		}
		return os.Rename(tmp, final)
	}

	exp, density, chart := o.exp, o.density, o.chart
	seedList := experiments.Seeds(o.seeds)

	// The kernel hot-path loop is a profiling harness, not a paper table:
	// it runs only when asked for, never under "all".
	if exp == "kernels" {
		return runKernels(o, emit)
	}

	wantsSweep := exp == "all" || exp == "fig5" || exp == "fig6"
	var aggs []metrics.Aggregate
	if wantsSweep {
		results, err := exec.Sweep(experiments.PaperDensities(), seedList, experiments.AllAlgos())
		if err != nil {
			return err
		}
		aggs = metrics.Summarize(results)
	}

	if exp == "all" || exp == "table1" {
		t, _, err := experiments.Table1(density, seedList[0])
		if err != nil {
			return err
		}
		if err := emit("table1", t); err != nil {
			return err
		}
		tv, err := exec.Table1Empirical(density, seedList)
		if err != nil {
			return err
		}
		if err := emit("table1_validation", tv); err != nil {
			return err
		}
	}
	if exp == "all" || exp == "fig4" {
		points, err := experiments.Fig4(density, seedList[0])
		if err != nil {
			return err
		}
		if err := emit("fig4", experiments.Fig4Table(points)); err != nil {
			return err
		}
	}
	if exp == "all" || exp == "fig5" {
		if err := emit("fig5", experiments.Fig5Table(aggs)); err != nil {
			return err
		}
		if chart {
			fmt.Println(experiments.Fig5Chart(aggs))
		}
	}
	if exp == "all" || exp == "fig6" {
		if err := emit("fig6", experiments.Fig6Table(aggs)); err != nil {
			return err
		}
		if chart {
			fmt.Println(experiments.Fig6Chart(aggs))
		}
	}
	if wantsSweep {
		h := experiments.Headlines(aggs)
		fmt.Printf("Headlines (density-averaged): CDPF cost vs SDPF: -%.0f%%, vs CPF: %+.0f%%; "+
			"error vs SDPF: CDPF %+.0f%%, CDPF-NE %+.0f%%\n\n",
			h.CostReductionVsSDPF, -h.CostReductionVsCPF, h.ErrIncreaseCDPF, h.ErrIncreaseNE)
	}
	if exp == "all" || exp == "failure" {
		results, err := exec.FailureSweep(density, []float64{0, 0.1, 0.2, 0.3, 0.4}, seedList)
		if err != nil {
			return err
		}
		if err := emit("failure", experiments.FailureTable(metrics.Summarize(results))); err != nil {
			return err
		}
	}
	if exp == "all" || exp == "sleep" {
		results, err := exec.SleepSweep(density, []float64{0, 0.1, 0.2, 0.3, 0.4}, seedList)
		if err != nil {
			return err
		}
		t := experiments.FailureTable(metrics.Summarize(results))
		t.Title = "Extension — RMSE vs unanticipated random sleeping (density 20)"
		t.Headers[0] = "sleep %"
		if err := emit("sleep", t); err != nil {
			return err
		}
	}
	if exp == "all" || exp == "loss" {
		results, err := exec.LossSweep(density, []float64{0, 0.1, 0.2, 0.3, 0.5}, seedList)
		if err != nil {
			return err
		}
		if err := emit("loss", experiments.LossTable(metrics.Summarize(results))); err != nil {
			return err
		}
	}
	if exp == "all" || exp == "duty" {
		results, err := experiments.DutyCycleEnergy(density, seedList[0], 0.2)
		if err != nil {
			return err
		}
		if err := emit("duty", experiments.DutyCycleTable(results)); err != nil {
			return err
		}
	}
	if exp == "all" || exp == "ablation" {
		results, err := exec.DesignAblation(density, seedList)
		if err != nil {
			return err
		}
		if err := emit("ablation", experiments.AblationTable(results)); err != nil {
			return err
		}
	}
	if exp == "all" || exp == "multitarget" {
		t, err := exec.MultiTargetExperiment(density, []int{1, 2, 3}, seedList)
		if err != nil {
			return err
		}
		if err := emit("multitarget", t); err != nil {
			return err
		}
	}
	if exp == "all" || exp == "mobility" {
		results, err := exec.MobilitySweep(density, []float64{0, 0.5, 1, 2, 4}, seedList)
		if err != nil {
			return err
		}
		if err := emit("mobility", experiments.MobilityTable(metrics.Summarize(results))); err != nil {
			return err
		}
	}
	if exp == "all" || exp == "radius" {
		t, err := experiments.RadiusRatioSweep(density, []float64{20, 25, 30, 40, 60}, seedList)
		if err != nil {
			return err
		}
		if err := emit("radius", t); err != nil {
			return err
		}
	}
	if exp == "all" || exp == "resampler" {
		t, err := experiments.ResamplerAblation(seedList)
		if err != nil {
			return err
		}
		if err := emit("resampler", t); err != nil {
			return err
		}
	}
	if exp == "all" || exp == "aggregation" {
		t, err := experiments.AggregationComparison(density, seedList[0])
		if err != nil {
			return err
		}
		if err := emit("aggregation", t); err != nil {
			return err
		}
	}
	if exp == "all" || exp == "latency" {
		t, err := experiments.LatencyComparison(density, seedList[0])
		if err != nil {
			return err
		}
		if err := emit("latency", t); err != nil {
			return err
		}
	}
	if exp == "all" || exp == "resilience" {
		results, err := exec.ResilienceLossSweep(density, experiments.ResilienceLossRates(),
			experiments.ResilienceFailFrac, experiments.ResilienceBurstLen, seedList)
		if err != nil {
			return err
		}
		lossAggs := metrics.Summarize(results)
		rmse, cov, reacq := experiments.ResilienceTables(lossAggs, "loss %")
		named := []struct {
			name string
			t    *report.Table
		}{
			{"resilience_rmse", rmse},
			{"resilience_coverage", cov},
			{"resilience_reacq", reacq},
			{"resilience_locked", experiments.ResilienceLockTable(lossAggs, "loss %")},
		}
		for _, nt := range named {
			if err := emit(nt.name, nt.t); err != nil {
				return err
			}
		}
		for _, h := range experiments.ResilienceHeadlines(lossAggs) {
			fmt.Printf("Resilience headline %s: worst-corner RMSE x%.2f of clean, coverage %.0f%% at worst\n",
				h.Algo, h.RMSEInflation, 100*h.CoverageAtWorst)
		}
		fmt.Println()
		if chart {
			fmt.Println(experiments.ResilienceChart(lossAggs, "loss %"))
		}
		failResults, err := exec.ResilienceFailSweep(density, experiments.ResilienceFailFracs(),
			experiments.ResilienceLossRate, experiments.ResilienceBurstLen, seedList)
		if err != nil {
			return err
		}
		failRMSE, failCov, failReacq := experiments.ResilienceTables(metrics.Summarize(failResults), "fail %")
		failNamed := []struct {
			name string
			t    *report.Table
		}{
			{"resilience_fail_rmse", failRMSE},
			{"resilience_fail_coverage", failCov},
			{"resilience_fail_reacq", failReacq},
		}
		for _, nt := range failNamed {
			if err := emit(nt.name, nt.t); err != nil {
				return err
			}
		}
	}
	if exp == "all" || exp == "sensorfault" {
		results, err := exec.SensorFaultSweep(density, experiments.SensorFaultKinds(),
			experiments.SensorFaultFracs(), seedList)
		if err != nil {
			return err
		}
		sfAggs := metrics.Summarize(results)
		rmse, cov := experiments.SensorFaultTables(sfAggs)
		named := []struct {
			name string
			t    *report.Table
		}{
			{"sensorfault_rmse", rmse},
			{"sensorfault_coverage", cov},
			{"sensorfault_quarantine", experiments.SensorFaultQuarantineTable(sfAggs)},
		}
		for _, nt := range named {
			if err := emit(nt.name, nt.t); err != nil {
				return err
			}
		}
		for _, h := range experiments.SensorFaultHeadlines(sfAggs) {
			fmt.Printf("Sensor-fault headline %s @ %.0f%% faulty: clean RMSE %.2f m, undefended %.2f m, defended %.2f m\n",
				h.Kind, h.FaultyPct, h.CleanRMSE, h.UndefendedRMSE, h.DefendedRMSE)
		}
		fmt.Println()
	}
	switch exp {
	case "all", "table1", "fig4", "fig5", "fig6", "failure", "sleep", "loss", "duty",
		"ablation", "multitarget", "mobility", "radius", "resampler", "aggregation", "latency",
		"resilience", "sensorfault":
		return nil
	}
	return fmt.Errorf("unknown experiment %q", exp)
}
