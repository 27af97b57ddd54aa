// Command cdpfsim runs one tracking scenario with a chosen algorithm and
// prints a per-iteration trace plus the run summary — the quickest way to
// watch CDPF work.
//
// Usage:
//
//	cdpfsim [-algo cdpf|cdpf-ne|cpf|sdpf] [-density D] [-seed S]
//	        [-steps N] [-fail F] [-sleep F] [-loss P] [-burst L]
//	        [-failfrac F] [-sfault stuck|drift|noise|outlier|byzantine]
//	        [-sfaultfrac F] [-sfaultmag M] [-defend] [-v]
//	        [-cpuprofile FILE] [-memprofile FILE] [-exectrace FILE]
//	cdpfsim -spec FILE[#CELL] [-trace FILE] [-v]
//	cdpfsim -replay-dir DIR [-replay-session ID] [-trace FILE] [-v]
//
// (-trace writes the per-iteration CSV trace; the runtime execution trace is
// -exectrace.)
//
// The scenario flags and -spec are two spellings of the same thing: the
// flags assemble a spec/v1 cell in memory, and -spec loads one from disk
// (FILE#CELL names one cell of a gridded spec). Both run through the same
// engine (internal/experiments.RunCell), so a spec-driven run is
// byte-identical to its flag-driven twin — and to the same cell executed by
// cdpfmatrix.
//
// Replay mode re-runs a production cdpfd session offline from its durability
// directory: the write-ahead log holds the session spec and every admitted
// observation batch, which is everything the deterministic tracker needs to
// reproduce the served trace bit for bit (see internal/serve.Replay). With no
// -replay-session, the sessions found in the WAL are listed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/durable"
	"repro/internal/experiments"
	"repro/internal/mathx"
	"repro/internal/prof"
	"repro/internal/serve"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/version"
)

// scenarioFlags are the flag names that conflict with -spec: each sets an
// axis the spec file already owns.
var scenarioFlags = map[string]bool{
	"algo": true, "density": true, "seed": true, "steps": true,
	"fail": true, "sleep": true, "loss": true, "burst": true, "failfrac": true,
	"sfault": true, "sfaultfrac": true, "sfaultmag": true, "defend": true,
}

func main() {
	var o options
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.StringVar(&o.algo, "algo", "cdpf", "algorithm: cdpf, cdpf-ne, cpf, dpf, sdpf, ekf")
	flag.Float64Var(&o.density, "density", 20, "node density (nodes per 100 m²)")
	flag.Uint64Var(&o.seed, "seed", 31, "master random seed")
	flag.IntVar(&o.steps, "steps", 10, "filter iterations (paper: 10 = 50 s at Δt 5 s)")
	flag.Float64Var(&o.failFrac, "fail", 0, "fraction of nodes failed at deployment")
	flag.Float64Var(&o.sleepFr, "sleep", 0, "fraction of nodes in unanticipated sleep")
	flag.Float64Var(&o.loss, "loss", 0, "link packet-loss rate in [0,1)")
	flag.Float64Var(&o.burst, "burst", 1, "mean loss-burst length in filter iterations; >1 selects Gilbert–Elliott bursty loss")
	flag.Float64Var(&o.failMid, "failfrac", 0, "fraction of nodes fail-stopped mid-run (fault injection)")
	flag.StringVar(&o.sfKind, "sfault", "stuck", "sensor-fault kind: stuck, drift, noise, outlier, byzantine")
	flag.Float64Var(&o.sfFrac, "sfaultfrac", 0, "fraction of nodes with faulty sensors in [0,1]; 0 disables sensor faults")
	flag.Float64Var(&o.sfMag, "sfaultmag", 0, "sensor-fault magnitude (drift rad/s, noise stddev rad, outlier probability); 0 = kind default")
	flag.BoolVar(&o.defend, "defend", false, "enable the Byzantine-tolerant sensing defenses (cdpf/cdpf-ne only): innovation gating, Student-t likelihood, node quarantine")
	flag.StringVar(&o.spec, "spec", "", "run a spec/v1 scenario file instead of scenario flags: FILE, or FILE#CELL for one cell of a grid")
	flag.BoolVar(&o.verbose, "v", false, "print a per-iteration trace")
	flag.StringVar(&o.traceOut, "trace", "", "write a per-iteration CSV trace to this file")
	flag.StringVar(&o.prof.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	flag.StringVar(&o.prof.MemProfile, "memprofile", "", "write a pprof heap profile at exit to this file")
	flag.StringVar(&o.prof.Trace, "exectrace", "", "write a runtime execution trace to this file (-trace is the CSV trace)")
	flag.StringVar(&o.replayDir, "replay-dir", "", "replay mode: a cdpfd durability directory (WAL + snapshots) to re-run sessions from")
	flag.StringVar(&o.replaySession, "replay-session", "", "session ID to replay from -replay-dir (empty lists the sessions)")
	flag.Parse()
	if *showVersion {
		fmt.Println("cdpfsim", version.String())
		return
	}
	if o.spec != "" {
		var conflicts []string
		flag.Visit(func(f *flag.Flag) {
			if scenarioFlags[f.Name] {
				conflicts = append(conflicts, "-"+f.Name)
			}
		})
		if len(conflicts) > 0 {
			fmt.Fprintf(os.Stderr, "cdpfsim: -spec conflicts with scenario flags %v (the spec owns those axes)\n", conflicts)
			os.Exit(1)
		}
	}

	// Ctrl-C / SIGTERM stops the iteration loop at the next step boundary;
	// the -trace file is only renamed into place when a run completes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	stopProf, err := prof.Start(o.prof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdpfsim:", err)
		os.Exit(1)
	}
	runErr := run(ctx, o)
	if err := stopProf(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "cdpfsim:", runErr)
		os.Exit(1)
	}
}

// options carries the parsed command line.
type options struct {
	algo     string
	density  float64
	seed     uint64
	steps    int
	failFrac float64
	sleepFr  float64
	loss     float64
	burst    float64
	failMid  float64
	sfKind   string
	sfFrac   float64
	sfMag    float64
	defend   bool
	spec     string
	verbose  bool
	traceOut string
	prof     prof.Flags

	replayDir     string
	replaySession string
}

// axes assembles the flag set's spec cell — the single validation and
// execution path shared with -spec files, cdpfmatrix, and benchtab.
func (o options) axes() spec.Axes {
	return spec.Axes{
		Algo:    o.algo,
		Density: o.density,
		Seed:    o.seed,
		Steps:   o.steps,
		Fail:    o.failFrac,
		Sleep:   o.sleepFr,

		Loss:     o.loss,
		Burst:    o.burst,
		FailFrac: o.failMid,

		SensorFault:     o.sfKind,
		SensorFaultFrac: o.sfFrac,
		SensorFaultMag:  o.sfMag,

		Defend: o.defend,
	}
}

func run(ctx context.Context, o options) error {
	if o.replayDir != "" {
		return runReplay(o)
	}
	if o.replaySession != "" {
		return fmt.Errorf("-replay-session requires -replay-dir")
	}
	ax := o.axes()
	if o.spec != "" {
		cell, f, err := spec.LoadCell(o.spec)
		if err != nil {
			return err
		}
		ax = cell.Axes
		fmt.Printf("spec %s cell %s\n", f.Name, cell.Name)
	}
	ax = ax.Normalized()
	if err := ax.Validate(); err != nil {
		return err
	}
	out, err := experiments.RunCell(ctx, ax)
	if err != nil {
		return err
	}

	fmt.Printf("field %gx%g m, %d nodes (density %.1f/100m²), rs=%g m, rc=%g m, %d filter iterations\n",
		out.FieldW, out.FieldH, out.Nodes, out.NetDensity,
		out.SensingR, out.CommR, out.Result.Iterations)
	if out.FaultySensors > 0 {
		fmt.Printf("sensor faults: %d of %d nodes %s\n", out.FaultySensors, out.Nodes, ax.SensorFault)
	}
	if ax.Loss > 0 {
		if ax.Burst > 1 {
			fmt.Printf("link loss: %.0f%% bursty (mean burst %.1f iterations)\n", 100*ax.Loss, ax.Burst)
		} else {
			fmt.Printf("link loss: %.0f%% iid\n", 100*ax.Loss)
		}
	}
	if out.FailStopVictims > 0 {
		fmt.Printf("fault injection: %d nodes fail-stop at t=%g s\n", out.FailStopVictims, out.FailStopTime)
	}
	if out.Defended {
		if cfg, err := ax.TrackerConfig(); err == nil {
			fmt.Printf("sensing defenses: gate %gσ, Student-t ν=%g, quarantine on\n",
				cfg.GateSigma, cfg.Sensor.TailNu)
		}
	}
	if ax.Duty > 0 {
		fmt.Printf("duty cycle: %.0f%% awake target with TDSS proactive wake-up, mean awake share %.2f\n",
			100*ax.Duty, out.AwakeShare)
	}
	if ax.Targets > 1 {
		fmt.Printf("multi-target: %d targets on staggered lanes, mean live tracks %.2f (trace follows lane 0)\n",
			ax.Targets, out.MeanLiveTracks)
	}

	if o.verbose {
		for _, r := range out.Trace.Records {
			truth := mathx.V2(r.TruthX, r.TruthY)
			if r.HaveEst {
				fmt.Printf("k=%2d truth=%v est[k=%d]=%v err=%.2f m, %d msgs / %d B this iteration\n",
					r.K, truth, r.EstForK, mathx.V2(r.EstX, r.EstY), r.Err, r.MsgsDelta, r.BytesDelta)
			} else {
				fmt.Printf("k=%2d truth=%v (no estimate), %d msgs / %d B\n",
					r.K, truth, r.MsgsDelta, r.BytesDelta)
			}
		}
	}
	if o.traceOut != "" {
		if err := writeTraceFile(&out.Trace, o.traceOut); err != nil {
			return err
		}
	}

	res := out.Result
	fmt.Printf("\n%s: %d estimates, RMSE %.2f m, max error %.2f m\n",
		ax.Algo, len(res.Errors), mathx.RMS(res.Errors), maxOf(res.Errors))
	fmt.Printf("communication: %s (total %d msgs / %d bytes)\n",
		&res.Comm, res.Comm.TotalMsgs(), res.Comm.TotalBytes())
	if out.Hardened {
		fmt.Printf("track loss: %d episodes, locked %.0f%% of the time since acquisition",
			res.LossEpisodes, 100*res.LockedFrac)
		if len(res.ReacquireIters) > 0 {
			fmt.Printf(", mean reacquire %.1f iterations", mathx.Mean(res.ReacquireIters))
		}
		fmt.Println()
		if rs := out.Resilience; rs != nil {
			fmt.Printf("degradation: %d rebroadcasts (%d saved a particle), %d compensated totals, %d failed nodes at end\n",
				rs.Rebroadcasts, rs.RebroadcastSaves, rs.Compensated, out.DownAtEnd)
		}
	}
	if q := out.Quarantine; q != nil {
		fmt.Printf("quarantine: %d evictions, %d readmissions, %d nodes quarantined at end, %d gated likelihood terms\n",
			q.Evictions, q.Readmissions, len(q.Quarantined), q.Gated)
	}
	return nil
}

// runReplay re-runs a cdpfd session offline from a durability directory. The
// WAL is read without truncating anything — replay is a forensic tool and must
// leave a production data directory untouched.
func runReplay(o options) error {
	rec, err := durable.Load(o.replayDir)
	if err != nil {
		return err
	}
	if o.replaySession == "" {
		if len(rec.Order) == 0 {
			return fmt.Errorf("no sessions logged under %s", o.replayDir)
		}
		fmt.Printf("%d sessions logged under %s:\n", len(rec.Order), o.replayDir)
		for _, id := range rec.Order {
			fmt.Printf("  %-32s %3d batches in WAL\n", id, len(rec.Sessions[id].Batches))
		}
		fmt.Println("replay one with -replay-session ID")
		return nil
	}
	tr, err := serve.Replay(rec, o.replaySession)
	if err != nil {
		return err
	}
	fmt.Printf("replayed session %q: algo %s, density %g, seed %d, %d of %d iterations logged\n",
		o.replaySession, tr.Algo, tr.Density, tr.Seed,
		len(rec.Sessions[o.replaySession].Batches), tr.Len())
	if o.verbose {
		for _, r := range tr.Records {
			if r.HaveEst {
				fmt.Printf("k=%2d truth=(%.2f, %.2f) est[k=%d]=(%.2f, %.2f) err=%.2f m\n",
					r.K, r.TruthX, r.TruthY, r.EstForK, r.EstX, r.EstY, r.Err)
			} else {
				fmt.Printf("k=%2d truth=(%.2f, %.2f) (no estimate)\n", r.K, r.TruthX, r.TruthY)
			}
		}
	}
	var errs []float64
	for _, r := range tr.Records {
		if r.HaveEst {
			errs = append(errs, r.Err)
		}
	}
	fmt.Printf("%s: %d estimates, RMSE %.2f m, max error %.2f m\n",
		tr.Algo, len(errs), mathx.RMS(errs), maxOf(errs))
	if o.traceOut != "" {
		return writeTraceFile(tr, o.traceOut)
	}
	return nil
}

// writeTraceFile writes the CSV trace with write-then-rename so an
// interrupted run never leaves a truncated trace under the requested name.
func writeTraceFile(rec *trace.Recorder, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := rec.WriteCSV(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	fmt.Printf("trace written to %s (%d iterations)\n", path, rec.Len())
	return nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
