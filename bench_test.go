// Package repro's benchmark harness: one benchmark per table/figure of the
// paper's evaluation, plus performance benchmarks of the simulator itself.
//
// The figure benchmarks report the *domain* quantities (bytes per run, RMSE
// in meters) via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the paper's headline numbers alongside the usual ns/op:
//
//	BenchmarkFig5CommCost/cdpf/d20    ...  3476 bytes_per_run
//	BenchmarkFig6RMSE/cdpf/d20        ...  4.1 rmse_m
package repro

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/kernel"
	"repro/internal/mathx"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/wsn"
)

// benchSeed keeps the figure benchmarks deterministic.
const benchSeed = 31

// BenchmarkTable1CostModel regenerates Table I: it measures N, N_s, and
// H_max from a CDPF run at density 20 and evaluates the closed forms.
func BenchmarkTable1CostModel(b *testing.B) {
	b.ReportAllocs()
	var lastCDPF int
	for i := 0; i < b.N; i++ {
		_, meas, err := experiments.Table1(20, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		lastCDPF = meas.Params.CDPF()
	}
	b.ReportMetric(float64(lastCDPF), "cdpf_bytes_per_iter")
}

// BenchmarkFig4Trajectory regenerates the Fig. 4 estimation example and
// reports the example-track mean error.
func BenchmarkFig4Trajectory(b *testing.B) {
	b.ReportAllocs()
	var meanErr float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig4(20, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		var n int
		for _, p := range points {
			if p.HaveC {
				sum += p.CDPF.Dist(p.Truth)
				n++
			}
		}
		meanErr = sum / float64(n)
	}
	b.ReportMetric(meanErr, "cdpf_mean_err_m")
}

// BenchmarkFig5CommCost regenerates the Fig. 5 series: total communication
// bytes per run, per algorithm, per density.
func BenchmarkFig5CommCost(b *testing.B) {
	b.ReportAllocs()
	for _, algo := range experiments.AllAlgos() {
		for _, d := range []float64{5, 20, 40} {
			b.Run(fmt.Sprintf("%s/d%g", algo, d), func(b *testing.B) {
				b.ReportAllocs()
				var bytes int64
				for i := 0; i < b.N; i++ {
					out, err := experiments.RunCell(context.Background(), spec.Axes{Algo: string(algo), Density: d, Seed: benchSeed})
					if err != nil {
						b.Fatal(err)
					}
					bytes = out.Result.Bytes()
				}
				b.ReportMetric(float64(bytes), "bytes_per_run")
			})
		}
	}
}

// BenchmarkFig6RMSE regenerates the Fig. 6 series: RMSE per algorithm per
// density.
func BenchmarkFig6RMSE(b *testing.B) {
	b.ReportAllocs()
	for _, algo := range experiments.AllAlgos() {
		for _, d := range []float64{5, 20, 40} {
			b.Run(fmt.Sprintf("%s/d%g", algo, d), func(b *testing.B) {
				b.ReportAllocs()
				var rmse float64
				for i := 0; i < b.N; i++ {
					out, err := experiments.RunCell(context.Background(), spec.Axes{Algo: string(algo), Density: d, Seed: benchSeed})
					if err != nil {
						b.Fatal(err)
					}
					rmse = out.Result.RMSE()
				}
				b.ReportMetric(rmse, "rmse_m")
			})
		}
	}
}

// BenchmarkFailureTolerance regenerates the future-work extension: CDPF
// under 30% random node failures.
func BenchmarkFailureTolerance(b *testing.B) {
	b.ReportAllocs()
	var rmse float64
	for i := 0; i < b.N; i++ {
		out, err := experiments.RunCell(context.Background(), spec.Axes{Algo: "cdpf", Density: 20, Seed: benchSeed, Fail: 0.3})
		if err != nil {
			b.Fatal(err)
		}
		rmse = out.Result.RMSE()
	}
	b.ReportMetric(rmse, "rmse_m")
}

// BenchmarkDesignAblation regenerates the design-choice ablation.
func BenchmarkDesignAblation(b *testing.B) {
	b.ReportAllocs()
	var rows int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Exec{}.DesignAblation(20, experiments.Seeds(1))
		if err != nil {
			b.Fatal(err)
		}
		rows = len(res)
	}
	b.ReportMetric(float64(rows), "variants")
}

// BenchmarkScenarioBuild measures the simulator's setup cost (deployment +
// spatial index + trajectory) at the paper's largest density.
func BenchmarkScenarioBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.Build(scenario.Default(40, benchSeed)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlgoRun measures a full tracking run (scenario build + 10 filter
// iterations) for each algorithm at density 20, the simulator's end-to-end
// performance number.
func BenchmarkAlgoRun(b *testing.B) {
	b.ReportAllocs()
	for _, algo := range experiments.AllAlgos() {
		b.Run(string(algo), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunCell(context.Background(), spec.Axes{Algo: string(algo), Density: 20, Seed: benchSeed}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFleetSweep measures the Fig. 5/6 sweep cells through the fleet
// execution runtime at increasing worker counts. workers=1 is the legacy
// serial path; on an N-core machine the higher worker counts should approach
// N× the serial jobs/sec, with bit-identical results (the cells are
// embarrassingly parallel and share no state).
func BenchmarkFleetSweep(b *testing.B) {
	b.ReportAllocs()
	densities := []float64{5, 10}
	seeds := experiments.Seeds(2)
	algos := experiments.AllAlgos()
	cells := len(densities) * len(seeds) * len(algos)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			e := experiments.Exec{Workers: w}
			for i := 0; i < b.N; i++ {
				if _, err := e.Sweep(densities, seeds, algos); err != nil {
					b.Fatal(err)
				}
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(cells*b.N)/secs, "jobs/sec")
			}
		})
	}
}

// BenchmarkFleetMonteCarlo runs CDPF trials whose seeds are derived with
// fleet.Seeds — the Split-based per-job derivation the runtime's determinism
// contract rests on — through fleet.Map directly.
func BenchmarkFleetMonteCarlo(b *testing.B) {
	b.ReportAllocs()
	trials := fleet.Seeds(benchSeed, 8)
	for i := 0; i < b.N; i++ {
		results, err := fleet.Map(context.Background(), fleet.Config{}, trials,
			func(ctx context.Context, seed uint64) (*experiments.CellOutcome, error) {
				return experiments.RunCell(ctx, spec.Axes{Algo: "cdpf", Density: 10, Seed: seed})
			})
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(trials) {
			b.Fatalf("got %d results", len(results))
		}
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(len(trials)*b.N)/secs, "jobs/sec")
	}
}

// BenchmarkRNGThroughput covers the numerics substrate end to end: sampling
// the process noise path used by every propagation.
func BenchmarkRNGThroughput(b *testing.B) {
	b.ReportAllocs()
	rng := mathx.NewRNG(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += rng.Normal(0, 0.05)
	}
	_ = sink
}

// BenchmarkGossipAggregation prices the in-network alternative to CDPF's
// overhearing: randomized pairwise averaging over a 30-node holder cluster.
func BenchmarkGossipAggregation(b *testing.B) {
	b.ReportAllocs()
	nw, err := wsn.NewNetwork(wsn.DefaultConfig(20), mathx.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := mathx.NewRNG(2)
	values := map[wsn.NodeID]float64{}
	for _, id := range nw.ActiveNodesWithin(mathx.V2(100, 100), 12) {
		values[id] = rng.Float64()
		if len(values) == 30 {
			break
		}
	}
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		nw.Stats.Reset()
		res, err := consensus.Average(nw, values, consensus.Config{}, rng)
		if err != nil {
			b.Fatal(err)
		}
		bytes = res.Bytes
	}
	b.ReportMetric(float64(bytes), "bytes_per_aggregation")
}

// BenchmarkMultiTargetFleet runs the two-target fleet end to end.
func BenchmarkMultiTargetFleet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (experiments.Exec{}).MultiTargetExperiment(20, []int{2}, []uint64{benchSeed}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrackerStep isolates one warmed CDPF iteration: scenario build and
// tracker warm-up run outside the timed loop, so ns/op and allocs/op price
// exactly the per-iteration hot path the scratch arena targets (steady-state
// allocs/op should be 0).
func BenchmarkTrackerStep(b *testing.B) {
	b.ReportAllocs()
	sc, err := scenario.Build(scenario.Default(20, benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	benchWarmedSteps(b, sc, core.DefaultConfig(false))
}

// benchWarmedSteps times b.N tracker steps over the scenario's observations,
// cycling through them, after one untimed warm-up pass.
func benchWarmedSteps(b *testing.B, sc *scenario.Scenario, cfg core.Config) {
	tr, err := core.NewTracker(sc.Net, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := sc.RNG(1)
	obs := make([][]core.Observation, sc.Iterations())
	for k := range obs {
		obs[k] = sc.Observations(k)
	}
	// Warm-up: one full pass grows every scratch buffer to its high-water mark.
	for k := range obs {
		tr.Step(obs[k], rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step(obs[i%len(obs)], rng)
	}
}

// BenchmarkTrackerStepDense prices one warmed CDPF or CDPF-NE iteration on
// the benchmark's cdpf-track cells at density 40 (dt 1 s, 60 steps),
// loss-free and under 30% loss, built through spec.Axes exactly as RunCell
// builds them (the lossy cells run the hardened config: rebroadcasts and
// loss compensation).
func BenchmarkTrackerStepDense(b *testing.B) {
	for _, algo := range []string{"cdpf", "cdpf-ne"} {
		for _, loss := range []float64{0, 0.3} {
			b.Run(fmt.Sprintf("%s/loss=%g", algo, loss), func(b *testing.B) {
				b.ReportAllocs()
				ax := spec.Axes{Algo: algo, Density: 40, Dt: 1, Steps: 60, Loss: loss, Seed: benchSeed}
				sc, _, err := ax.Build()
				if err != nil {
					b.Fatal(err)
				}
				cfg, err := ax.TrackerConfig()
				if err != nil {
					b.Fatal(err)
				}
				benchWarmedSteps(b, sc, cfg)
			})
		}
	}
}

// BenchmarkActiveNodesQuery prices one buffer-reusing spatial query at
// density 20 (steady-state allocs/op should be 0).
func BenchmarkActiveNodesQuery(b *testing.B) {
	b.ReportAllocs()
	nw, err := wsn.NewNetwork(wsn.DefaultConfig(20), mathx.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	buf := nw.AppendActiveNodesWithin(nil, mathx.V2(100, 100), 20) // warm the buffer
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = nw.AppendActiveNodesWithin(buf[:0], mathx.V2(100, 100), 20)
		n = len(buf)
	}
	b.ReportMetric(float64(n), "nodes_per_query")
}

// BenchmarkBatchNormal prices one batch of propagation noise draws through
// the buffer-filling Gaussian API (allocs/op should be 0).
func BenchmarkBatchNormal(b *testing.B) {
	b.ReportAllocs()
	rng := mathx.NewRNG(1)
	buf := make([]float64, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.NormalFill(buf, 0, 0.05)
	}
}

// kernelColumns builds deterministic coordinate/bearing/distance columns
// shaped like a density-20 sharer set, for pricing the batch kernels in
// isolation (DESIGN.md §16).
func kernelColumns(n int) (fromX, fromY, z, dist []float64, mask []bool) {
	rng := mathx.NewRNG(5)
	fromX = make([]float64, n)
	fromY = make([]float64, n)
	z = make([]float64, n)
	dist = make([]float64, n)
	mask = make([]bool, n)
	for i := range fromX {
		fromX[i] = rng.Uniform(0, 120)
		fromY[i] = rng.Uniform(0, 120)
		z[i] = rng.Uniform(-3, 3)
		dist[i] = rng.Uniform(0, 40)
		mask[i] = rng.Float64() < 0.7
	}
	return
}

// BenchmarkKernelMaskedSum prices the assignLikelihood inner loop: one
// holder's masked ordered log-likelihood sum over 64 sharer columns, in the
// constant-sigma fast lane (Gaussian, no quantization, no gating) and the
// general lane (Student-t with quantization and gating). allocs/op must be 0.
func BenchmarkKernelMaskedSum(b *testing.B) {
	fromX, fromY, z, dist, mask := kernelColumns(64)
	lanes := []struct {
		name string
		bk   kernel.Bearing
	}{
		{"gauss", kernel.NewBearing(0.05, 0, 0, 0)},
		{"student-t-quant-gate", kernel.NewBearing(0.05, 4, 2.0, 2.5)},
	}
	for _, lane := range lanes {
		b.Run(lane.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				ll, _, _ := lane.bk.MaskedSum(fromX, fromY, z, dist, mask, 60, 60)
				sink += ll
			}
			_ = sink
		})
	}
}

// BenchmarkKernelJointLogLik prices the CPF/DPF sink filter's per-particle
// likelihood: one candidate's joint log likelihood over 64 delivered
// measurement columns, in the constant-sigma Gaussian lane the sink uses.
// allocs/op must be 0.
func BenchmarkKernelJointLogLik(b *testing.B) {
	b.ReportAllocs()
	fromX, fromY, z, _, _ := kernelColumns(64)
	bk := kernel.NewBearing(0.05, 0, 0, 0)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += bk.JointLogLik(fromX, fromY, z, 60, 60)
	}
	_ = sink
}

// BenchmarkKernelOverheardSum prices the propagation-phase overheard-weight
// aggregation over 64 broadcast columns (allocs/op must be 0).
func BenchmarkKernelOverheardSum(b *testing.B) {
	b.ReportAllocs()
	bx, by, bw, _, _ := kernelColumns(64)
	ids := make([]int32, len(bx))
	for i := range ids {
		ids[i] = int32(i)
	}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += kernel.OverheardSum(bx, by, bw, ids, -1, 60, 60, 40)
	}
	_ = sink
}

// BenchmarkKernelPropagateCV prices the constant-velocity column advance
// with and without pre-drawn process noise (allocs/op must be 0).
func BenchmarkKernelPropagateCV(b *testing.B) {
	px, py, vx, vy, _ := kernelColumns(1024)
	nx, ny, _, _, _ := kernelColumns(1024)
	b.Run("drift", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kernel.PropagateCV(px, py, vx, vy, 5)
		}
	})
	b.Run("noise", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kernel.PropagateCVNoise(px, py, vx, vy, nx, ny, 5)
		}
	})
}

// BenchmarkServeManagerThroughput drives the serving core in process — no
// HTTP, no SSE transport — with the cross-session batch drain engaged: 8
// sessions fed round-robin through 2 shards, exactly the shape cdpfload's
// CI smoke applies over the wire. jobs/sec here is the transport-free upper
// bound the served number is judged against.
func BenchmarkServeManagerThroughput(b *testing.B) {
	const sessions = 8
	seeds := fleet.Seeds(benchSeed, sessions)
	specs := make([]serve.SessionSpec, sessions)
	batches := make([][]serve.Batch, sessions)
	for i := range specs {
		specs[i] = serve.SessionSpec{ID: fmt.Sprintf("bench-%d", i), Cell: &spec.Axes{Algo: "cdpf", Density: 10, Seed: seeds[i]}}
		bs, err := serve.Observations(specs[i])
		if err != nil {
			b.Fatal(err)
		}
		batches[i] = bs
	}
	steps := sessions * len(batches[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := serve.NewManager(serve.ManagerConfig{Shards: 2})
		chans := make([]<-chan trace.Record, sessions)
		for j := range specs {
			if _, err := m.Create(specs[j]); err != nil {
				b.Fatal(err)
			}
			_, ch, err := m.Subscribe(specs[j].ID)
			if err != nil {
				b.Fatal(err)
			}
			chans[j] = ch
		}
		for k := 0; k < len(batches[0]); k++ {
			for j := range specs {
				for {
					_, err := m.Ingest(specs[j].ID, serve.IngestRequest{Batches: []serve.Batch{batches[j][k]}})
					if err == nil {
						break
					}
					var ae *serve.AdmitError
					if !errors.As(err, &ae) || (ae.Status != 429 && ae.Status != 503) {
						b.Fatalf("ingest session %d k=%d: %v", j, k, err)
					}
					runtime.Gosched()
				}
			}
		}
		for _, ch := range chans {
			for range ch {
			}
		}
		m.Drain()
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(steps*b.N)/secs, "jobs/sec")
	}
}
