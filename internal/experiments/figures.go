package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/costmodel"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/spec"
)

// TrackPoint is one time sample of the Fig. 4 estimation example.
type TrackPoint struct {
	K      int
	Truth  mathx.Vec2
	CDPF   mathx.Vec2
	HaveC  bool
	CDPFNE mathx.Vec2
	HaveNE bool
}

// Fig4 reproduces the estimation example of Fig. 4: the true trajectory and
// the CDPF / CDPF-NE estimates at the given density (paper: 20 per 100 m²),
// read from the traces of one cdpf and one cdpf-ne cell. Estimates for
// iteration k are produced by the correction step at k+1, so the last
// iteration has no estimate.
func Fig4(density float64, seed uint64) ([]TrackPoint, error) {
	outs, err := Exec{}.runGrid([]spec.Axes{
		{Algo: string(AlgoCDPF), Density: density, Seed: seed},
		{Algo: string(AlgoCDPFNE), Density: density, Seed: seed},
	}, nil)
	if err != nil {
		return nil, err
	}
	cd, ne := outs[0].Trace.Records, outs[1].Trace.Records
	out := make([]TrackPoint, len(cd))
	for k, r := range cd {
		out[k] = TrackPoint{K: k, Truth: mathx.V2(r.TruthX, r.TruthY)}
	}
	// Each record carries the estimate for iteration EstForK (k-1).
	for _, r := range cd {
		if r.HaveEst {
			out[r.EstForK].CDPF, out[r.EstForK].HaveC = mathx.V2(r.EstX, r.EstY), true
		}
	}
	for _, r := range ne {
		if r.HaveEst {
			out[r.EstForK].CDPFNE, out[r.EstForK].HaveNE = mathx.V2(r.EstX, r.EstY), true
		}
	}
	return out, nil
}

// Fig4Table renders the trajectory points as a table (one row per filter
// iteration, columns matching the plotted series).
func Fig4Table(points []TrackPoint) *report.Table {
	t := report.NewTable(
		"Fig. 4 — estimation example (density 20 nodes/100m²)",
		"k", "truth_x", "truth_y", "cdpf_x", "cdpf_y", "cdpf_err",
		"cdpfne_x", "cdpfne_y", "cdpfne_err",
	)
	for _, p := range points {
		cdx, cdy, cde := "-", "-", "-"
		if p.HaveC {
			cdx = fmt.Sprintf("%.2f", p.CDPF.X)
			cdy = fmt.Sprintf("%.2f", p.CDPF.Y)
			cde = fmt.Sprintf("%.2f", p.CDPF.Dist(p.Truth))
		}
		nex, ney, nee := "-", "-", "-"
		if p.HaveNE {
			nex = fmt.Sprintf("%.2f", p.CDPFNE.X)
			ney = fmt.Sprintf("%.2f", p.CDPFNE.Y)
			nee = fmt.Sprintf("%.2f", p.CDPFNE.Dist(p.Truth))
		}
		t.AddRow(p.K, p.Truth.X, p.Truth.Y, cdx, cdy, cde, nex, ney, nee)
	}
	return t
}

// Fig5Table renders the communication-cost sweep (bytes per run vs density)
// with one row per density and one column per algorithm, plus the headline
// reductions the paper reports.
func Fig5Table(aggs []metrics.Aggregate) *report.Table {
	return sweepTable(aggs, "Fig. 5 — communication cost (bytes per run)",
		func(a metrics.Aggregate) float64 { return a.MeanBytes })
}

// Fig6Table renders the estimation-error sweep (RMSE vs density).
func Fig6Table(aggs []metrics.Aggregate) *report.Table {
	return sweepTable(aggs, "Fig. 6 — estimation error (RMSE, m)",
		func(a metrics.Aggregate) float64 { return a.MeanRMSE })
}

// Fig5Chart renders the communication sweep as an ASCII chart (log y-axis,
// since SDPF sits an order of magnitude above the rest).
func Fig5Chart(aggs []metrics.Aggregate) *report.Chart {
	c := sweepChart(aggs, "Fig. 5 — communication cost vs density", "density", "bytes/run",
		func(a metrics.Aggregate) float64 { return a.MeanBytes })
	c.LogY = true
	return c
}

// Fig6Chart renders the error sweep as an ASCII chart.
func Fig6Chart(aggs []metrics.Aggregate) *report.Chart {
	return sweepChart(aggs, "Fig. 6 — estimation error vs density", "density", "rmse_m",
		func(a metrics.Aggregate) float64 { return a.MeanRMSE })
}

func sweepChart(aggs []metrics.Aggregate, title, xlabel, ylabel string, value func(metrics.Aggregate) float64) *report.Chart {
	c := report.NewChart(title, xlabel, ylabel)
	order := []string{}
	byAlgo := map[string][][2]float64{}
	for _, a := range aggs {
		if _, ok := byAlgo[a.Algo]; !ok {
			order = append(order, a.Algo)
		}
		byAlgo[a.Algo] = append(byAlgo[a.Algo], [2]float64{a.Density, value(a)})
	}
	for _, algo := range order {
		var xs, ys []float64
		for _, p := range byAlgo[algo] {
			xs = append(xs, p[0])
			ys = append(ys, p[1])
		}
		// Equal-length series by construction; the error is unreachable.
		_ = c.AddSeries(algo, xs, ys)
	}
	return c
}

func sweepTable(aggs []metrics.Aggregate, title string, value func(metrics.Aggregate) float64) *report.Table {
	// Collect density-major, algo-minor.
	densities := []float64{}
	seenD := map[float64]bool{}
	byKey := map[string]map[float64]float64{}
	algoOrder := []string{}
	for _, a := range aggs {
		if !seenD[a.Density] {
			seenD[a.Density] = true
			densities = append(densities, a.Density)
		}
		if _, ok := byKey[a.Algo]; !ok {
			byKey[a.Algo] = map[float64]float64{}
			algoOrder = append(algoOrder, a.Algo)
		}
		byKey[a.Algo][a.Density] = value(a)
	}
	headers := append([]string{"density"}, algoOrder...)
	t := report.NewTable(title, headers...)
	for _, d := range densities {
		cells := []interface{}{d}
		for _, algo := range algoOrder {
			v, ok := byKey[algo][d]
			if !ok || math.IsNaN(v) {
				cells = append(cells, "-")
			} else {
				cells = append(cells, v)
			}
		}
		t.AddRow(cells...)
	}
	return t
}

// Table1Measured captures the network quantities Table I is evaluated with,
// measured from an actual CDPF run.
type Table1Measured struct {
	Params costmodel.Params
	// MeanHolders is the seed-averaged mean particle-holder count (N_s).
	MeanHolders float64
	// MeanDetectors is the mean number of measuring nodes per iteration (N).
	MeanDetectors float64
}

// Table1 measures N (detecting nodes per iteration), N_s (CDPF particle
// holders), and H_max (BFS eccentricity of the central sink) at the given
// density, then evaluates the paper's closed forms.
func Table1(density float64, seed uint64) (*report.Table, Table1Measured, error) {
	sc, err := scenario.Build(scenario.Default(density, seed))
	if err != nil {
		return nil, Table1Measured{}, err
	}
	sink := sc.Net.NearestNode(sc.Net.Center())
	hmax := sc.Net.BuildHopTable(sink).MaxHops()

	out, err := RunCell(context.Background(), spec.Axes{Algo: string(AlgoCDPF), Density: density, Seed: seed})
	if err != nil {
		return nil, Table1Measured{}, err
	}
	var holderSum, detSum float64
	for _, r := range out.Trace.Records {
		holderSum += float64(r.Holders)
		detSum += float64(r.Detectors)
	}
	iters := float64(out.Trace.Len())
	meas := Table1Measured{
		MeanHolders:   holderSum / iters,
		MeanDetectors: detSum / iters,
	}
	meas.Params = costmodel.PaperParams(
		int(math.Round(meas.MeanDetectors)),
		int(math.Round(meas.MeanHolders)),
		hmax,
	)
	t := report.NewTable(
		fmt.Sprintf("Table I — analyzed communication costs per iteration (density %g: N=%d, Ns=%d, Hmax=%d, Dp=%d, Dm=%d, Dw=%d)",
			density, meas.Params.N, meas.Params.Ns, meas.Params.Hmax,
			meas.Params.Size.Dp, meas.Params.Size.Dm, meas.Params.Size.Dw),
		"method", "formula", "bytes/iteration",
	)
	for _, row := range meas.Params.Table() {
		t.AddRow(row.Method, row.Formula, row.Bytes)
	}
	return t, meas, nil
}

// Table1Empirical validates Table I against the simulator: for each of the
// five algorithm families it evaluates the closed form with the algorithm's
// *own* measured quantities (Table I's N_s is per-algorithm: SDPF maintains
// its full particle budget while CDPF combines to one per node) and reports
// the simulated mean bytes per iteration next to it. The analytical CPF/DPF
// rows use H_max and are therefore upper bounds; the simulator routes over
// actual per-node hop counts. The simulated rows are one cell per
// (algorithm, seed); CDPF's and CDPF-NE's N_s come from those cells'
// traces, SDPF's from a budget probe per seed, each averaged over every
// seed.
func (e Exec) Table1Empirical(density float64, seeds []uint64) (*report.Table, error) {
	_, meas, err := Table1(density, seeds[0])
	if err != nil {
		return nil, err
	}

	algos := AllAlgosExtended()
	grid := axisGrid([]float64{density}, algos, seeds, setDensity)
	outs, err := e.runGrid(grid, nil)
	if err != nil {
		return nil, err
	}
	budgets, err := runCells(e, seeds, func(seed uint64) (int, error) { return sdpfBudget(density, seed) })
	if err != nil {
		return nil, err
	}
	// byAlgo holds each algorithm's cells, one per seed.
	byAlgo := make(map[Algo][]*CellOutcome, len(algos))
	for i, algo := range algos {
		byAlgo[algo] = outs[i*len(seeds) : (i+1)*len(seeds)]
	}
	// seedMean rounds the mean of the per-seed values.
	seedMean := func(vals []int) int {
		var sum float64
		for _, v := range vals {
			sum += float64(v)
		}
		return int(math.Round(sum / float64(len(vals))))
	}
	// holderNs is a CDPF variant's N_s: each seed's mean holder count,
	// rounded, then averaged over the seeds.
	holderNs := func(algo Algo) int {
		var perSeed []int
		for _, o := range byAlgo[algo] {
			var sum float64
			for _, r := range o.Trace.Records {
				sum += float64(r.Holders)
			}
			perSeed = append(perSeed, int(math.Round(sum/float64(o.Trace.Len()))))
		}
		return seedMean(perSeed)
	}
	cdpfNs, neNs, sdpfNs := holderNs(AlgoCDPF), holderNs(AlgoCDPFNE), seedMean(budgets)

	perAlgo := func(ns int) costmodel.Params {
		p := meas.Params
		p.Ns = ns
		return p
	}
	analytical := map[Algo]int{
		AlgoCPF:    meas.Params.CPF(),
		AlgoDPF:    meas.Params.DPF(),
		AlgoSDPF:   perAlgo(sdpfNs).SDPF(),
		AlgoCDPF:   perAlgo(cdpfNs).CDPF(),
		AlgoCDPFNE: perAlgo(neNs).CDPFNE(),
	}

	t := report.NewTable(
		fmt.Sprintf("Table I validation — analytical vs simulated bytes/iteration (density %g; Ns: sdpf=%d, cdpf=%d, cdpf-ne=%d; CPF/DPF rows use Hmax=%d, an upper bound)",
			density, sdpfNs, cdpfNs, neNs, meas.Params.Hmax),
		"method", "analytical", "simulated", "ratio")
	for _, algo := range algos {
		var total float64
		var iters float64
		for _, o := range byAlgo[algo] {
			total += float64(o.Result.Bytes())
			iters += float64(o.Result.Iterations)
		}
		simulated := total / iters
		ratio := simulated / float64(analytical[algo])
		t.AddRow(string(algo), analytical[algo], simulated, ratio)
	}
	return t, nil
}

// sdpfBudget measures SDPF's particle budget after initialization.
func sdpfBudget(density float64, seed uint64) (int, error) {
	sc, err := scenario.Build(scenario.Default(density, seed))
	if err != nil {
		return 0, err
	}
	s, err := baseline.NewSDPF(sc.Net, baseline.DefaultSDPFConfig())
	if err != nil {
		return 0, err
	}
	rng := sc.RNG(3)
	for k := 0; k < sc.Iterations() && s.NumParticles() == 0; k++ {
		s.Step(sc.Observations(k), rng)
	}
	return s.NumParticles(), nil
}

// HeadlineComparison computes the abstract's two headline numbers from a
// sweep: CDPF's cost reduction versus SDPF and CPF, and the error increases
// of CDPF and CDPF-NE versus SDPF, averaged across densities.
type Headline struct {
	CostReductionVsSDPF float64 // percent
	CostReductionVsCPF  float64 // percent
	ErrIncreaseCDPF     float64 // percent vs SDPF
	ErrIncreaseNE       float64 // percent vs SDPF
}

// Headlines derives the headline numbers from sweep aggregates.
func Headlines(aggs []metrics.Aggregate) Headline {
	find := func(algo string, d float64) (metrics.Aggregate, bool) {
		for _, a := range aggs {
			if a.Algo == algo && a.Density == d {
				return a, true
			}
		}
		return metrics.Aggregate{}, false
	}
	var h Headline
	var n float64
	for _, a := range aggs {
		if a.Algo != string(AlgoCDPF) {
			continue
		}
		sd, ok1 := find(string(AlgoSDPF), a.Density)
		cp, ok2 := find(string(AlgoCPF), a.Density)
		ne, ok3 := find(string(AlgoCDPFNE), a.Density)
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		h.CostReductionVsSDPF += metrics.Reduction(a, sd)
		h.CostReductionVsCPF += metrics.Reduction(a, cp)
		h.ErrIncreaseCDPF += metrics.ErrorIncrease(a, sd)
		h.ErrIncreaseNE += metrics.ErrorIncrease(ne, sd)
		n++
	}
	if n > 0 {
		h.CostReductionVsSDPF /= n
		h.CostReductionVsCPF /= n
		h.ErrIncreaseCDPF /= n
		h.ErrIncreaseNE /= n
	}
	return h
}
