package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/spec"
	"repro/internal/version"
	"repro/internal/wsn"
)

// sweep is an offline workload's input: a frozen spec whose seed list is
// replaced by seeds derived from the workload seed, expanded into cells.
type sweep struct {
	file  *spec.File
	cells []spec.Cell
	iters int // filter iterations summed over the cells
}

// loadSweep reads the frozen spec and derives its seeds. It is the offline
// workloads' set-up: what a cdpfmatrix user pays before the first cell runs.
func loadSweep(path string, seed uint64) (*sweep, error) {
	f, err := spec.Load(path)
	if err != nil {
		return nil, err
	}
	if len(f.Grid.Seed) == 0 {
		return nil, fmt.Errorf("%s: no seed list to derive seeds for", path)
	}
	f.Grid.Seed = fleet.Seeds(seed, len(f.Grid.Seed))
	cells, err := f.Expand()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	w := &sweep{file: f, cells: cells}
	for _, c := range cells {
		w.iters += c.Axes.Steps + 1
	}
	return w, nil
}

// verifyStride picks the cells re-run standalone through RunCell after the
// timed window: every verifyStride-th one.
const verifyStride = 16

// maxPasses caps an offline run however fast the passes are.
const maxPasses = 50

// runOffline measures an offline workload: its set-up, setupBefore times
// before the timed window and setupAfter times after it, and in between either timed RunMatrix
// passes or, traced, the per-layer run.
func runOffline(ctx context.Context, e *env, specFile string) (*outcome, error) {
	o := newOutcome()
	path := filepath.Join(e.specs, specFile)
	var setups []float64
	setup := func() (*sweep, error) {
		start := time.Now()
		sw, err := loadSweep(path, e.seed)
		if err == nil {
			err = os.MkdirAll(filepath.Join(e.work, "setup"), 0o755)
		}
		setups = append(setups, time.Since(start).Seconds())
		return sw, err
	}
	var sw *sweep
	var err error
	for i := 0; i < setupBefore; i++ {
		if sw, err = setup(); err != nil {
			return nil, err
		}
	}
	if e.tr != nil {
		err = tracedOffline(ctx, e, sw, o)
	} else {
		err = timedOffline(ctx, e, sw, o)
	}
	if err != nil {
		return nil, err
	}
	for i := 0; i < setupAfter; i++ {
		if _, err := setup(); err != nil {
			return nil, err
		}
	}
	o.set("setup_s", median(setups))
	return o, nil
}

// timedOffline runs RunMatrix passes until the run's seconds are spent. Each
// cell is due when its pass starts, so a cell's latency is the time from
// pass start until the fleet delivers its result.
func timedOffline(ctx context.Context, e *env, sw *sweep, o *outcome) error {
	var walls, lat []float64
	var ref map[string][]byte
	var first *experiments.MatrixSummary
	measureStart := time.Now()
	rss := startRSS(os.Getpid())
	defer rss.close()
	for pass := 0; pass < maxPasses; pass++ {
		dir := filepath.Join(e.work, fmt.Sprintf("pass%d", pass))
		sum, wall, done, err := matrixPass(ctx, sw, dir, e.workers)
		if err != nil {
			return err
		}
		rss.mark()
		o.attempted += len(sw.cells)
		walls = append(walls, wall.Seconds())
		lat = append(lat, done...)
		if pass == 0 {
			first = sum
			if ref, err = readTraces(sw, dir); err != nil {
				return err
			}
		} else {
			o.failed += compareTraces(o, sw, dir, ref, fmt.Sprintf("pass %d", pass))
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		elapsed := time.Since(measureStart).Seconds()
		if elapsed+0.5*mean(walls) >= e.seconds {
			break
		}
	}
	peak, err := rss.close()
	if err != nil {
		return err
	}

	// Standalone re-runs of a sample of cells must match the matrix bytes.
	for i := 0; i < len(sw.cells); i += verifyStride {
		c := sw.cells[i]
		o.attempted++
		out, err := experiments.RunCell(ctx, c.Axes)
		var buf bytes.Buffer
		if err == nil {
			err = out.Trace.WriteCSV(&buf)
		}
		switch {
		case err != nil:
			o.failed++
			o.fail("RunCell %s: %v", c.Name, err)
		case !bytes.Equal(buf.Bytes(), ref[c.Name]):
			o.failed++
			o.fail("RunCell %s trace differs from the matrix pass", c.Name)
		}
	}

	o.set("steps_per_s", float64(sw.iters)/median(walls))
	o.pct("latency_p90_ms", lat, 0.9)
	o.set("peak_rss_mb", peak)
	setAccuracy(o, sw, first)
	return nil
}

// matrixPass runs one RunMatrix pass into dir and returns its wall time and
// each cell's time to result in milliseconds, in delivery order.
func matrixPass(ctx context.Context, sw *sweep, dir string, workers int) (*experiments.MatrixSummary, time.Duration, []float64, error) {
	done := make([]float64, 0, len(sw.cells))
	start := time.Now()
	obs := fleet.ObserverFunc(func(fleet.Snapshot) {
		done = append(done, float64(time.Since(start))/float64(time.Millisecond))
	})
	sum, err := experiments.RunMatrix(sw.file, experiments.MatrixOptions{
		Exec:    experiments.Exec{Workers: workers, Observer: obs, Ctx: ctx},
		OutDir:  dir,
		Version: version.String(),
	})
	wall := time.Since(start)
	if err != nil {
		return nil, 0, nil, err
	}
	if sum.Executed != len(sw.cells) {
		return nil, 0, nil, fmt.Errorf("matrix pass executed %d of %d cells", sum.Executed, len(sw.cells))
	}
	return sum, wall, done, nil
}

// cellTrace is where RunMatrix leaves a cell's per-iteration trace.
func cellTrace(dir, cell string) string { return filepath.Join(dir, cell, "trace.csv") }

func readTraces(sw *sweep, dir string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(sw.cells))
	for _, c := range sw.cells {
		data, err := os.ReadFile(cellTrace(dir, c.Name))
		if err != nil {
			return nil, err
		}
		out[c.Name] = data
	}
	return out, nil
}

// compareTraces checks every cell's trace in dir against ref and returns the
// number of cells that differ.
func compareTraces(o *outcome, sw *sweep, dir string, ref map[string][]byte, what string) int {
	bad := 0
	for _, c := range sw.cells {
		data, err := os.ReadFile(cellTrace(dir, c.Name))
		if err != nil || !bytes.Equal(data, ref[c.Name]) {
			bad++
			o.fail("%s: cell %s trace differs from the first pass", what, c.Name)
		}
	}
	return bad
}

// setAccuracy sets rmse_m and comm_bytes from a pass's cell results, which
// RunMatrix returns in expansion order.
func setAccuracy(o *outcome, sw *sweep, sum *experiments.MatrixSummary) {
	groups := make(map[spec.Axes][]float64)
	var order []spec.Axes // first appearance, so the sum below is reproducible
	var bytes []float64
	for i, st := range sum.Statuses {
		key := sw.cells[i].Axes
		key.Seed = 0
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], st.Result.RMSE())
		bytes = append(bytes, float64(st.Result.Comm.TotalBytes()))
	}
	var rmse []float64
	for _, key := range order {
		rmse = append(rmse, groupRMSE(o, groups[key]))
	}
	o.set("rmse_m", mean(rmse))
	o.set("comm_bytes", mean(bytes))
}

// groupRMSE is the median RMSE of cells that differ only in seed. Tracks that
// diverge give a few cells a huge RMSE; the median keeps them from swinging
// the metric from one seed set to the next. Cells without any estimate are
// left out.
func groupRMSE(o *outcome, rmse []float64) float64 {
	var ok []float64
	for _, r := range rmse {
		if !math.IsNaN(r) {
			ok = append(ok, r)
		}
	}
	if n := len(rmse) - len(ok); n > 0 {
		o.warnings = append(o.warnings, fmt.Sprintf("%d cells produced no estimate and are left out of rmse_m", n))
	}
	return median(ok)
}

// tracedOffline runs one untraced RunMatrix pass (the reference bytes and
// the overhead baseline), one traced pass of the bench-side cell loop, and
// one serial RunMatrix pass for the fleet's speed-up, then derives the
// per-layer metrics from the traced pass's spans.
func tracedOffline(ctx context.Context, e *env, sw *sweep, o *outcome) error {
	rss := startRSS(os.Getpid())
	defer rss.close()
	dir := filepath.Join(e.work, "untraced")
	sum, wallU, done, err := matrixPass(ctx, sw, dir, e.workers)
	if err != nil {
		return err
	}
	rss.mark()
	o.attempted += len(sw.cells)
	ref, err := readTraces(sw, dir)
	if err != nil {
		return err
	}
	o.set("steps_per_s", float64(sw.iters)/wallU.Seconds())
	o.pct("latency_p90_ms", done, 0.9)
	setAccuracy(o, sw, sum)

	tdir := filepath.Join(e.work, "traced")
	passID := e.tr.newID()
	cpu0, gc0 := selfCPU(), readGC()
	start := time.Now()
	facts, err := fleet.Map(ctx, fleet.Config{Workers: e.workers}, sw.cells,
		func(ctx context.Context, c spec.Cell) (*cellFacts, error) {
			return tracedCell(ctx, e.tr, passID, sw.file.Name, c, tdir)
		})
	end := time.Now()
	if err != nil {
		return err
	}
	cpu, gc1 := selfCPU()-cpu0, readGC()
	rss.mark()
	e.tr.addAll([]span{e.tr.mk(passID, "fleet.pass", 0, start, end, sw.file.Name)})
	o.attempted += len(sw.cells)
	for i, c := range sw.cells {
		if !bytes.Equal(facts[i].csv, ref[c.Name]) {
			o.failed++
			o.fail("traced cell %s trace differs from RunCell's", c.Name)
		}
	}

	sdir := filepath.Join(e.work, "serial")
	_, wallS, _, err := matrixPass(ctx, sw, sdir, 1)
	if err != nil {
		return err
	}
	rss.mark()
	o.attempted += len(sw.cells)
	o.failed += compareTraces(o, sw, sdir, ref, "serial pass")
	peak, err := rss.close()
	if err != nil {
		return err
	}
	o.set("peak_rss_mb", peak)

	wallT := end.Sub(start)
	ix := indexSpans(e.tr.snapshot())
	cells := float64(len(sw.cells))
	cellTotal := ix.total("experiments.cell")
	ms, us := time.Millisecond, time.Microsecond

	o.share("fleet.busy_share", cellTotal, float64(e.workers)*float64(wallT))
	o.set("fleet.tail_idle_s", tailIdle(ix.byName["experiments.cell"], e.workers, e.tr.ns(end))/1e9)
	o.set("fleet.speedup", wallS.Seconds()/wallU.Seconds())
	o.pct("experiments.cell_ms.p50", ix.durs("experiments.cell", ms), 0.5)
	o.pct("experiments.cell_ms.p90", ix.durs("experiments.cell", ms), 0.9)
	o.share("experiments.io_s.share", ix.total("experiments.io"), cellTotal)
	o.share("experiments.unattributed_share", ix.selfTotal("experiments.cell"), cellTotal)
	o.share("trace.reconstruct_share", cellTotal-ix.selfTotal("experiments.cell"), cellTotal)
	o.pct("scenario.build_ms.p50", ix.durs("scenario.build", ms), 0.5)
	o.share("scenario.build_s.share", ix.total("scenario.build"), cellTotal)
	o.pct("scenario.observe_us.p50", ix.durs("scenario.observe", us), 0.5)
	o.share("scenario.observe_s.share", ix.total("scenario.observe"), cellTotal)
	o.pct("core.new_ms.p50", ix.durs("core.new", ms), 0.5)
	o.pct("core.step_us.p50", ix.durs("core.step", us), 0.5)
	o.pct("core.step_us.p99", ix.durs("core.step", us), 0.99)
	o.share("core.step_s.share", ix.total("core.step"), cellTotal)
	o.pct("baseline.cpf.new_ms.p50", ix.durs("baseline.cpf.new", ms), 0.5)
	o.share("baseline.cpf.new_s.share", ix.total("baseline.cpf.new"), cellTotal)
	o.pct("baseline.cpf.step_ms.p50", ix.durs("baseline.cpf.step", ms), 0.5)
	o.share("baseline.cpf.step_s.share", ix.total("baseline.cpf.step"), cellTotal)
	o.pct("baseline.sdpf.step_ms.p50", ix.durs("baseline.sdpf.step", ms), 0.5)
	o.share("baseline.sdpf.step_s.share", ix.total("baseline.sdpf.step"), cellTotal)

	var holders []float64
	var comm wsn.CommStats
	var resil core.ResilienceStats
	for _, f := range facts {
		holders = append(holders, f.holders...)
		for k := range comm.Msgs {
			comm.Msgs[k] += f.comm.Msgs[k]
			comm.Bytes[k] += f.comm.Bytes[k]
		}
		resil.Rebroadcasts += f.resil.Rebroadcasts
		resil.Compensated += f.resil.Compensated
	}
	o.pct("core.holders.p50", holders, 0.5)
	o.set("core.rebroadcasts", float64(resil.Rebroadcasts))
	o.set("core.compensated", float64(resil.Compensated))
	o.set("wsn.msgs_per_cell", float64(comm.TotalMsgs())/cells)
	for kind, name := range map[wsn.MsgKind]string{
		wsn.MsgParticle: "particle", wsn.MsgMeasurement: "measurement", wsn.MsgWeight: "weight", wsn.MsgControl: "control",
	} {
		o.set("wsn."+name+"_bytes_per_cell", float64(comm.Bytes[kind])/cells)
	}
	o.set("process.cpu_ms_per_cell", float64(cpu)/float64(ms)/cells)
	o.set("runtime.gc_cpu_share", gcShare(gc0, gc1))
	o.set("trace.overhead_share", wallT.Seconds()/wallU.Seconds()-1)
	o.idle("http.", "serve.", "durable.", "gen.", "process.cpu_us_per_step")
	return nil
}

// idle sets every per-layer metric under the given prefixes to 0: those
// layers do no work in this workload.
func (o *outcome) idle(prefixes ...string) {
	for _, name := range layerMetrics {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				o.set(name, 0)
			}
		}
	}
}

// tailIdle is how long, in nanoseconds, the end of a pass ran with fewer
// than workers cells in flight: from the last moment every worker was busy
// until end. A pass that never filled every worker is idle throughout.
func tailIdle(cells []span, workers int, end int64) float64 {
	type ev struct {
		t int64
		d int
	}
	evs := make([]ev, 0, 2*len(cells))
	first := end
	for _, c := range cells {
		evs = append(evs, ev{c.Start, +1}, ev{c.End, -1})
		first = min(first, c.Start)
	}
	// Ends sort before starts at the same instant, so a worker handing over
	// to its next cell does not count as a full pool.
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		return evs[a].d < evs[b].d
	})
	lastFull := first
	running := 0
	for _, v := range evs {
		if v.d < 0 && running >= workers {
			lastFull = v.t
		}
		running += v.d
	}
	return float64(end - lastFull)
}
