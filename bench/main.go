// Command bench is the repository benchmark. It runs four workloads, each
// stressing a different layer, and prints every metric BENCHMARK.json
// declares, with its unit, after checking that the outputs are correct:
//
//	fig56       the paper's Fig. 5/6 density sweep through experiments.RunMatrix
//	cdpf-track  a CDPF/CDPF-NE tracking sweep where core.Tracker.Step dominates
//	serve-http  open-loop steps through a cdpfd daemon over HTTP and SSE
//	serve-core  open-loop steps through an in-process serve.Manager with a WAL
//
// Run it through bench/run.sh, which builds this program and cdpfd first:
//
//	bash bench/run.sh                                   # every workload
//	bash bench/run.sh --workload fig56 --seed 3 --seconds 20 --trace 0
//	bash bench/run.sh --workload serve-core --trace 1   # per-layer metrics
//	bash bench/run.sh --repeat 5 --save a.json          # medians, quartiles
//	bash bench/run.sh --repeat 5 --against a.json       # agree within bounds?
//
// With --workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics. --trace 1 records spans
// around every call into a layer and reports the per-layer metrics instead
// of the end-to-end ones; spans.jsonl and layers.json go to --out.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/version"
)

// endToEndMetrics are what every workload reports untraced. Each workload
// gives them its own reading (see README.md); the names are shared so one
// bound guards each across all workloads.
var endToEndMetrics = []string{
	"setup_s", "steps_per_s", "latency_p90_ms",
	"rmse_m", "comm_bytes", "peak_rss_mb",
}

// layerMetrics are what every workload reports traced; a layer a workload
// does not exercise reads 0.
var layerMetrics = []string{
	"fleet.busy_share", "fleet.tail_idle_s", "fleet.speedup",
	"experiments.cell_ms.p50", "experiments.cell_ms.p90", "experiments.io_s.share", "experiments.unattributed_share",
	"scenario.build_ms.p50", "scenario.build_s.share", "scenario.observe_us.p50", "scenario.observe_s.share",
	"core.new_ms.p50", "core.step_us.p50", "core.step_us.p99", "core.step_s.share", "core.holders.p50",
	"core.rebroadcasts", "core.compensated",
	"baseline.cpf.new_ms.p50", "baseline.cpf.new_s.share", "baseline.cpf.step_ms.p50", "baseline.cpf.step_s.share",
	"baseline.sdpf.step_ms.p50", "baseline.sdpf.step_s.share",
	"wsn.msgs_per_cell", "wsn.particle_bytes_per_cell", "wsn.measurement_bytes_per_cell",
	"wsn.weight_bytes_per_cell", "wsn.control_bytes_per_cell",
	"process.cpu_ms_per_cell", "process.cpu_us_per_step", "runtime.gc_cpu_share",
	"http.create_ms.p50", "http.create_ms.p90", "http.subscribe_ms.p50",
	"http.ingest_rtt_us.p50", "http.ingest_rtt_us.p99", "http.sse_lag_us.p50", "http.sse_lag_us.p99", "http.refused",
	"serve.create_ms.p50", "serve.create_ms.p99", "serve.ingest_us.p50", "serve.ingest_us.p99",
	"serve.deliver_us.p50", "serve.deliver_us.p99", "serve.refused",
	"serve.step_latency_ms.p50", "serve.step_latency_ms.p99",
	"durable.wal_records", "durable.wal_bytes_per_step", "durable.fsyncs", "durable.snapshots", "durable.snapshot_s.share",
	"gen.send_lag_ms.p99", "gen.light_p99_ms", "gen.nominal_p50_ms", "gen.nominal_p99_ms", "gen.nominal_backlog",
	"trace.overhead_share", "trace.reconstruct_share",
}

// Every workload sets up setupBefore times before its timed window, serving
// the run from the last set-up, and setupAfter times after it; setup_s is
// the median of all of them, so one slow moment of the host does not decide
// it. A set-up takes milliseconds, so twenty of them cost well under a
// second.
const (
	setupBefore = 3
	setupAfter  = 17
)

// workload is one named set of inputs. run measures for env.seconds and
// returns what it measured and what it checked.
type workload struct {
	name string
	run  func(ctx context.Context, e *env) (*outcome, error)
}

var workloads = []workload{
	{"fig56", func(ctx context.Context, e *env) (*outcome, error) { return runOffline(ctx, e, "fig56.json") }},
	{"cdpf-track", func(ctx context.Context, e *env) (*outcome, error) { return runOffline(ctx, e, "cdpf-track.json") }},
	{"serve-http", runServeHTTP},
	{"serve-core", runServeCore},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// env is what a workload run may use: its inputs' seed, how long to measure,
// where to put scratch files, and the tracer when tracing.
type env struct {
	seed    uint64
	seconds float64
	workers int    // load-generating goroutines and fleet workers: nproc
	specs   string // directory of the frozen spec/v1 workload documents
	work    string // scratch directory inside the checkout, removed afterwards
	cdpfd   string // daemon binary for serve-http
	tr      *tracer
}

// outcome is a workload's result: the correctness verdict, operation counts,
// and every metric it computed.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	problems  []string // correctness failures, one line each
	warnings  []string // measurement caveats, such as unsupported percentiles
}

func newOutcome() *outcome { return &outcome{correct: true, metrics: make(map[string]float64)} }

// fail records a correctness problem.
func (o *outcome) fail(format string, args ...any) {
	o.correct = false
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		o.warnings = append(o.warnings, fmt.Sprintf("%s is %v; reported as 0", name, v))
		v = 0
	}
	o.metrics[name] = v
}

// pct sets a nearest-rank percentile, warning when the sample is too small
// to support it. An empty sample (an idle layer) reads 0.
func (o *outcome) pct(name string, xs []float64, p float64) {
	v, ok := percentile(xs, p)
	if !ok && len(xs) > 0 {
		o.warnings = append(o.warnings, fmt.Sprintf("%s: %d samples do not put %d beyond p%g", name, len(xs), minBeyond, 100*p))
	}
	o.set(name, v)
}

// share sets part/whole, 0 when whole is 0.
func (o *outcome) share(name string, part, whole float64) {
	if whole == 0 {
		o.set(name, 0)
		return
	}
	o.set(name, part/whole)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// runRecord is the JSON file every run leaves in --out.
type runRecord struct {
	Schema    string               `json:"schema"`
	Workload  string               `json:"workload"`
	Seed      uint64               `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Trace     bool                 `json:"trace"`
	Version   string               `json:"version"`
	Host      hostInfo             `json:"host"`
	Started   string               `json:"started"`
	WallS     float64              `json:"wall_s"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
	Problems  []string             `json:"problems,omitempty"`
	Warnings  []string             `json:"warnings,omitempty"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print its result as a JSON last line (empty: every workload, one child process each)")
		seed         = flag.Uint64("seed", 1, "workload seed; every cell and session seed derives from it")
		seconds      = flag.Float64("seconds", 0, "how long one run measures (0: run_seconds from BENCHMARK.json)")
		traceFlag    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		out          = flag.String("out", filepath.Join(".bench_build", "runs"), "directory for run records, spans.jsonl and layers.json")
		manifestPath = flag.String("manifest", "BENCHMARK.json", "benchmark manifest")
		cdpfd        = flag.String("cdpfd", filepath.Join(".bench_build", "bin", "cdpfd"), "cdpfd binary for serve-http")
		repeat       = flag.Int("repeat", 0, "run each workload N times on seeds seed..seed+N-1 and print medians and quartiles")
		save         = flag.String("save", "", "with -repeat: write the set of runs to this JSON file")
		against      = flag.String("against", "", "with -repeat: check that this set agrees with a saved set within each metric's bound")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	m, err := loadManifest(*manifestPath)
	if err == nil {
		err = m.checkProgram()
	}
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(m.RunSeconds)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	switch {
	case *repeat > 0:
		err = runRepeat(ctx, m, repeatOptions{
			workload: *workloadName, seed: *seed, seconds: *seconds, n: *repeat,
			save: *save, against: *against, childArgs: childArgs(*out, *manifestPath, *cdpfd),
		}, os.Stdout)
	case *workloadName == "":
		err = runAll(ctx, m, *seed, *seconds, *traceFlag == 1, childArgs(*out, *manifestPath, *cdpfd), os.Stdout)
	default:
		err = runSingle(ctx, m, *workloadName, *seed, *seconds, *traceFlag == 1, *out, *cdpfd, os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func childArgs(out, manifestPath, cdpfd string) []string {
	return []string{"--out", out, "--manifest", manifestPath, "--cdpfd", cdpfd}
}

// runSingle runs one workload in this process and prints its metrics, one
// "name value unit" line each, then the JSON result line.
func runSingle(ctx context.Context, m *manifest, name string, seed uint64, seconds float64, traced bool, outDir, cdpfd string, stdout io.Writer) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(".bench_build", "work-"+name+"-")
	if err != nil {
		return fmt.Errorf("creating scratch directory (run from the checkout root): %w", err)
	}
	defer os.RemoveAll(work)

	e := &env{
		seed: seed, seconds: seconds, workers: runtime.GOMAXPROCS(0),
		specs: filepath.Join("bench", "specs"), work: work, cdpfd: cdpfd,
	}
	if traced {
		e.tr = newTracer()
	}
	started := time.Now()
	o, err := w.run(ctx, e)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	decls := m.EndToEnd
	if traced {
		decls = m.PerLayer
	}
	res := result{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metricOut)}
	for _, d := range decls {
		v, ok := o.metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s did not produce metric %s", name, d.Name)
		}
		res.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("%s attempted no operations", name)
	}

	stamp := fmt.Sprintf("%s-seed%d-%s", name, seed, started.Format("20060102T150405.000"))
	rec := runRecord{
		Schema: "bench-run/v1", Workload: name, Seed: seed, Seconds: seconds, Trace: traced,
		Version: version.String(), Host: readHost(), Started: started.Format(time.RFC3339Nano),
		WallS: time.Since(started).Seconds(), Correct: o.correct, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricOut), Problems: o.problems, Warnings: o.warnings,
	}
	units := make(map[string]string)
	for _, d := range append(append([]metricDecl(nil), m.EndToEnd...), m.PerLayer...) {
		units[d.Name] = d.Unit
	}
	for k, v := range o.metrics {
		if _, ok := units[k]; !ok {
			return fmt.Errorf("%s produced undeclared metric %s", name, k)
		}
		rec.Metrics[k] = metricOut{Value: v, Unit: units[k]}
	}
	if traced {
		dir := filepath.Join(outDir, stamp)
		if err := writeTrace(dir, e.tr); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench: spans and per-layer summary in %s\n", dir)
	}
	if err := writeJSON(filepath.Join(outDir, stamp+".json"), rec); err != nil {
		return err
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "bench: INCORRECT:", p)
	}
	for _, wmsg := range o.warnings {
		fmt.Fprintln(os.Stderr, "bench: warning:", wmsg)
	}
	for _, d := range decls {
		fmt.Fprintf(stdout, "%s %s %s\n", d.Name, formatValue(res.Metrics[d.Name].Value), d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func formatValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// writeTrace writes spans.jsonl and the per-span-name roll-up.
func writeTrace(dir string, t *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ss := t.snapshot()
	if err := writeSpans(filepath.Join(dir, "spans.jsonl"), ss); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "layers.json"), indexSpans(ss).summary())
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runChild runs one workload in a child process of this binary and returns
// its parsed result line.
func runChild(ctx context.Context, name string, seed uint64, seconds float64, traced bool, extra []string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	args := append([]string{"--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", tr}, extra...)
	cmd := execCommand(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	return &r, nil
}

// execCommand is exec.CommandContext that asks the process to stop with
// SIGTERM when ctx ends, and kills it if it has not exited 10 s later or if
// this process dies first.
func execCommand(ctx context.Context, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.SysProcAttr = childAttrs()
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	return cmd
}

// runAll runs every workload, one after another, each in its own process,
// and prints "workload metric value unit" lines.
func runAll(ctx context.Context, m *manifest, seed uint64, seconds float64, traced bool, extra []string, stdout io.Writer) error {
	var bad []string
	for _, w := range m.Workloads {
		r, err := runChild(ctx, w.Name, seed, seconds, traced, extra)
		if err != nil {
			return err
		}
		names := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(stdout, "%-11s %-34s %12s %s\n", w.Name, k, formatValue(r.Metrics[k].Value), r.Metrics[k].Unit)
		}
		fmt.Fprintf(stdout, "%-11s correct=%v attempted=%d failed=%d\n", w.Name, r.Correct, r.Attempted, r.Failed)
		if !r.Correct || r.Failed > 0 {
			bad = append(bad, w.Name)
		}
	}
	if len(bad) > 0 {
		return errors.New("incorrect or failed operations in " + strings.Join(bad, ", "))
	}
	return nil
}
