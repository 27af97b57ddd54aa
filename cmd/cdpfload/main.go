// Command cdpfload is the load generator for cdpfd: it drives N concurrent
// tracking sessions against a running daemon, feeding each one the exact
// measurement stream its offline twin would consume (serve.Observations) and
// reading the estimates back over SSE. Each session verifies the served
// records against a local offline run (-verify, on by default), so a load
// run is also an end-to-end determinism check. Scenario builds and the
// offline-twin verification happen outside the timed window — the wall clock
// covers only the driven load, not the generator's own recomputation.
//
// Per-step latency is measured from batch admission (POST accepted) to the
// estimate event arriving, summarised as p50/p90/p99/max plus steps/sec, and
// emitted in `go test -bench` text form so cmd/benchdiff can gate it. All
// currently-ready iterations of a session (bounded by -window) are grouped
// into one ingest POST, so a wide window amortises the HTTP round-trip the
// way the server's shard drain amortises queue bookkeeping. -benchjson
// additionally writes a benchdiff baseline file (results/BENCH_serve.json in
// CI).
//
// With -daemon "CMD ARGS...", cdpfload manages the daemon itself: it appends
// -addr 127.0.0.1:0 -addr-file and waits for /healthz to report "ready".
// -restart-after N then SIGKILLs and restarts the managed daemon after N
// estimate events have been observed, mid-load: sessions ride out the crash
// (postBatches already retries 503s, the drive loop resumes from the server's
// recovered NextK) and every record that spans the restart is still verified
// byte-for-byte against the offline twin — an end-to-end crash-recovery
// check under concurrent load.
//
// With -cluster N (plus -daemon and -gateway "CMD ARGS..."), cdpfload spawns
// N cdpfd backends and a cdpfgw gateway in front of them, and drives every
// session through the gateway. -drain-after K evacuates and SIGTERMs the
// busiest backend after K estimate events: its sessions live-migrate to
// other backends via snapshot handoff, the drained process must exit 0, and
// every migrated session's trace must still match its offline twin. The
// summary adds per-backend latency breakdowns, and -benchjson writes the
// bench-cluster/v1 baseline (results/BENCH_cluster.json in CI).
//
// -kill-after K is the harsher cluster drill: after K estimate events the
// busiest backend is SIGKILLed — no drain, no evacuation — and relaunched on
// its own data directory at the same address. The gateway parks requests for
// the dead backend's sessions through the crash-recovery window, WAL replay
// brings the sessions back, and the run fails if any session the victim was
// serving saw a single client-visible 5xx, or if any trace diverges from its
// offline twin. The summary adds recovery time, the gateway's park-latency
// p99 and retry totals as bench lines, and -benchjson switches to the
// bench-chaos/v1 schema (results/BENCH_chaos.json in CI).
//
// -chaos SCHEDULE additionally interposes a deterministic fault-injecting
// TCP proxy (internal/chaos) between the gateway and every backend; backend
// i's proxy is seeded -chaos-seed + i, so a run's fault log is reproducible.
//
// Every session is one spec/v1 cell: the -density/-use-ne/-steps flags
// build it, or -spec FILE[#CELL] loads it (the same files cdpfsim -spec and
// cdpfmatrix run). Per-session seeds derive from -seed, overriding the
// cell's seed axis, and offline-twin verification covers the cell's full
// composition (loss, fail-stops, sensor faults, defenses).
//
// Usage:
//
//	cdpfload [-addr HOST:PORT] [-sessions N] [-steps N] [-density D]
//	         [-seed S] [-window W] [-use-ne] [-spec FILE[#CELL]] [-verify=false]
//	         [-daemon "CMD ARGS..."] [-restart-after N]
//	         [-cluster N] [-gateway "CMD ARGS..."] [-drain-after N]
//	         [-kill-after N] [-chaos SCHEDULE] [-chaos-seed S]
//	         [-benchjson FILE] [-note TEXT] [-version]
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/fleet"
	"repro/internal/serve"
	cellspec "repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/version"
)

type options struct {
	addr         string
	sessions     int
	steps        int
	density      float64
	seed         uint64
	window       int
	useNE        bool
	spec         string
	cellAxes     *cellspec.Axes // resolved from -spec or the flags; per-session seeds override Seed
	verify       bool
	benchJSON    string
	note         string
	stepWait     time.Duration
	daemon       string
	restartAfter int
	cluster      int
	gatewayCmd   string
	drainAfter   int
	killAfter    int
	chaos        string
	chaosSeed    uint64
}

func main() {
	var (
		o           options
		seed        = flag.Uint64("seed", 1, "root seed; per-session seeds derive from it (fleet.Seeds)")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8723", "cdpfd address (host:port or http:// URL)")
	flag.IntVar(&o.sessions, "sessions", 8, "concurrent tracking sessions")
	flag.IntVar(&o.steps, "steps", 10, "filter iterations per session (scenario Steps)")
	flag.Float64Var(&o.density, "density", 10, "node density (nodes per 100 m^2)")
	flag.IntVar(&o.window, "window", 1, "batches in flight per session (1 = strict lockstep)")
	flag.BoolVar(&o.useNE, "use-ne", false, "run the CDPF-NE variant")
	flag.StringVar(&o.spec, "spec", "", "drive sessions from a serveable spec/v1 cell (FILE or FILE#CELL); per-session seeds override the cell's seed axis")
	flag.BoolVar(&o.verify, "verify", true, "check served records against a local offline run")
	flag.StringVar(&o.benchJSON, "benchjson", "", "also write a benchdiff baseline JSON file")
	flag.StringVar(&o.note, "note", "", "note stored in the -benchjson baseline")
	flag.DurationVar(&o.stepWait, "step-wait", 30*time.Second, "timeout waiting for any single estimate event")
	flag.StringVar(&o.daemon, "daemon", "", "launch this cdpfd command (space-separated) instead of targeting -addr")
	flag.IntVar(&o.restartAfter, "restart-after", 0, "SIGKILL and restart the managed daemon after N estimate events (requires -daemon)")
	flag.IntVar(&o.cluster, "cluster", 0, "cluster mode: spawn N cdpfd backends plus a cdpfgw gateway and drive through the gateway (requires -daemon and -gateway)")
	flag.StringVar(&o.gatewayCmd, "gateway", "", "cdpfgw command (space-separated) for -cluster mode")
	flag.IntVar(&o.drainAfter, "drain-after", 0, "drain and SIGTERM the busiest backend after N estimate events (requires -cluster)")
	flag.IntVar(&o.killAfter, "kill-after", 0, "SIGKILL the busiest backend after N estimate events and relaunch it on its data dir (requires -cluster)")
	flag.StringVar(&o.chaos, "chaos", "", "chaos proxy fault schedule between gateway and backends, e.g. \"latency/delay=5ms/every=7,reset/every=13\" (requires -cluster)")
	flag.Uint64Var(&o.chaosSeed, "chaos-seed", 1, "chaos proxy seed; backend i's proxy uses seed+i")
	flag.Parse()
	if *showVersion {
		fmt.Println("cdpfload", version.String())
		return
	}
	if o.spec != "" {
		var conflicts []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "density", "use-ne", "steps":
				conflicts = append(conflicts, "-"+f.Name)
			}
		})
		if len(conflicts) > 0 {
			fmt.Fprintf(os.Stderr, "cdpfload: -spec conflicts with %v (the spec owns those axes)\n", conflicts)
			os.Exit(1)
		}
	}
	o.seed = *seed

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cdpfload:", err)
		os.Exit(1)
	}
}

// sessionResult is what one driven session reports back.
type sessionResult struct {
	latencies  []time.Duration
	perBackend map[string][]time.Duration // by X-Backend of the admitting response
	records    []trace.Record
	fiveXX     int // HTTP 5xx responses this session's client ever saw
}

func run(ctx context.Context, o options, out io.Writer) error {
	if o.spec != "" {
		// Resolve the cell once; per-session seeds are overlaid in driveAll.
		// The spec owns the iteration count, which the drive loop and the
		// -restart-after arithmetic read from o.steps.
		cell, _, err := cellspec.LoadCell(o.spec)
		if err != nil {
			return err
		}
		ax := cell.Axes.Normalized()
		o.cellAxes = &ax
		o.steps = ax.Steps
	} else {
		// The flags spell a clean cdpf or cdpf-ne cell.
		if o.density <= 0 {
			return fmt.Errorf("need positive -density")
		}
		ax := cellspec.Axes{Algo: "cdpf", Density: o.density, Steps: o.steps}
		if o.useNE {
			ax.Algo = "cdpf-ne"
		}
		o.cellAxes = &ax
	}
	if o.sessions <= 0 || o.steps <= 0 {
		return fmt.Errorf("need positive -sessions and -steps")
	}
	if o.window <= 0 {
		o.window = 1
	}
	if o.cluster > 0 {
		return runCluster(ctx, o, out)
	}
	if o.gatewayCmd != "" || o.drainAfter > 0 || o.killAfter > 0 || o.chaos != "" {
		return fmt.Errorf("-gateway, -drain-after, -kill-after, and -chaos require -cluster")
	}
	if o.restartAfter > 0 && o.daemon == "" {
		return fmt.Errorf("-restart-after requires -daemon (cdpfload must own the process it kills)")
	}

	base := o.addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	baseFn := func() string { return base }

	var ctl *daemonCtl
	if o.daemon != "" {
		dir, err := os.MkdirTemp("", "cdpfload-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if ctl, err = newDaemonCtl(o.daemon, dir); err != nil {
			return err
		}
		if err := ctl.start(ctx); err != nil {
			return err
		}
		defer ctl.stop()
		baseFn = ctl.baseURL
	}

	var trig *eventTrigger
	if o.restartAfter > 0 {
		total := o.sessions * (o.steps + 1)
		if o.restartAfter >= total {
			return fmt.Errorf("-restart-after %d must be below the run's %d total estimate events", o.restartAfter, total)
		}
		trig = &eventTrigger{threshold: int64(o.restartAfter), action: func() { ctl.killRestart(ctx) }}
	}

	var rec recoverer
	if ctl != nil {
		rec = ctl
	}
	results, wall, err := driveAll(ctx, o, baseFn, rec, trig)
	if ctl != nil {
		if ferr := ctl.failed(); ferr != nil {
			return ferr
		}
	}
	if err != nil {
		return err
	}
	if trig != nil && !trig.fired.Load() {
		return fmt.Errorf("-restart-after %d never fired (%d events observed)", o.restartAfter, trig.count.Load())
	}

	var lats []time.Duration
	for _, r := range results {
		lats = append(lats, r.latencies...)
	}
	sum, err := summarize(lats)
	if err != nil {
		return err
	}
	steps, q := sum.n(), sum.q
	throughput := float64(steps) / wall.Seconds()

	fmt.Fprintf(out, "cdpfload: %d sessions x %d iterations against %s (window %d, verify %v)\n",
		o.sessions, o.steps+1, baseFn(), o.window, o.verify)
	if ctl != nil {
		fmt.Fprintf(out, "cdpfload: managed daemon killed and restarted %d time(s) mid-load\n", ctl.restartCount())
	}
	fmt.Fprintf(out, "wall %v  steps %d  throughput %.1f steps/sec\n", wall.Round(time.Millisecond), steps, throughput)
	fmt.Fprintf(out, "step latency p50 %v  p90 %v  p99 %v  max %v\n",
		q(0.50).Round(time.Microsecond), q(0.90).Round(time.Microsecond),
		q(0.99).Round(time.Microsecond), sum.max().Round(time.Microsecond))

	// Bench-format block: parseable by cmd/benchdiff (the cpu: line scopes
	// the wall-clock gates to matching hardware).
	if cpu := benchfmt.HostCPU(); cpu != "" {
		fmt.Fprintf(out, "cpu: %s\n", cpu)
	}
	fmt.Fprintf(out, "BenchmarkServeStepLatencyP50 \t%d\t%d ns/op\n", steps, q(0.50).Nanoseconds())
	fmt.Fprintf(out, "BenchmarkServeStepLatencyP99 \t%d\t%d ns/op\n", steps, q(0.99).Nanoseconds())
	fmt.Fprintf(out, "BenchmarkServeThroughput \t%d\t%d ns/op\t%.2f jobs/sec\n",
		steps, wall.Nanoseconds()/int64(steps), throughput)

	if o.benchJSON != "" {
		b := benchfmt.Baseline{
			Schema:   "bench-serve/v1",
			Recorded: time.Now().Format("2006-01-02"),
			CPU:      benchfmt.HostCPU(),
			Note:     o.note,
			Baseline: map[string]benchfmt.Measurement{
				"BenchmarkServeStepLatencyP50": {NsPerOp: float64(q(0.50).Nanoseconds())},
				"BenchmarkServeStepLatencyP99": {NsPerOp: float64(q(0.99).Nanoseconds())},
				"BenchmarkServeThroughput": {
					NsPerOp:    float64(wall.Nanoseconds() / int64(steps)),
					JobsPerSec: throughput,
				},
			},
		}
		if err := b.Write(o.benchJSON); err != nil {
			return err
		}
		fmt.Fprintf(out, "cdpfload: baseline written to %s\n", o.benchJSON)
	}
	return nil
}

// recoverer is whatever lets a drive loop wait out a transient failure: the
// managed single daemon restarting, or the cluster's gateway riding out a
// backend drain. A nil recoverer means transient failures are fatal.
type recoverer interface {
	awaitReady(ctx context.Context, timeout time.Duration) error
}

// driveAll runs every session drive concurrently and returns the results
// plus wall time; the error is the first failed session's. Measurement
// streams are built before the clock starts and offline-twin verification
// runs after it stops: both recompute the full scenario locally, and billing
// that work to the wall would understate the server's actual throughput.
func driveAll(ctx context.Context, o options, baseFn func() string, rec recoverer, trig *eventTrigger) ([]sessionResult, time.Duration, error) {
	seeds := fleet.Seeds(o.seed, o.sessions)
	client := &http.Client{} // no global timeout: SSE streams live for the whole run
	specs := make([]serve.SessionSpec, o.sessions)
	allBatches := make([][]serve.Batch, o.sessions)
	for i := range specs {
		ax := *o.cellAxes
		ax.Seed = seeds[i]
		specs[i] = serve.SessionSpec{ID: fmt.Sprintf("load-%d-%03d", o.seed, i), Cell: &ax}
		var err error
		if allBatches[i], err = serve.Observations(specs[i]); err != nil {
			return nil, 0, fmt.Errorf("session %d observations: %w", i, err)
		}
	}

	results := make([]sessionResult, o.sessions)
	errs := make([]error, o.sessions)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < o.sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = driveSession(ctx, client, baseFn, specs[i], allBatches[i], o, rec, trig)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return results, wall, fmt.Errorf("session %d: %w", i, err)
		}
	}

	if o.verify {
		for i := 0; i < o.sessions; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = verifyAgainstOffline(specs[i], results[i].records)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return results, wall, fmt.Errorf("session %d: %w", i, err)
			}
		}
	}
	return results, wall, nil
}

// latSummary answers quantile queries over a sorted latency set.
type latSummary struct{ lats []time.Duration }

func summarize(lats []time.Duration) (latSummary, error) {
	if len(lats) == 0 {
		return latSummary{}, fmt.Errorf("no steps completed")
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	return latSummary{lats: sorted}, nil
}

func (s latSummary) n() int { return len(s.lats) }

func (s latSummary) q(p float64) time.Duration {
	i := int(p*float64(len(s.lats))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s.lats) {
		i = len(s.lats) - 1
	}
	return s.lats[i]
}

func (s latSummary) max() time.Duration { return s.lats[len(s.lats)-1] }

// transientError marks a failure worth retrying when a recoverer is present:
// connection refused across a restart, 503 while recovering, a broken SSE
// stream (a migrated session's old stream ends early). Everything else is
// permanent and fails the session.
type transientError struct{ err error }

func (e transientError) Error() string { return e.err.Error() }
func (e transientError) Unwrap() error { return e.err }

// driveState is the part of a session drive that survives daemon restarts:
// which records arrived (by iteration), when each batch was first admitted,
// and the latencies measured at first receipt. Re-delivered records after a
// resubscribe are checked for equality against what we already hold — a
// recovered daemon re-serving a different record is a determinism failure.
type driveState struct {
	admit        []time.Time
	admitBackend []string // X-Backend header of the admitting response, per k
	got          map[int]trace.Record
	latencies    []time.Duration
	perBackend   map[string][]time.Duration
	fiveXX       int // every 5xx response observed, retried or not
}

// driveSession runs one session end to end: create, subscribe, feed every
// batch in lockstep (up to `window` in flight), and measure
// admission-to-estimate latency per iteration. Offline-twin verification is
// the caller's job (driveAll, after the wall clock stops). When cdpfload
// manages the daemon (ctl != nil) the drive is resumable: a transient
// failure — typically the -restart-after kill — waits for the daemon to
// recover and resumes from the server's NextK.
func driveSession(ctx context.Context, client *http.Client, baseFn func() string, spec serve.SessionSpec, batches []serve.Batch, o options, rec recoverer, trig *eventTrigger) (sessionResult, error) {
	var res sessionResult
	n := len(batches)
	st := &driveState{
		admit: make([]time.Time, n), admitBackend: make([]string, n),
		got: make(map[int]trace.Record, n), perBackend: make(map[string][]time.Duration),
	}

	maxAttempts := 1
	if rec != nil {
		maxAttempts = 8
	}
	for attempt := 1; ; attempt++ {
		err := driveAttempt(ctx, client, baseFn(), spec, batches, o, st, trig)
		if err == nil {
			break
		}
		var te transientError
		if !errors.As(err, &te) || attempt >= maxAttempts {
			return res, err
		}
		if err := rec.awaitReady(ctx, 60*time.Second); err != nil {
			return res, fmt.Errorf("waiting out recovery: %w", err)
		}
	}

	res.records = make([]trace.Record, 0, n)
	for k := 0; k < n; k++ {
		rec, ok := st.got[k]
		if !ok {
			return res, fmt.Errorf("drive finished without record %d", k)
		}
		res.records = append(res.records, rec)
	}
	res.latencies = st.latencies
	res.perBackend = st.perBackend
	res.fiveXX = st.fiveXX
	return res, nil
}

// driveAttempt makes one pass at finishing the session against the daemon's
// current address: look the session up (creating it on 404), subscribe,
// re-feed from the server's NextK — anything admitted but not yet in the WAL
// when a crash hit must be posted again — and fold the event stream into st.
func driveAttempt(ctx context.Context, client *http.Client, base string, spec serve.SessionSpec, batches []serve.Batch, o options, st *driveState, trig *eventTrigger) error {
	n := len(batches)
	info, status, err := getSessionInfo(ctx, client, base, spec.ID)
	if status >= 500 {
		st.fiveXX++
	}
	switch {
	case err != nil:
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return transientError{err}
	case status == http.StatusNotFound:
		var cs int
		info, cs, err = createSession(ctx, client, base, spec)
		if cs >= 500 {
			st.fiveXX++
		}
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if cs == 0 || cs == http.StatusServiceUnavailable || cs == http.StatusConflict {
				return transientError{err}
			}
			return err
		}
	case status == http.StatusServiceUnavailable:
		return transientError{fmt.Errorf("session info: HTTP 503 (daemon recovering or draining)")}
	case status != http.StatusOK:
		return fmt.Errorf("session info: HTTP %d", status)
	}
	if info.Iterations != n {
		return fmt.Errorf("server reports %d iterations, expected %d", info.Iterations, n)
	}

	// Subscribe before feeding anything so no event can be missed; the stream
	// replays the session's full record history first, which is how records
	// stepped before a crash reach a client that resubscribed after it.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet,
		base+"/v1/sessions/"+spec.ID+"/estimates", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return transientError{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode >= 500 {
			st.fiveXX++
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			return transientError{fmt.Errorf("subscribe: HTTP 503")}
		}
		return fmt.Errorf("subscribe: HTTP %d", resp.StatusCode)
	}
	events := make(chan trace.Record, n)
	readErr := make(chan error, 1)
	go readEvents(resp.Body, events, readErr)

	// Feed from the server's cursor, gated by the highest iteration whose
	// estimate has arrived (ackK): at most `window` steps are outstanding.
	// Every currently-ready iteration goes out in one ingest request —
	// admission is atomic server-side, so the group lands as a unit and the
	// shard's batch drain can step it back to back.
	posted, ackK := info.NextK, info.NextK-1
	for len(st.got) < n {
		if hi := min(n, ackK+o.window+1); posted < hi {
			backend, err := postBatches(ctx, client, base, spec.ID, batches[posted:hi], &st.fiveXX)
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return transientError{err}
			}
			now := time.Now()
			for ; posted < hi; posted++ {
				if st.admit[posted].IsZero() {
					st.admit[posted] = now
					st.admitBackend[posted] = backend
				}
			}
		}
		select {
		case rec, ok := <-events:
			if !ok {
				if len(st.got) == n {
					return nil
				}
				return transientError{fmt.Errorf("estimate stream ended with %d of %d records", len(st.got), n)}
			}
			if rec.K < 0 || rec.K >= n {
				return fmt.Errorf("estimate for unexpected iteration %d", rec.K)
			}
			if prev, seen := st.got[rec.K]; seen {
				if prev != rec {
					return fmt.Errorf("record %d diverged across reconnect:\nbefore %+v\nafter  %+v", rec.K, prev, rec)
				}
			} else {
				st.got[rec.K] = rec
				if !st.admit[rec.K].IsZero() {
					lat := time.Since(st.admit[rec.K])
					st.latencies = append(st.latencies, lat)
					if bk := st.admitBackend[rec.K]; bk != "" {
						st.perBackend[bk] = append(st.perBackend[bk], lat)
					}
				}
				trig.onEvent()
			}
			if rec.K > ackK {
				ackK = rec.K
			}
		case err := <-readErr:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return transientError{fmt.Errorf("estimate stream: %w", err)}
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(o.stepWait):
			return transientError{fmt.Errorf("timed out with %d of %d records", len(st.got), n)}
		}
	}
	return nil
}

// getSessionInfo GETs the session; a non-200 status is returned without error
// so the caller can classify it (404 create, 503 retry).
func getSessionInfo(ctx context.Context, client *http.Client, base, id string) (serve.SessionInfo, int, error) {
	var info serve.SessionInfo
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/sessions/"+id, nil)
	if err != nil {
		return info, 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return info, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return info, resp.StatusCode, nil
	}
	return info, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&info)
}

// createSession POSTs the spec and returns the created SessionInfo plus the
// HTTP status (0 when the request never completed).
func createSession(ctx context.Context, client *http.Client, base string, spec serve.SessionSpec) (serve.SessionInfo, int, error) {
	var info serve.SessionInfo
	body, err := json.Marshal(spec)
	if err != nil {
		return info, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sessions", bytes.NewReader(body))
	if err != nil {
		return info, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return info, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return info, resp.StatusCode, fmt.Errorf("create: %s", readErrBody(resp))
	}
	return info, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&info)
}

// postBatches submits a run of consecutive iteration batches as one ingest
// request, retrying on backpressure (429 when the session queue budget is
// spent, 503 when a shard queue is full) — the load generator's contract is
// to apply pressure, observe shedding, and keep going, not to fail the run.
// Admission is atomic server-side, so a retry re-sends the identical group.
// It returns the X-Backend header of the accepting response (set by the
// gateway in cluster mode, empty when talking to a daemon directly) plus a
// freshly minted X-Request-Id on every attempt so rejections are traceable
// end to end. Every 5xx response — even ones the retry loop absorbs — is
// tallied into fiveXX: the cluster kill drill asserts a crashed backend's
// sessions never saw one.
func postBatches(ctx context.Context, client *http.Client, base, id string, bs []serve.Batch, fiveXX *int) (string, error) {
	body, err := json.Marshal(serve.IngestRequest{Batches: bs})
	if err != nil {
		return "", err
	}
	backoff := 2 * time.Millisecond
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			base+"/v1/sessions/"+id+"/measurements", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-Id", serve.NewRequestID())
		resp, err := client.Do(req)
		if err != nil {
			return "", err
		}
		status, msg := resp.StatusCode, ""
		if status >= 500 {
			*fiveXX++
		}
		backend := resp.Header.Get("X-Backend")
		if status != http.StatusAccepted {
			msg = readErrBody(resp)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch status {
		case http.StatusAccepted:
			return backend, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			select {
			case <-ctx.Done():
				return "", ctx.Err()
			case <-time.After(backoff):
			}
			if backoff < 100*time.Millisecond {
				backoff *= 2
			}
		default:
			return "", fmt.Errorf("ingest k=%d..%d: %s", bs[0].K, bs[len(bs)-1].K, msg)
		}
	}
}

// readErrBody extracts the JSON error envelope (or a fallback) from a non-2xx
// response, including the request ID when the server echoed one.
func readErrBody(resp *http.Response) string {
	var eb struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		if eb.RequestID != "" {
			return fmt.Sprintf("HTTP %d: %s (request %s)", resp.StatusCode, eb.Error, eb.RequestID)
		}
		return fmt.Sprintf("HTTP %d: %s", resp.StatusCode, eb.Error)
	}
	return fmt.Sprintf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
}

// readEvents parses the SSE stream, forwarding each "estimate" record and
// closing the channel on the terminal "done" event.
func readEvents(r io.Reader, ch chan<- trace.Record, errCh chan<- error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event, data := "", ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			switch event {
			case "estimate":
				var rec trace.Record
				if err := json.Unmarshal([]byte(data), &rec); err != nil {
					errCh <- fmt.Errorf("bad estimate event: %w", err)
					return
				}
				ch <- rec
			case "done":
				close(ch)
				return
			}
			event, data = "", ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		errCh <- err
		return
	}
	errCh <- io.ErrUnexpectedEOF
}

// verifyAgainstOffline recomputes the session offline and requires the served
// records to match exactly — the wire hop must not perturb a single bit.
func verifyAgainstOffline(spec serve.SessionSpec, got []trace.Record) error {
	ref, err := serve.OfflineTrace(spec)
	if err != nil {
		return fmt.Errorf("offline twin: %w", err)
	}
	if len(got) != len(ref.Records) {
		return fmt.Errorf("verify: served %d records, offline %d", len(got), len(ref.Records))
	}
	for i, want := range ref.Records {
		if got[i] != want {
			return fmt.Errorf("verify: record %d diverges from offline run:\nserved  %+v\noffline %+v", i, got[i], want)
		}
	}
	return nil
}
