package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/chaos"
)

// runCluster is cdpfload's cluster mode: it spawns -cluster cdpfd backends
// (each with its own durability directory and -drain-linger armed), a cdpfgw
// gateway in front of them, and drives every session through the gateway.
// With -drain-after N, once N estimate events have arrived the busiest
// backend is evacuated through the gateway and SIGTERMed mid-run — the run
// then proves that zero sessions were lost and every trace, migrated or
// not, still matches its offline twin (-verify is on by default).
//
// With -kill-after N the busiest backend is SIGKILLed instead — a real crash
// with nothing evacuated — and relaunched on its own data directory at the
// same address. The gateway must park its sessions' requests through the WAL
// recovery window: any client-visible 5xx on a session the victim served
// fails the run (unless -chaos is also injecting faults, which can
// legitimately surface errors on any backend).
func runCluster(ctx context.Context, o options, out io.Writer) error {
	if o.cluster < 2 {
		return fmt.Errorf("-cluster needs at least 2 backends, got %d", o.cluster)
	}
	if o.daemon == "" || o.gatewayCmd == "" {
		return fmt.Errorf("-cluster requires both -daemon (backend command) and -gateway (cdpfgw command)")
	}
	if o.restartAfter > 0 {
		return fmt.Errorf("-restart-after is single-daemon fault injection; use -drain-after or -kill-after with -cluster")
	}
	if o.drainAfter > 0 && o.killAfter > 0 {
		return fmt.Errorf("-drain-after and -kill-after are mutually exclusive drills")
	}
	total := o.sessions * (o.steps + 1)
	if o.drainAfter > 0 && o.drainAfter >= total {
		return fmt.Errorf("-drain-after %d must be below the run's %d total estimate events", o.drainAfter, total)
	}
	if o.killAfter > 0 && o.killAfter >= total {
		return fmt.Errorf("-kill-after %d must be below the run's %d total estimate events", o.killAfter, total)
	}
	var sched *chaos.Schedule
	if o.chaos != "" {
		s, err := chaos.ParseSchedule(o.chaos)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		sched = &s
	}

	dir, err := os.MkdirTemp("", "cdpfcluster-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctl, err := newClusterCtl(o.daemon, o.gatewayCmd, o.cluster, dir)
	if err != nil {
		return err
	}
	ctl.chaosSched, ctl.chaosSeed = sched, o.chaosSeed
	if err := ctl.start(ctx); err != nil {
		ctl.stopAll()
		return err
	}
	defer ctl.stopAll()

	var trig *eventTrigger
	switch {
	case o.drainAfter > 0:
		trig = &eventTrigger{threshold: int64(o.drainAfter), action: func() { ctl.drainBusiest(ctx) }}
	case o.killAfter > 0:
		trig = &eventTrigger{threshold: int64(o.killAfter), action: func() { ctl.killBusiest(ctx) }}
	}

	results, wall, err := driveAll(ctx, o, ctl.gatewayURL, ctl, trig)
	if ferr := ctl.failed(); ferr != nil {
		return ferr
	}
	if err != nil {
		return err
	}
	if o.drainAfter > 0 {
		if !trig.fired.Load() {
			return fmt.Errorf("-drain-after %d never fired (%d events observed)", o.drainAfter, trig.count.Load())
		}
		if ctl.migratedCount() == 0 {
			return fmt.Errorf("drained backend %s had no sessions to migrate — the drill proved nothing", ctl.drainedName())
		}
	}
	killOwned := 0
	var gwStats gatewayStats
	if o.killAfter > 0 {
		if !trig.fired.Load() {
			return fmt.Errorf("-kill-after %d never fired (%d events observed)", o.killAfter, trig.count.Load())
		}
		victim := ctl.killedName()
		if victim == "" {
			return fmt.Errorf("kill drill never completed")
		}
		// Zero client-visible 5xx for the victim's sessions: every batch the
		// victim admitted rode out the crash behind the gateway's parking.
		// With -chaos active any backend can legitimately error, so the
		// assertion only holds in a clean kill drill.
		for i, r := range results {
			if len(r.perBackend[victim]) == 0 {
				continue
			}
			killOwned++
			if o.chaos == "" && r.fiveXX > 0 {
				return fmt.Errorf("session %d (served by killed backend %s) saw %d client-visible 5xx responses; want zero", i, victim, r.fiveXX)
			}
		}
		if killOwned == 0 {
			return fmt.Errorf("killed backend %s had served no sessions — the drill proved nothing", victim)
		}
		if gwStats, err = scrapeGatewayStats(ctl.gatewayURL()); err != nil {
			return fmt.Errorf("scraping gateway metrics after the kill drill: %w", err)
		}
	}

	var lats []time.Duration
	perBackend := make(map[string][]time.Duration)
	for _, r := range results {
		lats = append(lats, r.latencies...)
		for bk, ls := range r.perBackend {
			perBackend[bk] = append(perBackend[bk], ls...)
		}
	}
	sum, err := summarize(lats)
	if err != nil {
		return err
	}
	steps := sum.n()
	throughput := float64(steps) / wall.Seconds()

	fmt.Fprintf(out, "cdpfload: cluster of %d backends behind %s: %d sessions x %d iterations (window %d, verify %v)\n",
		o.cluster, ctl.gatewayURL(), o.sessions, o.steps+1, o.window, o.verify)
	if name := ctl.drainedName(); name != "" {
		fmt.Fprintf(out, "cdpfload: drained %s mid-run: %d sessions migrated, 0 lost\n", name, ctl.migratedCount())
	}
	if name := ctl.killedName(); name != "" {
		suffix := ""
		if o.chaos == "" {
			suffix = ", zero client-visible 5xx"
		}
		fmt.Fprintf(out, "cdpfload: killed %s mid-run (SIGKILL): relaunched on its data dir, recovered in %v, %d session(s) rode it out%s\n",
			name, ctl.recoveryTime().Round(time.Millisecond), killOwned, suffix)
	}
	if len(ctl.proxies) > 0 {
		fmt.Fprintf(out, "cdpfload: chaos faults injected: %s\n", formatFaultTotals(ctl.faultTotals()))
	}
	fmt.Fprintf(out, "wall %v  steps %d  throughput %.1f steps/sec\n", wall.Round(time.Millisecond), steps, throughput)
	fmt.Fprintf(out, "step latency p50 %v  p90 %v  p99 %v  max %v\n",
		sum.q(0.50).Round(time.Microsecond), sum.q(0.90).Round(time.Microsecond),
		sum.q(0.99).Round(time.Microsecond), sum.max().Round(time.Microsecond))
	names := make([]string, 0, len(perBackend))
	for bk := range perBackend {
		names = append(names, bk)
	}
	sort.Strings(names)
	for _, bk := range names {
		bsum, err := summarize(perBackend[bk])
		if err != nil {
			continue
		}
		fmt.Fprintf(out, "backend %s: steps %d  p50 %v  p99 %v  max %v\n",
			bk, bsum.n(), bsum.q(0.50).Round(time.Microsecond),
			bsum.q(0.99).Round(time.Microsecond), bsum.max().Round(time.Microsecond))
	}

	if cpu := benchfmt.HostCPU(); cpu != "" {
		fmt.Fprintf(out, "cpu: %s\n", cpu)
	}
	fmt.Fprintf(out, "BenchmarkClusterStepLatencyP50 \t%d\t%d ns/op\n", steps, sum.q(0.50).Nanoseconds())
	fmt.Fprintf(out, "BenchmarkClusterStepLatencyP99 \t%d\t%d ns/op\n", steps, sum.q(0.99).Nanoseconds())
	fmt.Fprintf(out, "BenchmarkClusterThroughput \t%d\t%d ns/op\t%.2f jobs/sec\n",
		steps, wall.Nanoseconds()/int64(steps), throughput)
	if o.killAfter > 0 {
		// Chaos drill metrics, all gateable by benchdiff: recovery time for
		// the SIGKILLed backend (kill → healthz "ready" again), the parked-
		// request latency p99 from the gateway's histogram, and the gateway's
		// retry total (a count, reported in the ns/op slot so the gate's
		// tolerance applies to it too).
		fmt.Fprintf(out, "BenchmarkClusterRecovery \t1\t%d ns/op\n", ctl.recoveryTime().Nanoseconds())
		fmt.Fprintf(out, "BenchmarkClusterParkLatencyP99 \t1\t%d ns/op\n", gwStats.parkP99.Nanoseconds())
		fmt.Fprintf(out, "BenchmarkClusterRetries \t1\t%d ns/op\n", gwStats.retries)
	}

	if o.benchJSON != "" {
		schema := "bench-cluster/v1"
		base := map[string]benchfmt.Measurement{
			"BenchmarkClusterStepLatencyP50": {NsPerOp: float64(sum.q(0.50).Nanoseconds())},
			"BenchmarkClusterStepLatencyP99": {NsPerOp: float64(sum.q(0.99).Nanoseconds())},
			"BenchmarkClusterThroughput": {
				NsPerOp:    float64(wall.Nanoseconds() / int64(steps)),
				JobsPerSec: throughput,
			},
		}
		if o.killAfter > 0 {
			schema = "bench-chaos/v1"
			base["BenchmarkClusterRecovery"] = benchfmt.Measurement{NsPerOp: float64(ctl.recoveryTime().Nanoseconds())}
			base["BenchmarkClusterParkLatencyP99"] = benchfmt.Measurement{NsPerOp: float64(gwStats.parkP99.Nanoseconds())}
			base["BenchmarkClusterRetries"] = benchfmt.Measurement{NsPerOp: float64(gwStats.retries)}
		}
		b := benchfmt.Baseline{
			Schema:   schema,
			Recorded: time.Now().Format("2006-01-02"),
			CPU:      benchfmt.HostCPU(),
			Note:     o.note,
			Baseline: base,
		}
		if err := b.Write(o.benchJSON); err != nil {
			return err
		}
		fmt.Fprintf(out, "cdpfload: baseline written to %s\n", o.benchJSON)
	}
	return nil
}

// clusterProc is one spawned process (backend or gateway).
type clusterProc struct {
	name     string
	addrFile string
	cmd      *exec.Cmd
	base     string
}

// clusterCtl owns the spawned fleet: N backends plus the gateway, and — when
// -chaos is set — one fault-injecting proxy per backend sitting between the
// gateway and that backend.
type clusterCtl struct {
	daemonArgv []string
	gwArgv     []string
	dir        string
	backends   []*clusterProc
	gw         *clusterProc

	chaosSched *chaos.Schedule
	chaosSeed  uint64
	proxies    []*chaos.Proxy

	mu       sync.Mutex
	err      error
	drained  string
	migrated int
	killed   string
	recovery time.Duration
}

func newClusterCtl(daemonCmd, gatewayCmd string, n int, dir string) (*clusterCtl, error) {
	daemonArgv := strings.Fields(daemonCmd)
	gwArgv := strings.Fields(gatewayCmd)
	if len(daemonArgv) == 0 || len(gwArgv) == 0 {
		return nil, fmt.Errorf("empty -daemon or -gateway command")
	}
	c := &clusterCtl{daemonArgv: daemonArgv, gwArgv: gwArgv, dir: dir}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("b%d", i)
		c.backends = append(c.backends, &clusterProc{
			name:     name,
			addrFile: filepath.Join(dir, name+".addr"),
		})
	}
	c.gw = &clusterProc{name: "gateway", addrFile: filepath.Join(dir, "gw.addr")}
	return c, nil
}

// start boots every backend (each with its own durability directory and a
// drain-linger window so SIGTERM leaves time to evacuate), then the gateway
// pointed at all of them, and waits for the gateway to report ready.
func (c *clusterCtl) start(ctx context.Context) error {
	var ringArg []string
	for i, p := range c.backends {
		argv := append(append([]string(nil), c.daemonArgv...),
			"-addr", "127.0.0.1:0",
			"-addr-file", p.addrFile,
			"-data-dir", filepath.Join(c.dir, p.name+"-data"),
			"-drain-linger", "30s")
		if err := c.spawn(ctx, p, argv); err != nil {
			return err
		}
		route := strings.TrimPrefix(p.base, "http://")
		if c.chaosSched != nil {
			// The gateway routes to the proxy; readiness checks and the kill
			// supervisor keep talking to the backend directly.
			px, err := chaos.Start(chaos.Config{
				Target:   route,
				Seed:     c.chaosSeed + uint64(i),
				Schedule: *c.chaosSched,
			})
			if err != nil {
				return fmt.Errorf("chaos proxy for %s: %w", p.name, err)
			}
			c.proxies = append(c.proxies, px)
			route = px.Addr()
		}
		ringArg = append(ringArg, p.name+"="+route)
	}
	argv := append(append([]string(nil), c.gwArgv...),
		"-addr", "127.0.0.1:0",
		"-addr-file", c.gw.addrFile,
		"-probe-every", "100ms",
		"-backends", strings.Join(ringArg, ","))
	return c.spawn(ctx, c.gw, argv)
}

// spawn starts one process and waits for its addr-file plus a ready healthz.
func (c *clusterCtl) spawn(ctx context.Context, p *clusterProc, argv []string) error {
	os.Remove(p.addrFile)
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", p.name, err)
	}
	p.cmd = cmd
	deadline := time.Now().Add(60 * time.Second)
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became ready", p.name)
		}
		if base, ok := readyBase(p.addrFile); ok {
			p.base = base
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// gatewayURL is the drive target; it never changes (only backends come and
// go behind it).
func (c *clusterCtl) gatewayURL() string { return c.gw.base }

// awaitReady waits for the gateway to answer ready — the cluster-mode
// recoverer hook driveSession uses after a transient failure (typically the
// SSE stream cut when a session's backend was evacuated under it).
func (c *clusterCtl) awaitReady(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if err := c.failed(); err != nil {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway not ready within %v", timeout)
		}
		if _, ok := readyBase(c.gw.addrFile); ok {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// drainBusiest picks the backend holding the most sessions (gateway census,
// ties broken by name for determinism), evacuates it through the gateway,
// then SIGTERMs it and requires a clean exit — the full decommissioning
// drill, mid-load.
func (c *clusterCtl) drainBusiest(ctx context.Context) {
	name, err := c.busiestBackend(ctx)
	if err != nil {
		c.setErr(fmt.Errorf("choosing drain victim: %w", err))
		return
	}
	fmt.Fprintf(os.Stderr, "cdpfload: draining busiest backend %s mid-run\n", name)
	moved, err := c.migrateViaGateway(ctx, name)
	if err != nil {
		c.setErr(fmt.Errorf("evacuating %s: %w", name, err))
		return
	}
	c.mu.Lock()
	c.drained, c.migrated = name, moved
	c.mu.Unlock()

	var victim *clusterProc
	for _, p := range c.backends {
		if p.name == name {
			victim = p
			break
		}
	}
	if victim == nil || victim.cmd == nil {
		c.setErr(fmt.Errorf("drain victim %s has no process", name))
		return
	}
	if err := victim.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.setErr(fmt.Errorf("SIGTERM %s: %w", name, err))
		return
	}
	done := make(chan error, 1)
	go func() { done <- victim.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			c.setErr(fmt.Errorf("drained backend %s exited uncleanly: %w", name, err))
			return
		}
		fmt.Fprintf(os.Stderr, "cdpfload: backend %s exited 0 after evacuating %d sessions\n", name, moved)
	case <-time.After(60 * time.Second):
		victim.cmd.Process.Kill()
		c.setErr(fmt.Errorf("drained backend %s did not exit within 60s", name))
	}
}

// killBusiest is the crash drill behind -kill-after: SIGKILL the backend
// holding the most sessions — no drain, no evacuation, in-flight batches die
// in kernel buffers — then relaunch it on the same data directory AND the
// same address (the gateway's ring, and any chaos proxy, still point there).
// spawn waits for healthz to answer "ready", which a recovering daemon only
// does after WAL replay finishes, so the measured duration is the full
// crash-recovery window the gateway had to park through.
func (c *clusterCtl) killBusiest(ctx context.Context) {
	name, err := c.busiestBackend(ctx)
	if err != nil {
		c.setErr(fmt.Errorf("choosing kill victim: %w", err))
		return
	}
	var victim *clusterProc
	for _, p := range c.backends {
		if p.name == name {
			victim = p
			break
		}
	}
	if victim == nil || victim.cmd == nil || victim.cmd.Process == nil {
		c.setErr(fmt.Errorf("kill victim %s has no process", name))
		return
	}
	addr := strings.TrimPrefix(victim.base, "http://")
	fmt.Fprintf(os.Stderr, "cdpfload: kill -9 on busiest backend %s (%s), relaunching on its data dir\n", name, addr)
	start := time.Now()
	victim.cmd.Process.Kill()
	victim.cmd.Wait()
	argv := append(append([]string(nil), c.daemonArgv...),
		"-addr", addr,
		"-addr-file", victim.addrFile,
		"-data-dir", filepath.Join(c.dir, victim.name+"-data"),
		"-drain-linger", "30s")
	if err := c.spawn(ctx, victim, argv); err != nil {
		c.setErr(fmt.Errorf("relaunching killed backend %s: %w", name, err))
		return
	}
	d := time.Since(start)
	c.mu.Lock()
	c.killed, c.recovery = name, d
	c.mu.Unlock()
	fmt.Fprintf(os.Stderr, "cdpfload: backend %s back at %s, recovered in %v\n", name, addr, d.Round(time.Millisecond))
}

// busiestBackend polls the gateway's /cluster census until some backend
// reports a live session, and returns the one reporting the most. A single
// census is not enough: a backend whose probe timed out reads -1 and a
// loaded host can serve a stale count, so the drill could pick a backend
// that served no session.
func (c *clusterCtl) busiestBackend(ctx context.Context) (string, error) {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.gw.base+"/cluster", nil)
		if err != nil {
			return "", err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return "", err
		}
		var info struct {
			Sessions map[string]int `json:"sessions_per_backend"`
		}
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			return "", err
		}
		best, bestN := "", -1
		names := make([]string, 0, len(info.Sessions))
		for name := range info.Sessions {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if n := info.Sessions[name]; n > bestN {
				best, bestN = name, n
			}
		}
		if best == "" {
			return "", fmt.Errorf("empty census from /cluster")
		}
		if bestN > 0 {
			return best, nil
		}
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// migrateViaGateway POSTs the explicit evacuation and returns how many
// sessions moved.
func (c *clusterCtl) migrateViaGateway(ctx context.Context, name string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.gw.base+"/admin/migrate?backend="+name, nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var rep struct {
		Moved  map[string]string `json:"moved"`
		Errors []string          `json:"errors"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return 0, err
	}
	if len(rep.Errors) > 0 {
		return len(rep.Moved), fmt.Errorf("migration errors: %s", strings.Join(rep.Errors, "; "))
	}
	return len(rep.Moved), nil
}

func (c *clusterCtl) setErr(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

func (c *clusterCtl) failed() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *clusterCtl) drainedName() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.drained
}

func (c *clusterCtl) migratedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.migrated
}

func (c *clusterCtl) killedName() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.killed
}

// recoveryTime is how long the killed backend took from SIGKILL to healthz
// "ready" again (zero until killBusiest completes).
func (c *clusterCtl) recoveryTime() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recovery
}

// faultTotals aggregates injected-fault counts across every chaos proxy.
func (c *clusterCtl) faultTotals() map[chaos.Kind]uint64 {
	out := make(map[chaos.Kind]uint64)
	for _, px := range c.proxies {
		for k, n := range px.FaultCounts() {
			out[k] += n
		}
	}
	return out
}

func formatFaultTotals(t map[chaos.Kind]uint64) string {
	if len(t) == 0 {
		return "none"
	}
	kinds := make([]string, 0, len(t))
	for k := range t {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s=%d", k, t[chaos.Kind(k)]))
	}
	return strings.Join(parts, " ")
}

// stopAll shuts the gateway down first (no new routing), then every backend
// that is still running.
func (c *clusterCtl) stopAll() {
	procs := append([]*clusterProc{c.gw}, c.backends...)
	for _, p := range procs {
		if p == nil || p.cmd == nil || p.cmd.Process == nil {
			continue
		}
		name := c.drainedName()
		if p.name == name {
			continue // already reaped by drainBusiest
		}
		p.cmd.Process.Signal(os.Interrupt)
	}
	for _, p := range procs {
		if p == nil || p.cmd == nil || p.cmd.Process == nil || p.name == c.drainedName() {
			continue
		}
		done := make(chan error, 1)
		go func(p *clusterProc) { done <- p.cmd.Wait() }(p)
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	}
	for _, px := range c.proxies {
		px.Close()
	}
}

// gatewayStats is the slice of the gateway's /metrics the chaos drill
// reports: total routing retries and the parked-request latency p99.
type gatewayStats struct {
	retries int64
	parkP99 time.Duration
}

// scrapeGatewayStats pulls /metrics and extracts cdpfgw_route_retries_total plus
// the p99 of the cdpfgw_park_latency_seconds histogram (the bucket upper
// bound containing the 99th percentile; zero when nothing was ever parked).
func scrapeGatewayStats(base string) (gatewayStats, error) {
	var gs gatewayStats
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return gs, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return gs, err
	}
	if resp.StatusCode != http.StatusOK {
		return gs, fmt.Errorf("metrics scrape: HTTP %d", resp.StatusCode)
	}
	type bucket struct {
		le  float64
		cum uint64
	}
	var buckets []bucket
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "cdpfgw_route_retries_total "); ok {
			if n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64); err == nil {
				gs.retries = n
			}
			continue
		}
		rest, ok := strings.CutPrefix(line, `cdpfgw_park_latency_seconds_bucket{le="`)
		if !ok {
			continue
		}
		leStr, cntStr, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		le := math.Inf(1)
		if leStr != "+Inf" {
			f, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				continue
			}
			le = f
		}
		cnt, err := strconv.ParseUint(strings.TrimSpace(cntStr), 10, 64)
		if err != nil {
			continue
		}
		buckets = append(buckets, bucket{le, cnt})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	n := len(buckets)
	if n == 0 || buckets[n-1].cum == 0 {
		return gs, nil
	}
	rank := uint64(math.Ceil(0.99 * float64(buckets[n-1].cum)))
	for i, b := range buckets {
		if b.cum < rank {
			continue
		}
		sec := b.le
		if math.IsInf(sec, 1) && i > 0 {
			sec = buckets[i-1].le // overflow bucket: report the largest finite bound
		}
		if !math.IsInf(sec, 1) {
			gs.parkP99 = time.Duration(sec * float64(time.Second))
		}
		break
	}
	return gs, nil
}
