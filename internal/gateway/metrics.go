package gateway

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// metrics is the gateway's own instrumentation (atomics; Prometheus text on
// /metrics alongside the aggregated backend section).
type metrics struct {
	requests         atomic.Int64 // session-scoped requests routed
	retries          atomic.Int64 // fallback attempts past the first backend
	retryExhausted   atomic.Int64 // requests that burned the whole retry budget
	noBackend        atomic.Int64 // requests that exhausted the chain
	holds            atomic.Int64 // requests parked behind an in-flight handoff
	migrations       atomic.Int64 // backend evacuations started
	migratedSessions atomic.Int64 // sessions successfully re-homed
	breakerSkips     atomic.Int64 // attempts skipped because a breaker was open
	parked           atomic.Int64 // requests that parked on an unsettled ring
	parkTimeouts     atomic.Int64 // parks that expired without the fleet healing
	streamAborts     atomic.Int64 // SSE welds aborted after a backend-side cut

	parkMu   sync.Mutex
	parkHist serve.Histogram // same buckets as cdpfd's step latency
}

// observePark records how long a parked request waited before succeeding.
func (m *metrics) observePark(d time.Duration) {
	m.parkMu.Lock()
	m.parkHist.Observe(d.Seconds())
	m.parkMu.Unlock()
}

// parkQuantile estimates a park-latency quantile; NaN with no observations.
func (m *metrics) parkQuantile(q float64) float64 {
	m.parkMu.Lock()
	defer m.parkMu.Unlock()
	return m.parkHist.Quantile(q)
}

// handleMetrics writes the gateway's own counters, then the fleet's metrics
// summed across backends: every non-comment line of each reachable backend's
// /metrics is parsed as `name{labels} value` and values are added per key.
// Counters and gauge totals aggregate meaningfully; the summed histogram is
// the fleet-wide latency distribution.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
		fmt.Fprintf(w, "# TYPE %s counter\n", name)
		fmt.Fprintf(w, "%s %d\n", name, v)
	}
	counter("cdpfgw_requests_total", "Session-scoped requests routed through the gateway.", g.met.requests.Load())
	counter("cdpfgw_route_retries_total", "Fallback attempts past the first backend in the chain.", g.met.retries.Load())
	counter("cdpfgw_retry_exhausted_total", "Requests that burned the whole retry budget without an authoritative answer.", g.met.retryExhausted.Load())
	counter("cdpfgw_no_backend_total", "Requests that exhausted every backend in the chain.", g.met.noBackend.Load())
	counter("cdpfgw_migration_holds_total", "Requests parked behind an in-flight session handoff.", g.met.holds.Load())
	counter("cdpfgw_migrations_total", "Backend evacuations started.", g.met.migrations.Load())
	counter("cdpfgw_migrated_sessions_total", "Sessions successfully re-homed by migration.", g.met.migratedSessions.Load())
	counter("cdpfgw_breaker_skips_total", "Route attempts skipped because the backend's breaker was open.", g.met.breakerSkips.Load())
	counter("cdpfgw_parked_requests_total", "Requests that parked while the ring was unsettled.", g.met.parked.Load())
	counter("cdpfgw_park_timeouts_total", "Parked requests that timed out before the fleet healed.", g.met.parkTimeouts.Load())
	counter("cdpfgw_stream_aborts_total", "SSE streams aborted after a backend-side cut (client sees a reset, not a short stream).", g.met.streamAborts.Load())

	fmt.Fprintf(w, "# HELP cdpfgw_breaker_state Per-backend breaker state (0 closed, 1 open, 2 half-open).\n")
	fmt.Fprintf(w, "# TYPE cdpfgw_breaker_state gauge\n")
	names := make([]string, 0, len(g.breakers))
	for name := range g.breakers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "cdpfgw_breaker_state{backend=%q} %d\n", name, int(g.breakers[name].current()))
	}
	fmt.Fprintf(w, "# HELP cdpfgw_breaker_opens_total Closed-to-open breaker transitions per backend.\n")
	fmt.Fprintf(w, "# TYPE cdpfgw_breaker_opens_total counter\n")
	for _, name := range names {
		fmt.Fprintf(w, "cdpfgw_breaker_opens_total{backend=%q} %d\n", name, g.breakers[name].opens.Load())
	}

	fmt.Fprintf(w, "# HELP cdpfgw_park_latency_seconds Time parked requests waited before succeeding.\n")
	fmt.Fprintf(w, "# TYPE cdpfgw_park_latency_seconds histogram\n")
	g.met.parkMu.Lock()
	hist := g.met.parkHist
	g.met.parkMu.Unlock()
	_ = hist.WritePrometheus(w, "cdpfgw_park_latency_seconds") // a failed write means the scraper hung up

	sums, scraped := g.scrapeBackends(r)
	fmt.Fprintf(w, "# Aggregated below: per-metric sums across %d reachable backend(s).\n", scraped)
	keys := make([]string, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %g\n", k, sums[k])
	}
}

// scrapeBackends polls every reachable backend's /metrics concurrently and
// sums sample values by `name{labels}` key.
func (g *Gateway) scrapeBackends(r *http.Request) (map[string]float64, int) {
	members := g.ring.Members()
	sums := make(map[string]float64)
	scraped := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, m := range members {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			local, err := scrapeOne(g.client, r, addr, g.scrapeTimeout)
			if err != nil {
				return
			}
			mu.Lock()
			scraped++
			for k, v := range local {
				sums[k] += v
			}
			mu.Unlock()
		}(m.Addr)
	}
	wg.Wait()
	return sums, scraped
}

// scrapeOne fetches one backend's exposition and parses it into key->value.
func scrapeOne(client *http.Client, r *http.Request, addr string, timeout time.Duration) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// `name{labels} value` — labels may contain spaces inside quotes, so
		// split at the last space.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] += v
	}
	return out, sc.Err()
}
