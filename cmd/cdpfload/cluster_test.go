package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/chaos"
)

// buildBinary compiles one of the repo's commands into dir.
func buildBinary(t *testing.T, dir, name, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// TestClusterCrashByteIdentity is the chaos tier's headline drill: a
// 3-backend cluster behind the gateway, the busiest backend SIGKILLed
// mid-run with nothing evacuated, relaunched by the supervisor on its own
// data directory at the same address. The run fails inside runCluster unless
// WAL recovery brought every session back, the gateway parked (rather than
// 502d) the victim's traffic — zero client-visible 5xx for its sessions —
// and every trace, crash-spanning or not, is byte-identical to its offline
// twin (-verify).
func TestClusterCrashByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a process fleet; skipped in -short")
	}
	dir := t.TempDir()
	cdpfd := buildBinary(t, dir, "cdpfd", "repro/cmd/cdpfd")
	cdpfgw := buildBinary(t, dir, "cdpfgw", "repro/cmd/cdpfgw")

	o := options{
		sessions:   6,
		steps:      10,
		density:    10,
		seed:       11,
		window:     2,
		verify:     true,
		stepWait:   30 * time.Second,
		cluster:    3,
		daemon:     cdpfd + " -fsync interval -snapshot-every 4 -shards 2",
		gatewayCmd: cdpfgw + " -probe-every 100ms",
		killAfter:  20,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	var buf bytes.Buffer
	if err := run(ctx, o, &buf); err != nil {
		t.Fatalf("cluster crash drill: %v\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"killed b", // which backend varies with session placement
		"recovered in",
		"zero client-visible 5xx",
		"BenchmarkClusterRecovery",
		"BenchmarkClusterParkLatencyP99",
		"BenchmarkClusterRetries",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The chaos bench block must round-trip through the benchdiff parser.
	ms, _, err := benchfmt.ParseBench(strings.NewReader(out))
	if err != nil {
		t.Fatalf("bench text unparseable: %v", err)
	}
	if ms["BenchmarkClusterRecovery"].NsPerOp <= 0 {
		t.Errorf("recovery time not reported: %+v", ms)
	}
}

func TestClusterFlagValidation(t *testing.T) {
	ctx := context.Background()
	base := options{sessions: 2, steps: 2, density: 10, seed: 1, window: 1,
		cluster: 3, daemon: "cdpfd", gatewayCmd: "cdpfgw"}

	both := base
	both.drainAfter, both.killAfter = 3, 3
	if err := run(ctx, both, io.Discard); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("drain+kill accepted: %v", err)
	}

	high := base
	high.killAfter = 100 // >= sessions*(steps+1)
	if err := run(ctx, high, io.Discard); err == nil || !strings.Contains(err.Error(), "must be below") {
		t.Errorf("oversized -kill-after accepted: %v", err)
	}

	badSched := base
	badSched.chaos = "latency/delay=oops"
	if err := run(ctx, badSched, io.Discard); err == nil || !strings.Contains(err.Error(), "-chaos") {
		t.Errorf("bad -chaos schedule accepted: %v", err)
	}

	solo := options{sessions: 2, steps: 2, density: 10, seed: 1, window: 1, killAfter: 3}
	if err := run(ctx, solo, io.Discard); err == nil || !strings.Contains(err.Error(), "-cluster") {
		t.Errorf("-kill-after without -cluster accepted: %v", err)
	}
}

func TestScrapeGatewayStats(t *testing.T) {
	body := strings.Join([]string{
		`# HELP cdpfgw_route_retries_total retried proxy attempts`,
		`cdpfgw_route_retries_total 17`,
		`cdpfgw_park_latency_seconds_bucket{le="0.0001"} 0`,
		`cdpfgw_park_latency_seconds_bucket{le="0.1024"} 3`,
		`cdpfgw_park_latency_seconds_bucket{le="0.2048"} 9`,
		`cdpfgw_park_latency_seconds_bucket{le="+Inf"} 10`,
		`cdpfgw_park_latency_seconds_count 10`,
	}, "\n")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(body))
	}))
	defer ts.Close()
	gs, err := scrapeGatewayStats(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if gs.retries != 17 {
		t.Errorf("retries = %d, want 17", gs.retries)
	}
	// rank = ceil(0.99*10) = 10, which lands in +Inf; the largest finite
	// bound is reported instead.
	if want := time.Duration(0.2048 * float64(time.Second)); gs.parkP99 != want {
		t.Errorf("parkP99 = %v, want %v", gs.parkP99, want)
	}
}

func TestScrapeGatewayStatsEmptyHistogram(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("cdpfgw_route_retries_total 0\ncdpfgw_park_latency_seconds_bucket{le=\"+Inf\"} 0\n"))
	}))
	defer ts.Close()
	gs, err := scrapeGatewayStats(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if gs.retries != 0 || gs.parkP99 != 0 {
		t.Errorf("empty scrape produced %+v", gs)
	}
}

func TestFormatFaultTotals(t *testing.T) {
	if got := formatFaultTotals(nil); got != "none" {
		t.Errorf("empty totals formatted as %q", got)
	}
	got := formatFaultTotals(map[chaos.Kind]uint64{
		chaos.KindReset:   3,
		chaos.KindLatency: 7,
	})
	if got != "latency=7 reset=3" {
		t.Errorf("totals formatted as %q", got)
	}
}
