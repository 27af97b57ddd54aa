package gateway

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ring"
	"repro/internal/serve"
)

// TestParkRidesThroughRecovery is the crash-recovery-window contract in
// miniature: a backend enters its recovering phase (503 "recovering" on /v1,
// ring health Recovering), requests for its sessions park instead of
// failing, and when the backend comes back they complete — zero client-
// visible errors, just latency.
func TestParkRidesThroughRecovery(t *testing.T) {
	tc := newTestClusterCfg(t, 2, func(g *Gateway) {
		g.parkTimeout = 5 * time.Second
	})
	spec := testSpec("park-1", 4, 11)
	_, owner := tc.create(spec)
	batches, err := serve.Observations(spec)
	if err != nil {
		t.Fatal(err)
	}
	tc.feed(spec.ID, batches[0])

	// The owner crashes and comes back recovering: /v1 and /admin gated
	// behind 503 "recovering", ring sees Recovering.
	tc.srvs[owner].SetRecovering(true)
	tc.gw.Ring().SetHealth(owner, ring.Recovering, "")

	var wg sync.WaitGroup
	errs := make(chan error, len(batches))
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, b := range batches[1:] {
			if err := tc.tryFeed(spec.ID, b); err != nil {
				errs <- err
				return
			}
		}
	}()

	// Recovery completes while the feed is parked.
	time.Sleep(150 * time.Millisecond)
	tc.srvs[owner].SetRecovering(false)
	tc.gw.Ring().SetHealth(owner, ring.Ready, "")
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("feed through recovery window failed: %v", err)
	}

	if got := len(tc.records(spec.ID)); got != len(batches) {
		t.Fatalf("session finished with %d records, want %d", got, len(batches))
	}
	if tc.gw.met.parked.Load() == 0 {
		t.Fatal("no request parked during the recovery window")
	}
	if tc.gw.met.parkTimeouts.Load() != 0 {
		t.Fatalf("%d parks timed out in a healthy drill", tc.gw.met.parkTimeouts.Load())
	}
	if q := tc.gw.met.parkQuantile(0.5); math.IsNaN(q) {
		t.Fatal("park latency histogram recorded nothing")
	}
}

// TestParkTimesOutEventually: if the fleet never heals, parked requests fail
// after parkTimeout with a 5xx — bounded patience, not a hang.
func TestParkTimesOutEventually(t *testing.T) {
	tc := newTestClusterCfg(t, 2, func(g *Gateway) {
		g.parkTimeout = 200 * time.Millisecond
		g.route = retryConfig{passes: 2, base: 10 * time.Millisecond, max: 20 * time.Millisecond}
	})
	spec := testSpec("park-timeout-1", 4, 3)
	_, owner := tc.create(spec)
	tc.srvs[owner].SetRecovering(true)
	tc.gw.Ring().SetHealth(owner, ring.Recovering, "")

	start := time.Now()
	err := tc.tryFeed(spec.ID, serve.Batch{K: 1})
	waited := time.Since(start)
	if err == nil {
		t.Fatal("feed succeeded against a permanently recovering owner")
	}
	if !strings.Contains(err.Error(), "503") {
		t.Fatalf("expected a 503 after park timeout, got: %v", err)
	}
	if waited < 200*time.Millisecond {
		t.Fatalf("gave up after %v, before the 200ms park timeout", waited)
	}
	if tc.gw.met.parkTimeouts.Load() == 0 {
		t.Fatal("park timeout not counted")
	}
}

// TestRetryable503Classification pins the boundary between phase 503s the
// chain routes around and backpressure 503s the client must see.
func TestRetryable503Classification(t *testing.T) {
	retryable := []string{
		`{"error":"recovering: replaying session logs","request_id":"r1"}`,
		`{"error":"server is draining","request_id":"r1"}`,
		"recovering",
		"draining",
	}
	for _, body := range retryable {
		if !retryable503([]byte(body)) {
			t.Fatalf("phase body not classified retryable: %s", body)
		}
	}
	final := []string{
		`{"error":"shard 1 queue full (64 of 64)","request_id":"r1"}`,
		`{"error":"session \"recovering-sim\" queue full (9 queued, budget 8)"}`,
		`{"error":"no live session \"draining-test\""}`,
		"",
		"some proxy error page",
	}
	for _, body := range final {
		if retryable503([]byte(body)) {
			t.Fatalf("backpressure body misclassified as retryable: %s", body)
		}
	}
}
