package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/ring"
)

// TestBreakerStateMachine walks closed → open → half-open → closed and the
// half-open failure re-open, with a short cooldown.
func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker()
	b.failures, b.cooldown = 3, 20*time.Millisecond
	if !b.allow() || b.current() != breakerClosed {
		t.Fatal("new breaker should be closed and admitting")
	}
	// Two failures: still closed (threshold 3).
	b.fail()
	b.fail()
	if b.current() != breakerClosed || !b.allow() {
		t.Fatalf("2/3 failures opened the breaker (state %v)", b.current())
	}
	// A success resets the streak.
	b.succeed()
	b.fail()
	b.fail()
	if b.current() != breakerClosed {
		t.Fatal("success did not reset the failure streak")
	}
	// Third consecutive failure opens.
	b.fail()
	if b.current() != breakerOpen {
		t.Fatalf("3 consecutive failures left the breaker %v", b.current())
	}
	if b.allow() {
		t.Fatal("open breaker admitted an attempt inside its cooldown")
	}
	if n := b.opens.Load(); n != 1 {
		t.Fatalf("opens counter = %d, want 1", n)
	}
	// After the cooldown exactly one half-open probe is admitted.
	time.Sleep(25 * time.Millisecond)
	if !b.allow() {
		t.Fatal("breaker did not half-open after cooldown")
	}
	if b.current() != breakerHalfOpen {
		t.Fatalf("post-cooldown state %v, want half-open", b.current())
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// Probe fails: re-open, wait again, probe succeeds: closed.
	b.fail()
	if b.current() != breakerOpen {
		t.Fatalf("failed half-open probe left state %v", b.current())
	}
	time.Sleep(25 * time.Millisecond)
	if !b.allow() {
		t.Fatal("breaker did not half-open after second cooldown")
	}
	b.succeed()
	if b.current() != breakerClosed || !b.allow() {
		t.Fatalf("successful probe left state %v", b.current())
	}
	// reset() force-closes from any state.
	b.fail()
	b.fail()
	b.fail()
	b.reset()
	if b.current() != breakerClosed || !b.allow() {
		t.Fatal("reset did not close the breaker")
	}
}

// TestRetryBackoffBounds: full jitter stays in [0, min(max, base·2ⁿ)] and
// is not constant.
func TestRetryBackoffBounds(t *testing.T) {
	rc := retryConfig{passes: 4, base: 10 * time.Millisecond, max: 40 * time.Millisecond}
	ceilings := []time.Duration{10, 20, 40, 40, 40} // ms, per pass
	distinct := make(map[time.Duration]bool)
	for pass, ceilMs := range ceilings {
		ceil := ceilMs * time.Millisecond
		for i := 0; i < 100; i++ {
			d := rc.backoff(pass)
			if d < 0 || d > ceil {
				t.Fatalf("backoff(pass=%d) = %v outside [0, %v]", pass, d, ceil)
			}
			distinct[d] = true
		}
	}
	if len(distinct) < 10 {
		t.Fatalf("full jitter produced only %d distinct delays", len(distinct))
	}
}

// TestBreakerShieldsDeadBackend: with one backend's listener closed, the
// gateway keeps serving (fallthrough), the dead backend's breaker opens
// after the failure threshold, and skipped attempts show up in /metrics and
// /cluster. No client request fails.
func TestBreakerShieldsDeadBackend(t *testing.T) {
	tc := newTestClusterCfg(t, 3, func(g *Gateway) {
		for _, br := range g.breakers {
			br.failures, br.cooldown = 3, 10*time.Second
		}
		g.parkTimeout = 300 * time.Millisecond // don't stall the test parking
	})
	// Kill b2's listener: conn refused, the crash the prober hasn't seen yet.
	dead := "b2"
	tc.https[dead].Close()

	br := tc.gw.breakerFor(dead)
	for i := 0; i < 40 && br.current() != breakerOpen; i++ {
		spec := testSpec(fmt.Sprintf("brk-%d", i), 4, uint64(i+1))
		tc.create(spec) // must succeed despite the dead backend
		if _, _, status := tc.info(spec.ID); status != http.StatusOK {
			t.Fatalf("info %s: HTTP %d with a dead backend in the ring", spec.ID, status)
		}
	}
	if br.current() != breakerOpen {
		t.Fatalf("dead backend's breaker is %v after 40 rounds, want open", br.current())
	}
	if tc.gw.met.breakerSkips.Load() == 0 {
		t.Fatal("open breaker never skipped an attempt")
	}

	resp, err := http.Get(tc.gwSrv.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info struct {
		Breakers map[string]string `json:"breakers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Breakers[dead] != "open" {
		t.Fatalf("/cluster breakers = %v, want %s open", info.Breakers, dead)
	}
}

// TestNoteHealthResetsBreaker: a prober-confirmed Ready closes the breaker
// without waiting out the cooldown.
func TestNoteHealthResetsBreaker(t *testing.T) {
	tc := newTestCluster(t, 2)
	br := tc.gw.breakerFor("b0")
	for i := 0; i < 5; i++ {
		br.fail()
	}
	if br.current() != breakerOpen {
		t.Fatalf("breaker state %v, want open", br.current())
	}
	tc.gw.NoteHealth("b0", ring.Down, ring.Ready)
	if br.current() != breakerClosed {
		t.Fatal("NoteHealth(Ready) did not close the breaker")
	}
}
