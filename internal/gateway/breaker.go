package gateway

import (
	"sync"
	"sync/atomic"
	"time"
)

// breaker is a per-backend circuit breaker over *connection-level* failures
// only — an HTTP response of any status is proof the backend is alive and
// counts as success. Closed admits everything; after failures consecutive
// failures it opens and the backend is skipped in route chains; after
// cooldown one half-open probe is admitted, and its outcome closes or
// re-opens the breaker.
type breaker struct {
	// failures and cooldown start at breakerFailures and breakerCooldown;
	// tests shorten them.
	failures int
	cooldown time.Duration

	mu       sync.Mutex
	state    breakerState
	fails    int
	openedAt time.Time
	probing  bool // a half-open probe is in flight

	opens atomic.Int64 // closed→open transitions, for /metrics
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

func newBreaker() *breaker {
	return &breaker{failures: breakerFailures, cooldown: breakerCooldown}
}

// allow reports whether an attempt may be sent to this backend now. In the
// half-open state only a single probe is admitted at a time.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// succeed records an attempt that reached the backend (any HTTP status).
func (b *breaker) succeed() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.fails = 0
	b.probing = false
}

// fail records a connection-level failure.
func (b *breaker) fail() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.state = breakerOpen
		b.openedAt = time.Now()
		b.probing = false
		b.fails = b.failures
		b.opens.Add(1)
		return
	}
	b.fails++
	if b.state == breakerClosed && b.fails >= b.failures {
		b.state = breakerOpen
		b.openedAt = time.Now()
		b.opens.Add(1)
	}
}

// reset force-closes the breaker — wired to the prober's transition to
// Ready, which is independent evidence the backend is healthy again.
func (b *breaker) reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.fails = 0
	b.probing = false
}

// current returns the state for /cluster and /metrics.
func (b *breaker) current() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	// An open breaker past its cooldown is morally half-open; report the
	// stored state anyway — the transition happens on the next allow().
	return b.state
}
