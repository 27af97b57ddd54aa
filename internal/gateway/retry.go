package gateway

import (
	"math/rand"
	"time"
)

// retryConfig is a bounded retry budget with exponential backoff and full
// jitter: attempt pass n sleeps a uniform random duration in
// [0, min(max, base·2ⁿ)]. Full jitter (rather than equal or decorrelated)
// because the gateway's retries are driven by fleet-wide events — a backend
// crash makes every in-flight request retry at once, and spreading them over
// the whole window avoids a synchronized thundering herd at the recovering
// backend.
type retryConfig struct {
	passes int           // route-chain passes before giving up
	base   time.Duration // first backoff ceiling
	max    time.Duration // backoff ceiling cap
}

// backoff returns the sleep before pass+1 (pass is 0-based).
func (rc retryConfig) backoff(pass int) time.Duration {
	ceil := rc.base
	for i := 0; i < pass && ceil < rc.max; i++ {
		ceil *= 2
	}
	if ceil > rc.max {
		ceil = rc.max
	}
	if ceil <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(int64(ceil) + 1))
}
