package wsn

// Unreliable links. The paper's motivating deployments run over lossy,
// duty-cycled radios ([13]); this file adds an optional per-receiver packet
// loss model so the tracking algorithms can be evaluated under unreliable
// communication (an uncertainty-tolerance extension).
//
// Two loss processes are available:
//
//   - iid: each (epoch, sender, receiver) delivery independently fails with
//     the configured probability (SetLossRate);
//   - bursty: a per-link Gilbert–Elliott two-state chain whose Bad state
//     drops everything for a geometrically distributed number of epochs
//     (SetBurstLoss; see burst.go) — the failure pattern real radios show
//     under fading and interference.
//
// Loss draws are deterministic functions of (epoch, sender, receiver, seed):
// within one epoch every query about the same link returns the same answer,
// so an algorithm that reasons twice about one broadcast stays consistent,
// and whole runs remain reproducible. Drivers advance the epoch once per
// filter iteration.

// lossMode selects the configured loss process.
type lossMode uint8

const (
	lossNone lossMode = iota
	lossIID
	lossBurst
)

// SetLossRate enables iid packet loss: each (sender, receiver) delivery
// within an epoch independently fails with probability rate. A rate of 0
// disables loss. It panics for rates outside [0, 1).
func (nw *Network) SetLossRate(rate float64, seed uint64) {
	if rate < 0 || rate >= 1 {
		panic("wsn: loss rate outside [0, 1)")
	}
	nw.lossRate = rate
	nw.lossSeed = seed
	nw.burst = nil
	nw.lossMode = lossIID
	if rate == 0 {
		nw.lossMode = lossNone
	}
}

// LossRate returns the configured packet loss probability (the stationary
// loss rate in burst mode).
func (nw *Network) LossRate() float64 { return nw.lossRate }

// NextEpoch advances the loss epoch; call once per filter iteration so each
// iteration's broadcasts see fresh, independent loss draws.
func (nw *Network) NextEpoch() { nw.lossEpoch++ }

// LossEpoch returns the current loss epoch, for checkpointing a run mid-way.
func (nw *Network) LossEpoch() uint64 { return nw.lossEpoch }

// SetLossEpoch jumps the loss process to the given epoch — checkpoint restore
// only. Loss draws are pure functions of (epoch, link, seed), and the bursty
// chain memo recomputes from epoch 0 on a cache miss, so jumping forward
// reproduces exactly the draws a step-by-step replay via NextEpoch would see.
func (nw *Network) SetLossEpoch(epoch uint64) { nw.lossEpoch = epoch }

// ResetLossEpoch rewinds the loss process to epoch 0 (and, in burst mode,
// discards the cached chain states), so a repeated run on the same
// deployment replays exactly the same loss draws. ResetStates calls this.
func (nw *Network) ResetLossEpoch() {
	nw.lossEpoch = 0
	if nw.burst != nil {
		nw.burst.reset()
	}
}

// LossFree reports whether no packet-loss process is configured, so every
// in-range delivery succeeds. Hot paths use it to select loss-free kernels
// (internal/kernel.OverheardSum) over the per-link Delivers queries.
func (nw *Network) LossFree() bool { return nw.lossMode == lossNone }

// Delivers reports whether a transmission from `from` reaches `to` in the
// current epoch, assuming geometry and node state already permit it. With
// no loss configured it is always true. Self-delivery never fails.
func (nw *Network) Delivers(from, to NodeID) bool {
	return nw.DeliversAttempt(from, to, 0)
}

// DeliversAttempt is Delivers for the attempt-th (re)transmission of the
// same payload within one epoch (attempt 0 is the original transmission).
//
// Under iid loss each attempt gets an independent draw — retransmissions
// buy time diversity, as on a real radio where fades are shorter than the
// retransmit spacing. Under bursty loss the Bad state outlasts any
// within-iteration retry, so every attempt on a Bad link fails: retries
// cannot ride out a burst, which is exactly the distinction the resilience
// experiments are after.
func (nw *Network) DeliversAttempt(from, to NodeID, attempt int) bool {
	switch nw.lossMode {
	case lossIID:
		if from == to {
			return true
		}
		x := linkHash(nw.lossEpoch, from, to, nw.lossSeed) ^
			uint64(attempt)*0xD6E8FEB86659FD93
		return hashUniform(x) >= nw.lossRate
	case lossBurst:
		if from == to {
			return true
		}
		return !nw.burst.bad(from, to, nw.lossEpoch)
	}
	return true
}

// linkHash mixes the link identity into a 64-bit value (splitmix64 finisher).
func linkHash(epoch uint64, from, to NodeID, seed uint64) uint64 {
	x := epoch*0x9E3779B97F4A7C15 ^
		uint64(from)*0xBF58476D1CE4E5B9 ^
		uint64(to)*0x94D049BB133111EB ^
		seed
	return mix64(x)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// hashUniform maps a 64-bit hash to a uniform in [0, 1).
func hashUniform(x uint64) float64 {
	return float64(mix64(x)>>11) * (1.0 / (1 << 53))
}

// ExpectedDeliveries returns the expected number of successful deliveries
// for n receivers under the configured loss rate (for tests and capacity
// estimates).
func (nw *Network) ExpectedDeliveries(n int) float64 {
	return float64(n) * (1 - nw.lossRate)
}
