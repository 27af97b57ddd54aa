package core

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/mathx"
	"repro/internal/statex"
	"repro/internal/wsn"
)

// runTrace is one full tracking run's complete observable output, with every
// float captured as raw bits so comparison is bit-exact, not tolerance-based.
type runTrace struct {
	estBits []uint64 // X/Y bits per iteration with a valid estimate
	holders []int
	created []int
	dropped []int
	weights []uint64 // final holder weights, ascending ID
	resil   ResilienceStats
	gated   int
	msgs    int64
	bytes   int64

	evictions, readmissions int
	quarantined             []wsn.NodeID
}

// traceRun drives one tracker over a deterministic moving-target scenario and
// captures everything the algorithm computes. Every call with the same
// (cfg, loss setup, liars) must produce identical traces. With liars set,
// every fifth node reports a bearing a quarter turn off the truth, so the
// quarantine defense evicts sharers mid-run.
func traceRun(t *testing.T, cfg Config, loss func(*wsn.Network), liars bool) runTrace {
	t.Helper()
	nw, err := wsn.NewNetwork(wsn.DefaultConfig(20), mathx.NewRNG(97))
	if err != nil {
		t.Fatal(err)
	}
	if loss != nil {
		loss(nw)
	}
	tr, err := NewTracker(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(98)
	target := mathx.V2(30, 60)
	var trace runTrace
	for k := 0; k < 12; k++ {
		det := nw.ActiveNodesWithin(target, nw.Cfg.SensingRadius)
		obs := make([]Observation, len(det))
		for i, id := range det {
			z := cfg.Sensor.Measure(nw.Node(id).Pos, target, rng)
			if liars && id%5 == 0 {
				z = mathx.WrapAngle(z + math.Pi/2)
			}
			obs[i] = Observation{Node: id, Bearing: z}
		}
		res := tr.Step(obs, rng)
		if res.EstimateValid {
			trace.estBits = append(trace.estBits,
				math.Float64bits(res.Estimate.X), math.Float64bits(res.Estimate.Y))
		}
		trace.holders = append(trace.holders, res.Holders)
		trace.created = append(trace.created, res.Created)
		trace.dropped = append(trace.dropped, res.Dropped)
		target = target.Add(mathx.V2(12, 6))
	}
	for _, id := range tr.Holders() {
		trace.weights = append(trace.weights, math.Float64bits(tr.Weight(id)))
	}
	trace.resil = tr.Resilience()
	trace.gated = tr.gated
	trace.msgs = nw.Stats.TotalMsgs()
	trace.bytes = nw.Stats.TotalBytes()
	q := tr.Quarantine()
	trace.evictions, trace.readmissions, trace.quarantined = q.Evictions, q.Readmissions, q.Quarantined
	return trace
}

func sameTrace(a, b runTrace) bool {
	if len(a.estBits) != len(b.estBits) || len(a.weights) != len(b.weights) ||
		a.gated != b.gated || a.msgs != b.msgs || a.bytes != b.bytes ||
		a.evictions != b.evictions || a.readmissions != b.readmissions ||
		!slices.Equal(a.quarantined, b.quarantined) {
		return false
	}
	for i := range a.estBits {
		if a.estBits[i] != b.estBits[i] {
			return false
		}
	}
	for i := range a.weights {
		if a.weights[i] != b.weights[i] {
			return false
		}
	}
	for i := range a.holders {
		if a.holders[i] != b.holders[i] || a.created[i] != b.created[i] || a.dropped[i] != b.dropped[i] {
			return false
		}
	}
	ar, br := a.resil, b.resil
	return ar.Rebroadcasts == br.Rebroadcasts && ar.RebroadcastSaves == br.RebroadcastSaves &&
		ar.Compensated == br.Compensated && ar.LossEpisodes == br.LossEpisodes &&
		ar.LockedIters == br.LockedIters && ar.LostIters == br.LostIters
}

// TestStepHostIndependence is the host-independence contract of
// Tracker.Step: for every configuration — loss-free Gaussian, iid loss with
// rebroadcast and compensation, Student-t with quantization and gating,
// CDPF-NE, per-particle predicted areas, quarantine against lying sensors
// alone and with the full hardened configuration under loss, and bursty loss
// — runs at GOMAXPROCS 1 and 4 must agree bit for bit: identical estimate
// bits, weight bits, population dynamics, resilience counters, gate counts,
// quarantine state, and radio traffic. Step has one serial path; nothing in
// it may depend on the host's core count.
func TestStepHostIndependence(t *testing.T) {
	type variant struct {
		name  string
		cfg   func() Config
		loss  func(*wsn.Network)
		liars bool
	}
	variants := []variant{
		{name: "gaussian-lossfree", cfg: func() Config { return DefaultConfig(false) }},
		{
			name: "iid-loss-rebroadcast-compensate",
			cfg: func() Config {
				c := DefaultConfig(false)
				c.Rebroadcasts = 2
				c.CompensateLoss = true
				return c
			},
			loss: func(nw *wsn.Network) { nw.SetLossRate(0.25, 7) },
		},
		{
			name: "student-t-quant-gate",
			cfg: func() Config {
				c := DefaultConfig(false)
				c.Sensor = statex.BearingSensor{SigmaN: 0.05, TailNu: 4}
				c.QuantSigma = 2.0
				c.GateSigma = 2.5
				return c
			},
		},
		{name: "ne", cfg: func() Config { return DefaultConfig(true) }},
		{
			name: "per-particle-areas",
			cfg: func() Config {
				c := DefaultConfig(false)
				c.PerParticleAreas = true
				return c
			},
		},
		{
			name: "quarantine",
			cfg: func() Config {
				c := DefaultConfig(false)
				c.Quarantine = true
				return c
			},
			liars: true,
		},
		{
			name:  "hostile",
			cfg:   func() Config { return HardenedSensingConfig(false) },
			loss:  func(nw *wsn.Network) { nw.SetLossRate(0.2, 9) },
			liars: true,
		},
		{
			name: "burst-loss",
			cfg:  func() Config { return DefaultConfig(false) },
			loss: func(nw *wsn.Network) { nw.SetBurstLoss(0.2, 3, 11) },
		},
	}
	at := func(t *testing.T, procs int, v variant) runTrace {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return traceRun(t, v.cfg(), v.loss, v.liars)
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			one := at(t, 1, v)
			if v.liars && one.evictions == 0 {
				t.Fatal("no sharer was quarantined: the usable-sharer filter never ran")
			}
			if !sameTrace(one, at(t, 4, v)) {
				t.Fatal("GOMAXPROCS=4 trace differs from GOMAXPROCS=1 run")
			}
		})
	}
}
