package ring

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Prober keeps a Ring's health current by polling each member's /healthz.
// The daemon's tri-state body maps onto the ring's health states:
//
//	200 "ready"      -> Ready
//	503 "recovering" -> Recovering (still owns its sessions)
//	503 "draining"   -> Draining   (sessions must move)
//	anything else    -> Down
type Prober struct {
	Ring     *Ring
	Interval time.Duration // 0: 500ms
	// OnTransition, when non-nil, runs after a member's health changes —
	// the gateway hooks auto-evacuation here. Called from the prober
	// goroutine; implementations spawn their own work.
	OnTransition func(name string, from, to Health)

	mu      sync.Mutex
	streaks map[string]streak
}

const (
	// flapK is flap damping: a Ready↔Down transition is applied only after
	// this many consecutive identical observations. Transitions involving
	// Recovering, Draining, or Unknown apply immediately — those phases
	// carry migration/recovery semantics a gateway must react to on first
	// sight.
	flapK = 2
	// probeJitter spreads probe ticks uniformly over
	// Interval·[1−probeJitter, 1+probeJitter] so a fleet of gateways doesn't
	// probe every backend in lockstep.
	probeJitter = 0.2
)

// probeClient performs every /healthz probe; its timeout bounds one probe.
var probeClient = &http.Client{Timeout: 2 * time.Second}

// streak counts consecutive identical damped observations for one member.
type streak struct {
	h Health
	n int
}

// classify maps one probe response onto a Health.
func classify(status int, body string) Health {
	body = strings.TrimSpace(body)
	switch {
	case status == http.StatusOK:
		return Ready
	case status == http.StatusServiceUnavailable && body == "recovering":
		return Recovering
	case status == http.StatusServiceUnavailable && body == "draining":
		return Draining
	default:
		return Down
	}
}

// damped reports whether the cur→obs transition is subject to flap damping:
// only the Ready↔Down pair, where one bad (or good) packet must not flip
// routing. Everything else — first contact, drain, recovery — is immediate.
func damped(cur, obs Health) bool {
	if cur == obs {
		return false
	}
	flappy := func(h Health) bool { return h == Ready || h == Down }
	return flappy(cur) && flappy(obs)
}

// observe applies one probe observation for a member, honoring flap damping,
// and fires OnTransition on an applied change. Safe for concurrent use
// across members.
func (p *Prober) observe(name string, h Health, errMsg string) {
	cur, ok := p.Ring.HealthOf(name)
	if ok && damped(cur, h) {
		p.mu.Lock()
		s := p.streaks[name]
		if s.h == h {
			s.n++
		} else {
			s = streak{h: h, n: 1}
		}
		if p.streaks == nil {
			p.streaks = make(map[string]streak)
		}
		p.streaks[name] = s
		p.mu.Unlock()
		if s.n < flapK {
			return // not confirmed yet; keep current health
		}
	}
	p.mu.Lock()
	delete(p.streaks, name)
	p.mu.Unlock()
	prev, ok := p.Ring.SetHealth(name, h, errMsg)
	if ok && prev != h && p.OnTransition != nil {
		p.OnTransition(name, prev, h)
	}
}

// ProbeOnce polls every member once, concurrently, and applies the results.
func (p *Prober) ProbeOnce(ctx context.Context) {
	members := p.Ring.Members()
	var wg sync.WaitGroup
	for _, m := range members {
		wg.Add(1)
		go func(m MemberInfo) {
			defer wg.Done()
			h, errMsg := p.probe(ctx, m.Addr)
			p.observe(m.Name, h, errMsg)
		}(m)
	}
	wg.Wait()
}

func (p *Prober) probe(ctx context.Context, addr string) (Health, string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/healthz", nil)
	if err != nil {
		return Down, err.Error()
	}
	resp, err := probeClient.Do(req)
	if err != nil {
		return Down, err.Error()
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	h := classify(resp.StatusCode, string(body))
	if h == Down {
		return Down, strings.TrimSpace(resp.Status + " " + string(body))
	}
	return h, ""
}

// jittered returns the next probe delay: iv spread uniformly over
// [iv·(1−probeJitter), iv·(1+probeJitter)].
func jittered(iv time.Duration) time.Duration {
	span := 2 * probeJitter * float64(iv)
	d := time.Duration(float64(iv)*(1-probeJitter) + rand.Float64()*span)
	if d <= 0 {
		d = time.Millisecond
	}
	return d
}

// Run probes until ctx is done, jittering the interval per tick. The first
// probe fires immediately so the ring leaves Unknown as fast as possible.
func (p *Prober) Run(ctx context.Context) {
	iv := p.Interval
	if iv <= 0 {
		iv = 500 * time.Millisecond
	}
	p.ProbeOnce(ctx)
	t := time.NewTimer(jittered(iv))
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.ProbeOnce(ctx)
			t.Reset(jittered(iv))
		}
	}
}
