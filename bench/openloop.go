package main

import (
	"time"
)

// clock is the generator's time source; tests substitute a fake one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// rung is one fixed offered rate, held for a share of the run's seconds.
type rung struct {
	name  string
	rate  float64 // steps per second offered
	share float64 // of the run's measuring time
}

// pacer is an open-loop schedule: op i of n is due at start + i/rate,
// whatever happened to the ops before it. The generator never sends an op
// before it is due; when it falls behind, every op already due goes out as
// soon as it can, and each op's latency still counts from its due time.
type pacer struct {
	clk   clock
	start time.Time
	rate  float64
	n     int
	next  int     // first op not yet sent
	lag   []int64 // per op: send time minus due time, in nanoseconds
}

func newPacer(clk clock, start time.Time, rate float64, n int) *pacer {
	return &pacer{clk: clk, start: start, rate: rate, n: n, lag: make([]int64, 0, n)}
}

func (p *pacer) due(i int) time.Time {
	return p.start.Add(time.Duration(float64(i) * float64(time.Second) / p.rate))
}

// ready waits until the next op is due and returns how many ops, at most
// limit, are due now (0 once every op was sent).
func (p *pacer) ready(limit int) int {
	if p.next >= p.n || limit < 1 {
		return 0
	}
	p.clk.SleepUntil(p.due(p.next))
	now := p.clk.Now()
	k := 1
	for k < limit && p.next+k < p.n && !p.due(p.next+k).After(now) {
		k++
	}
	return k
}

// sent records that the next k ops went out at t.
func (p *pacer) sent(k int, t time.Time) {
	for i := 0; i < k; i++ {
		p.lag = append(p.lag, max(0, t.Sub(p.due(p.next+i)).Nanoseconds()))
	}
	p.next += k
}

// backlog is how many ops were due by t but not yet sent.
func (p *pacer) backlog(t time.Time) int {
	due := int(t.Sub(p.start).Seconds()*p.rate) + 1
	return max(0, min(due, p.n)-p.next)
}

// lagMS returns the recorded send lags in milliseconds.
func (p *pacer) lagMS() []float64 {
	out := make([]float64, len(p.lag))
	for i, l := range p.lag {
		out[i] = float64(l) / 1e6
	}
	return out
}
