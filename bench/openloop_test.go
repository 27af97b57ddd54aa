package main

import (
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps or a send takes time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

// drive sends every op of p one at a time; send may advance the clock.
func drive(p *pacer, clk *fakeClock, limit int, send func(first, k int)) {
	for {
		k := p.ready(limit)
		if k == 0 {
			return
		}
		first := p.next
		at := clk.Now()
		send(first, k)
		p.sent(k, at)
	}
}

func TestPacerNeverSendsEarly(t *testing.T) {
	clk := &fakeClock{now: time.Unix(100, 0)}
	p := newPacer(clk, clk.now, 1000, 5)
	var sentAt []time.Time
	drive(p, clk, 1, func(int, int) { sentAt = append(sentAt, clk.now) })
	for i, at := range sentAt {
		if want := clk.now.Add(time.Duration(i-4) * time.Millisecond); !at.Equal(want) {
			t.Errorf("op %d sent at %v, want its due time %v", i, at, want)
		}
	}
	for i, l := range p.lag {
		if l != 0 {
			t.Errorf("op %d lag %d ns on an idle generator", i, l)
		}
	}
}

// TestStalledSendMakesLaterSendsLate: a 5 ms stall on op 3 of a 1 kHz
// schedule delays ops 4..7, each counted from its own due time, and the
// generator catches up by op 8.
func TestStalledSendMakesLaterSendsLate(t *testing.T) {
	clk := &fakeClock{now: time.Unix(100, 0)}
	p := newPacer(clk, clk.now, 1000, 10)
	drive(p, clk, 1, func(first, _ int) {
		if first == 3 {
			clk.now = clk.now.Add(5 * time.Millisecond)
		}
	})
	want := []float64{0, 0, 0, 0, 4, 3, 2, 1, 0, 0}
	got := p.lagMS()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lags = %v ms, want %v", got, want)
		}
	}
	if v, _ := percentile(got, 0.99); v != 4 {
		t.Errorf("send lag p99 = %v ms, want 4", v)
	}
	if b := p.backlog(p.start.Add(8 * time.Millisecond)); b != 0 {
		t.Errorf("backlog after the run = %d, want 0", b)
	}
}

// TestLateGeneratorGroupsDueOps: after a stall, every op already due goes
// out in one request (up to the limit), still timed from each op's due time.
func TestLateGeneratorGroupsDueOps(t *testing.T) {
	clk := &fakeClock{now: time.Unix(100, 0)}
	p := newPacer(clk, clk.now, 1000, 10)
	var groups []int
	drive(p, clk, 3, func(first, k int) {
		groups = append(groups, k)
		switch first {
		case 0:
			clk.now = clk.now.Add(5 * time.Millisecond)
		case 1:
			if b := p.backlog(clk.now); b != 5 {
				t.Errorf("backlog when the generator resumes = %d, want 5 (ops 1..5 due, unsent)", b)
			}
		}
	})
	wantGroups := []int{1, 3, 2, 1, 1, 1, 1}
	if len(groups) != len(wantGroups) {
		t.Fatalf("groups = %v, want %v", groups, wantGroups)
	}
	for i := range groups {
		if groups[i] != wantGroups[i] {
			t.Fatalf("groups = %v, want %v", groups, wantGroups)
		}
	}
	want := []float64{0, 4, 3, 2, 1, 0, 0, 0, 0, 0}
	for i, got := range p.lagMS() {
		if got != want[i] {
			t.Fatalf("lags = %v ms, want %v", p.lagMS(), want)
		}
	}
}
