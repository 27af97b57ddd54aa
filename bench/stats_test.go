package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got, _ := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %v, want %v", 100*c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

func TestSupportedNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false},
		{100, 0.9, true}, {99, 0.9, false},
		{20, 0.5, true}, {19, 0.5, false},
		{0, 0.5, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
		if c.n == 0 {
			continue
		}
		xs := make([]float64, c.n)
		if _, ok := percentile(xs, c.p); ok != c.want {
			t.Errorf("percentile over %d samples at p%g reports supported=%v", c.n, 100*c.p, ok)
		}
	}
}

// TestQuartilesMatchPython pins the quartile rule to the values Python's
// statistics.quantiles(data, n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{7, 3}, [3]float64{2, 5, 8}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
				break
			}
		}
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	ss := []span{
		{ID: 1, Name: "cell", Start: 0, End: 100},
		{ID: 2, Name: "a", Start: 10, End: 30, Parent: 1},
		{ID: 3, Name: "b", Start: 20, End: 50, Parent: 1},  // overlaps a
		{ID: 4, Name: "c", Start: 90, End: 120, Parent: 1}, // runs past the parent
		{ID: 5, Name: "d", Start: 12, End: 14, Parent: 2},
	}
	self := selfTimes(ss)
	for id, want := range map[int64]int64{1: 100 - 40 - 10, 2: 18, 3: 30, 4: 30, 5: 2} {
		if self[id] != want {
			t.Errorf("self(%d) = %d, want %d", id, self[id], want)
		}
	}
}

func TestTailIdleIsTimeAfterThePoolLastRanFull(t *testing.T) {
	cells := []span{
		{Start: 0, End: 40}, {Start: 0, End: 50},
		{Start: 40, End: 70}, // worker 1 hands over at 40
		{Start: 50, End: 60}, // worker 2 finishes at 60: the tail starts
	}
	if got := tailIdle(cells, 2, 70); got != 10 {
		t.Errorf("tail idle = %v, want 10", got)
	}
	if got := tailIdle(cells[:1], 2, 40); got != 40 {
		t.Errorf("a pass that never filled the pool is idle throughout: got %v, want 40", got)
	}
}

func TestHistogramQuantileInterpolatesBucketDeltas(t *testing.T) {
	before := parseProm(`cdpfd_step_latency_seconds_bucket{le="0.001"} 5
cdpfd_step_latency_seconds_bucket{le="0.002"} 5
cdpfd_step_latency_seconds_bucket{le="+Inf"} 5
cdpfd_steps_total 5
`)
	after := parseProm(`# HELP ignored
cdpfd_step_latency_seconds_bucket{le="0.001"} 55
cdpfd_step_latency_seconds_bucket{le="0.002"} 105
cdpfd_step_latency_seconds_bucket{le="+Inf"} 105
cdpfd_steps_total 105
cdpfd_rejected_total{reason="a"} 2
cdpfd_rejected_total{reason="b"} 3
`)
	if got := after.histQuantile(before, 0.5); math.Abs(got-0.001) > 1e-12 {
		t.Errorf("p50 = %v, want 0.001", got)
	}
	if got := after.histQuantile(before, 0.75); math.Abs(got-0.0015) > 1e-12 {
		t.Errorf("p75 = %v, want 0.0015", got)
	}
	if got := after.delta(before, "cdpfd_steps_total"); got != 100 {
		t.Errorf("steps delta = %v, want 100", got)
	}
	if got := after.delta(before, "cdpfd_rejected_total"); got != 5 {
		t.Errorf("labelled samples sum to %v, want 5", got)
	}
}

func TestWindowedStatisticsTakeTheMedianWindow(t *testing.T) {
	start := time.Unix(0, 0)
	r := &rungResult{start: start, end: start.Add(3 * time.Second)}
	s := &servedSession{}
	// Three one-second windows with latencies of 1, 2 and 9 ms.
	for w, lat := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 9 * time.Millisecond} {
		for i := 0; i < 10; i++ {
			due := start.Add(time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond)
			r.ops = append(r.ops, opRec{k: len(s.arrive), due: due})
			s.arrive = append(s.arrive, due.Add(lat))
		}
	}
	p50, p90, _, _ := r.windowedLatency([]*servedSession{s})
	if p50 != 2 || p90 != 2 {
		t.Errorf("windowed p50, p90 = %v, %v; want 2, 2", p50, p90)
	}
	if got := r.windowedRate([]*servedSession{s}); got != 10 {
		t.Errorf("windowed rate = %v, want 10", got)
	}
}
