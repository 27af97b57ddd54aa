package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mathx"
	"repro/internal/wsn"
)

// TestSharedSweepMatchesPerBroadcast pins sweepShared to the per-broadcast
// path it stands in for. On random networks, under each loss process and
// with and without loss compensation, every broadcast's swept recorder list
// must equal selectRecordersInto at attempt 0 (same IDs, same order), every
// candidate's overheard total and compensation flag must equal
// overheardTotalCompute bit for bit, and the swept division ratios must equal
// AppendDivisionRatios over the recorders' positions bit for bit.
func TestSharedSweepMatchesPerBroadcast(t *testing.T) {
	losses := []struct {
		name string
		set  func(*wsn.Network)
	}{
		{"none", func(*wsn.Network) {}},
		{"iid", func(nw *wsn.Network) { nw.SetLossRate(0.3, 5) }},
		{"burst", func(nw *wsn.Network) { nw.SetBurstLoss(0.3, 3, 5) }},
	}
	for _, density := range []float64{5, 20, 40} {
		for _, loss := range losses {
			for _, comp := range []bool{false, true} {
				name := fmt.Sprintf("d%g/%s/compensate=%v", density, loss.name, comp)
				t.Run(name, func(t *testing.T) {
					nw, err := wsn.NewNetwork(wsn.DefaultConfig(density), mathx.NewRNG(uint64(density)+3))
					if err != nil {
						t.Fatal(err)
					}
					loss.set(nw)
					cfg := DefaultConfig(false)
					cfg.CompensateLoss = comp
					tr, err := NewTracker(nw, cfg)
					if err != nil {
						t.Fatal(err)
					}
					rng := mathx.NewRNG(uint64(density) + 11)
					// Sleeping nodes exercise the candidate query's awake filter.
					for id := 0; id < nw.Len(); id++ {
						if rng.Float64() < 0.1 {
							nw.Node(wsn.NodeID(id)).State = wsn.Asleep
						}
					}
					var seen sweepCoverage
					for trial := 0; trial < 40; trial++ {
						nw.NextEpoch()
						center := mathx.V2(rng.Uniform(20, 180), rng.Uniform(20, 180))
						seen.add(checkSweep(t, tr, randomBcasts(nw, center, rng), center))
					}
					if seen.recorders == 0 || seen.outOfRange == 0 {
						t.Fatalf("vacuous scenario: %+v", seen)
					}
					if loss.name != "none" && comp && seen.compensated == 0 {
						t.Fatalf("compensation never fired under loss: %+v", seen)
					}
				})
			}
		}
	}
}

// sweepCoverage counts what a checkSweep call exercised, so the test can
// refuse scenarios too small to mean anything.
type sweepCoverage struct {
	recorders   int // (broadcast, recorder) pairs
	outOfRange  int // candidates beyond the comm range of some broadcaster
	compensated int // candidates whose total was loss-compensated
}

func (c *sweepCoverage) add(o sweepCoverage) {
	c.recorders += o.recorders
	c.outOfRange += o.outOfRange
	c.compensated += o.compensated
}

// randomBcasts picks a random, ascending set of awake broadcasters around
// center with random weights. Some lie inside the recording distance (so a
// broadcaster can record its own particle) and some beyond the comm range of
// part of the candidate set.
func randomBcasts(nw *wsn.Network, center mathx.Vec2, rng *mathx.RNG) []bcast {
	var bcasts []bcast
	near := nw.ActiveNodesWithin(center, 1.5*nw.Cfg.CommRadius)
	slices.Sort(near)
	for _, id := range near {
		if rng.Float64() < 0.25 {
			pos := nw.Node(id).Pos
			bcasts = append(bcasts, bcast{id: id, pos: pos, w: rng.Uniform(0.01, 2)})
		}
	}
	return bcasts
}

// checkSweep runs sweepShared over bcasts toward the shared area at center
// and compares every output with the per-broadcast computation.
func checkSweep(t *testing.T, tr *Tracker, bcasts []bcast, center mathx.Vec2) sweepCoverage {
	t.Helper()
	area := cluster.PredictedArea{Center: center, Radius: tr.nw.Cfg.SensingRadius}
	for i := range bcasts {
		bcasts[i].area = area
	}
	maxDist := tr.nw.Cfg.SensingRadius * (1 - recordThreshold)
	tr.gatherBcastColumns(bcasts)
	tr.sweepShared(center, maxDist)
	sw := &tr.scr.sw

	var cov sweepCoverage
	for c, id := range sw.id {
		if sw.pos[c] != tr.nw.Node(id).Pos {
			t.Fatalf("candidate %d: swept position %v, node position %v", id, sw.pos[c], tr.nw.Node(id).Pos)
		}
		want, wantComp := tr.overheardTotalCompute(id, bcasts)
		if math.Float64bits(sw.tot[c]) != math.Float64bits(want) || sw.comp[c] != wantComp {
			t.Fatalf("candidate %d: swept total %v (comp %v), per-recorder %v (comp %v)",
				id, sw.tot[c], sw.comp[c], want, wantComp)
		}
		if int(sw.inRange[c]) < len(bcasts) {
			cov.outOfRange++
		}
		if sw.comp[c] {
			cov.compensated++
		}
	}
	var buf []wsn.NodeID
	var positions []mathx.Vec2
	for bi, b := range bcasts {
		want := tr.selectRecordersInto(&buf, b, maxDist, 0)
		idx := sw.rec[sw.off[bi]:sw.off[bi+1]]
		got := make([]wsn.NodeID, len(idx))
		for i, c := range idx {
			got[i] = sw.id[c]
		}
		if !slices.Equal(got, want) {
			t.Fatalf("broadcast %d: swept recorders %v, per-broadcast %v", b.id, got, want)
		}
		if len(want) == 0 {
			continue
		}
		cov.recorders += len(want)
		positions = positions[:0]
		for _, id := range want {
			positions = append(positions, tr.nw.Node(id).Pos)
		}
		wantR := area.AppendDivisionRatios(nil, positions)
		gotR := tr.sweptRatios(idx)
		for i := range wantR {
			if math.Float64bits(gotR[i]) != math.Float64bits(wantR[i]) {
				t.Fatalf("broadcast %d recorder %d: swept ratio %v, per-broadcast %v",
					b.id, want[i], gotR[i], wantR[i])
			}
		}
	}
	return cov
}

// FuzzOutOfRangeMatchesHypot checks the sweep's comm-range test against the
// definition it replaces: beyond(dx, dy) must equal Hypot(dx, dy) > r for
// every input, including points within a few ulps of the circle.
func FuzzOutOfRangeMatchesHypot(f *testing.F) {
	for _, r := range []float64{30, 1, 1e-3, 7.5e6} {
		for _, k := range []float64{0, 1, 2, 3, 8, 64} {
			for _, s := range []float64{1 - k*0x1p-52, 1 + k*0x1p-52} {
				f.Add(r, r*s, 0.0)
				f.Add(r, 0.0, -r*s)
				f.Add(r, r*s/math.Sqrt2, r*s/math.Sqrt2)
				f.Add(r, -0.6*r*s, 0.8*r*s)
			}
		}
	}
	// Points where d² > r² and Hypot(dx, dy) > r disagree: a prefilter
	// without the Hypot fallback inside its band gets these wrong.
	for _, p := range [][3]float64{
		{30, -12.056972508587904, -27.47051899631959},
		{1, 0.9571839538094631, -0.2894803595577493},
		{0.001, -0.0009655993046039108, 0.0002600345802935524},
		{7.5e+06, -6.1574308599529145e+06, 4.282060859551101e+06},
	} {
		f.Add(p[0], p[1], p[2])
	}
	f.Fuzz(func(t *testing.T, r, dx, dy float64) {
		want := math.Hypot(dx, dy) > r
		if got := newRangeTest(r).beyond(dx, dy); got != want {
			t.Fatalf("beyond(%v, %v) with r=%v = %v, Hypot(...) > r = %v", dx, dy, r, got, want)
		}
	})
}
