package core

import (
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/kernel"
	"repro/internal/mathx"
	"repro/internal/statex"
	"repro/internal/wsn"
)

// Observation is one node's bearing measurement at the current iteration.
type Observation struct {
	Node    wsn.NodeID
	Bearing float64
}

// StepResult reports one CDPF iteration's outputs.
type StepResult struct {
	// Estimate is the target position estimate for the *previous* iteration
	// (the correction step of the reordered pipeline runs one iteration
	// late; Section IV-A). Valid only when EstimateValid.
	Estimate      mathx.Vec2
	EstimateValid bool
	// Predicted is the extrapolated target position for the current
	// iteration (the "slashed square" of Fig. 1), used by CDPF-NE as the
	// estimation-area center. Valid only when PredictedValid.
	Predicted      mathx.Vec2
	PredictedValid bool

	Holders int // particle-holding nodes after this iteration (N_n)
	Created int // new particles created from fresh detections
	Dropped int // particles dropped by the correction step or zero likelihood
}

// Tracker runs CDPF (or CDPF-NE) over a network. All communication flows
// through the network's accounting radio, so nw.Stats reflects exactly the
// algorithm's cost.
type Tracker struct {
	nw  *wsn.Network
	cfg Config

	// parts is the dense node-indexed particle store; scr is the reusable
	// per-iteration scratch arena (see arena.go). Together they make a
	// steady-state Step allocation-free.
	parts *particleStore
	scr   scratch

	// lastBcasts holds the current iteration's propagation broadcasts, used
	// by the particle-creation rule ("a node that does not receive any
	// propagated particles detects the target").
	lastBcasts []bcast
	// missedIters counts consecutive iterations in which detections existed
	// but no particle-holding node was among the detectors; a miss is treated
	// as track divergence and triggers re-initialization, with a one-iteration
	// grace period after each reinit to prevent reinit storms.
	missedIters int

	// resilience accounting (see ResilienceStats)
	resil   ResilienceStats
	iter    int  // Step invocations so far
	lostAt  int  // iteration the current loss episode began; -1 when locked
	everEst bool // an estimate has been produced at least once

	// sensing defenses (see quarantine.go); quar is nil unless
	// Config.Quarantine is set, gated counts innovation-gated terms.
	quar  *reputation
	gated int

	// bk is the batch bearing-likelihood evaluator (internal/kernel) with the
	// model's normalization constants hoisted.
	bk kernel.Bearing
}

// ResilienceStats counts the tracker's degradation events across a run:
// how often the graceful-degradation mechanisms fired and how the track
// lock evolved. An episode begins when a previously locked tracker stops
// producing estimates and ends at the next valid estimate; Reacquires holds
// the length (in filter iterations) of each episode that ended.
type ResilienceStats struct {
	Rebroadcasts     int   // charged retry transmissions after silent drops
	RebroadcastSaves int   // particles that found recorders only on a retry
	Compensated      int   // overheard totals extrapolated over detected loss
	LossEpisodes     int   // track-loss episodes entered
	LockedIters      int   // iterations with a valid estimate
	LostIters        int   // iterations inside a loss episode
	Reacquires       []int // iterations-to-reacquire per ended episode
}

// NewTracker validates the configuration and returns a tracker with no
// particles (the initialization step runs on the first detections passed to
// Step). The particle store and scratch tables come from a released
// tracker's memory when one is available (see Release).
func NewTracker(nw *wsn.Network, cfg Config) (*Tracker, error) {
	c, err := cfg.withDefaults(nw)
	if err != nil {
		return nil, err
	}
	m := trackerFree.Get()
	if m.parts == nil {
		m.parts = new(particleStore)
	}
	m.parts.reset(nw.Len())
	m.scr.reset(nw.Len())
	t := &Tracker{
		nw:     nw,
		cfg:    c,
		parts:  m.parts,
		scr:    m.scr,
		lostAt: -1,
		bk:     kernel.NewBearing(c.Sensor.SigmaN, c.Sensor.TailNu, c.QuantSigma, c.GateSigma),
	}
	if c.Quarantine {
		t.quar = newReputation()
	}
	return t, nil
}

// Release hands the tracker's particle store and scratch tables to the next
// NewTracker on the process. Only the owner of a finished run may call it,
// once nothing reads the tracker any more; a second Release is a no-op.
func (t *Tracker) Release() {
	if t.parts == nil {
		return
	}
	trackerFree.Put(trackerMem{parts: t.parts, scr: t.scr})
	t.parts, t.scr = nil, scratch{}
}

// Resilience returns the degradation counters accumulated so far.
func (t *Tracker) Resilience() ResilienceStats { return t.resil }

// Holders returns the IDs of nodes currently maintaining a particle, sorted
// for determinism. The slice is freshly allocated; the tracker's internal
// phases iterate the store's reused sorted list instead.
func (t *Tracker) Holders() []wsn.NodeID {
	return slices.Clone(t.parts.sorted())
}

// Weight returns the current weight of the particle on node id (0 if none).
func (t *Tracker) Weight(id wsn.NodeID) float64 {
	return t.parts.weight(id)
}

// Step runs one full CDPF iteration given the bearings observed by the
// currently detecting nodes. Iteration order follows Algorithm 1:
//
//  1. propagate particles (prediction; importance density realized by the
//     spread of recording nodes in each particle's predicted area);
//  2. obtain the total weight by overhearing and normalize;
//  3. resample (drop negligible-weight particles);
//  4. estimate the target position for the previous iteration;
//  5. share measurements and compute likelihoods (CDPF) or estimate
//     neighbor contributions (CDPF-NE);
//  6. assign updated weights; create fresh particles on detecting nodes
//     that recorded nothing.
func (t *Tracker) Step(obs []Observation, rng *mathx.RNG) StepResult {
	var res StepResult
	t.nw.NextEpoch() // fresh packet-loss draws for this iteration

	// ---- 1+2+3+4: prediction, overhearing aggregation, correction ----
	t.lastBcasts = t.lastBcasts[:0]
	if t.parts.len() > 0 {
		t.propagate(&res)
	}

	// ---- 5+6: likelihood / neighborhood estimation, weight assignment ----
	if t.cfg.UseNE {
		t.assignNE(obs, &res)
	} else {
		t.assignLikelihood(obs, &res)
	}

	// Track-divergence recovery: when detections exist but the particle
	// cloud has not overlapped the detecting nodes, the track has drifted
	// off the target; drop the cloud so
	// the creation step re-initializes on the detectors (the paper's
	// initialization procedure).
	if len(obs) > 0 && t.parts.len() > 0 {
		overlap := false
		for _, o := range obs {
			if t.parts.has(o.Node) {
				overlap = true
				break
			}
		}
		if overlap {
			t.missedIters = 0
		} else {
			t.missedIters++
			if t.missedIters >= 1 {
				res.Dropped += t.parts.len()
				t.parts.clear()
				// Grace period: the freshly re-initialized cloud gets one
				// iteration to re-acquire before another reinit can fire,
				// preventing reinit storms (each wave costs a broadcast
				// per created particle).
				t.missedIters = -1
			}
		}
	}

	// Nodes with negligible posterior weight stop broadcasting ("this node
	// may drop the particle on it and stop broadcasting", Section III-B):
	// prune before the next iteration's propagation pays for them.
	res.Dropped += t.pruneLowWeight()

	// ---- new particles on detecting nodes that heard no propagation ----
	t.createFresh(obs, &res)

	res.Holders = t.parts.len()
	t.accountLock(res.EstimateValid)
	_ = rng // reserved for stochastic extensions (e.g. randomized recording)
	return res
}

// accountLock updates the track-loss episode bookkeeping after one Step.
func (t *Tracker) accountLock(estimateValid bool) {
	switch {
	case estimateValid:
		if t.lostAt >= 0 {
			t.resil.Reacquires = append(t.resil.Reacquires, t.iter-t.lostAt)
			t.lostAt = -1
		}
		t.everEst = true
		t.resil.LockedIters++
	case t.everEst:
		if t.lostAt < 0 {
			t.lostAt = t.iter
			t.resil.LossEpisodes++
		}
		t.resil.LostIters++
	}
	t.iter++
}

// dropFraction sets the correction-step resampling analog (Section III-B's
// low-weight drop rule): a particle whose normalized weight falls below
// dropFraction divided by the particle count is dropped.
const dropFraction = 0.3

// pruneLowWeight removes particles whose normalized weight is below
// dropFraction divided by the particle count, returning the number dropped.
func (t *Tracker) pruneLowWeight() int {
	if t.parts.len() == 0 {
		return 0
	}
	ids := t.parts.sorted()
	total := 0.0
	for _, id := range ids {
		total += t.parts.w[id]
	}
	if total <= 0 {
		return 0
	}
	threshold := dropFraction / float64(len(ids))
	dropped := 0
	// Descending index scan so swap-with-last removal only disturbs slots
	// already visited; no snapshot copy needed.
	for i := len(ids) - 1; i >= 0; i-- {
		id := ids[i]
		if t.parts.w[id]/total < threshold {
			t.parts.remove(id)
			dropped++
		}
	}
	return dropped
}

// heardPropagation reports whether node id was within radio range of any of
// this iteration's propagation broadcasts.
func (t *Tracker) heardPropagation(id wsn.NodeID) bool {
	pos := t.nw.Node(id).Pos
	commR := t.nw.Cfg.CommRadius
	for i := range t.lastBcasts {
		if t.lastBcasts[i].id == id || (t.lastBcasts[i].pos.Dist(pos) <= commR && t.nw.Delivers(t.lastBcasts[i].id, id)) {
			return true
		}
	}
	return false
}

// bcast is one holder's propagation broadcast as seen by overhearing nodes.
type bcast struct {
	id   wsn.NodeID
	pos  mathx.Vec2
	vel  mathx.Vec2
	w    float64
	area cluster.PredictedArea
}

// Propagation constants. The radius of every predicted and estimation area
// is the network's sensing radius (Definition 1).
const (
	// recordThreshold is the minimum linear-probability value a neighbor
	// needs to record propagated particles ("only those that are highly
	// likely to detect the target record the particles", Section III-B).
	recordThreshold = 0.3
	// maxHolders bounds the number of particle-holding nodes (Section III-A
	// observes that N_s "is controllable"): after propagation, only the
	// maxHolders heaviest particles survive. This keeps the population from
	// growing without bound while the filter coasts with no measurements
	// (e.g. after the target leaves the field).
	maxHolders = 256
	// rebroadcastBackoff multiplies the maximum recording distance on each
	// Config.Rebroadcasts retry.
	rebroadcastBackoff = 1.5
)

// propagate implements the prediction + correction phases.
func (t *Tracker) propagate(res *StepResult) {
	holders := t.parts.sorted()
	sizes := t.cfg.Sizes

	// Broadcast every holder's combined particle (Dp) and weight (Dw) in a
	// single propagation message.
	t.lastBcasts = t.lastBcasts[:0]
	bcasts := t.lastBcasts
	var totalW float64
	var sumPos, sumVel mathx.Vec2
	for _, id := range holders {
		w, vel := t.parts.w[id], t.parts.vel[id]
		pos := t.nw.Node(id).Pos
		t.nw.Transmit(id, wsn.MsgParticle, sizes.Dp+sizes.Dw)
		center := pos.Add(vel.Scale(t.cfg.Dt))
		bcasts = append(bcasts, bcast{
			id: id, pos: pos, vel: vel, w: w,
			area: cluster.PredictedArea{Center: center, Radius: t.nw.Cfg.SensingRadius},
		})
		totalW += w
		sumPos = sumPos.Add(pos.Scale(w))
		sumVel = sumVel.Add(vel.Scale(w))
	}
	t.lastBcasts = bcasts

	// Correction (ideal overhearing view): the estimate for the previous
	// iteration and the velocity used for the current prediction.
	var velMean mathx.Vec2
	if totalW > 0 {
		res.Estimate = sumPos.Scale(1 / totalW)
		res.EstimateValid = true
		velMean = sumVel.Scale(1 / totalW)
		res.Predicted = res.Estimate.Add(velMean.Scale(t.cfg.Dt))
		res.PredictedValid = true
	}
	// Default geometry: every node derives the same predicted target
	// position from the overheard broadcasts, so all particles propagate
	// toward one shared predicted area (Fig. 1).
	if !t.cfg.PerParticleAreas && res.PredictedValid {
		shared := cluster.PredictedArea{Center: res.Predicted, Radius: t.nw.Cfg.SensingRadius}
		for i := range bcasts {
			bcasts[i].area = shared
			bcasts[i].vel = velMean
		}
	}

	// Identify each broadcaster's recording nodes: awake nodes inside the
	// predicted area whose linear probability clears the record threshold.
	// maxRecordDist is the distance at which the linear probability equals
	// the threshold.
	maxRecordDist := t.nw.Cfg.SensingRadius * (1 - recordThreshold)

	t.scr.accEpoch++
	t.scr.touched = t.scr.touched[:0]
	t.gatherBcastColumns(bcasts)
	t.scr.otEpoch++
	shared := !t.cfg.PerParticleAreas && res.PredictedValid
	if shared {
		t.sweepShared(res.Predicted, maxRecordDist)
	}
	t.record(bcasts, maxRecordDist, shared, res)

	// Install the recorded particles (combining happens implicitly: one
	// accumulator per node). Install order is ascending ID.
	t.parts.clear()
	slices.Sort(t.scr.touched)
	for _, id := range t.scr.touched {
		w := t.scr.accW[id]
		if w <= 0 {
			continue
		}
		t.parts.add(id, t.scr.accVel[id].Scale(1/w), w)
	}

	// Resampling analog: drop particles with negligible normalized weight,
	// and enforce the controllable population bound of Section III-A.
	if t.parts.len() > 0 {
		res.Dropped += t.pruneLowWeight()
		res.Dropped += t.capHolders()
	}
}

// capHolders keeps the maxHolders heaviest particles (ties broken by
// ascending node ID), returning the number removed.
func (t *Tracker) capHolders() int {
	if t.parts.len() <= maxHolders {
		return 0
	}
	all := t.scr.byWeight[:0]
	for _, id := range t.parts.sorted() {
		all = append(all, holderWeight{id: id, w: t.parts.w[id]})
	}
	slices.SortFunc(all, func(a, b holderWeight) int {
		switch {
		case a.w > b.w:
			return -1
		case a.w < b.w:
			return 1
		}
		return int(a.id) - int(b.id)
	})
	t.scr.byWeight = all
	for _, h := range all[maxHolders:] {
		t.parts.remove(h.id)
	}
	return len(all) - maxHolders
}

// record is the recorder-resolution loop of the propagation phase: for
// every broadcast, select its recorders (with bounded rebroadcast retries),
// split the weight by division ratio over each recorder's overheard total,
// and accumulate the shares in broadcast order. With shared set, attempt 0
// of every broadcast comes from the sweepShared tables; retries and
// per-particle areas resolve one broadcast at a time.
func (t *Tracker) record(bcasts []bcast, maxRecordDist float64, shared bool, res *StepResult) {
	sizes := t.cfg.Sizes
	sw := &t.scr.sw
	for bi := range bcasts {
		b := &bcasts[bi]
		var recorders []wsn.NodeID
		if shared {
			if idx := sw.rec[sw.off[bi]:sw.off[bi+1]]; len(idx) > 0 {
				t.recordSwept(b, idx)
				continue
			}
		} else {
			recorders = t.selectRecordersInto(&t.scr.cand, *b, maxRecordDist, 0)
		}
		// Bounded re-broadcast with backoff: a holder whose propagation drew
		// no recorder (nobody awake/reachable in the predicted area) retries
		// up to Rebroadcasts times, each retry charged like the original
		// message and announcing a recording distance widened by the backoff
		// factor — trading bytes for a chance to keep the particle alive
		// instead of silently dropping it.
		for attempt := 1; len(recorders) == 0 && attempt <= t.cfg.Rebroadcasts; attempt++ {
			t.nw.Transmit(b.id, wsn.MsgParticle, sizes.Dp+sizes.Dw)
			t.resil.Rebroadcasts++
			dist := maxRecordDist * math.Pow(rebroadcastBackoff, float64(attempt))
			recorders = t.selectRecordersInto(&t.scr.cand, *b, dist, attempt)
			if len(recorders) > 0 {
				t.resil.RebroadcastSaves++
			}
		}
		if len(recorders) == 0 {
			res.Dropped++ // particle lost: nobody in its predicted area
			continue
		}
		// Division ratios over the selected recorders (rules of §III-B).
		t.scr.positions = t.scr.positions[:0]
		for _, id := range recorders {
			t.scr.positions = append(t.scr.positions, t.nw.Node(id).Pos)
		}
		t.scr.ratios = b.area.AppendDivisionRatios(t.scr.ratios[:0], t.scr.positions)
		for i, id := range recorders {
			t.accumulate(b, id, t.scr.positions[i], t.scr.ratios[i], t.overheardTotalMemo(id, bcasts))
		}
	}
}

// recordSwept accumulates broadcast b's shares over its attempt-0 recorders,
// given as indices into the sweepShared candidate tables.
func (t *Tracker) recordSwept(b *bcast, idx []int32) {
	sw := &t.scr.sw
	ratios := t.sweptRatios(idx)
	for i, c := range idx {
		if sw.comp[c] {
			t.resil.Compensated++
		}
		t.accumulate(b, sw.id[c], sw.pos[c], ratios[i], sw.tot[c])
	}
}

// sweptRatios returns the division ratios over the swept recorders idx, from
// their stored linear-model probabilities.
func (t *Tracker) sweptRatios(idx []int32) []float64 {
	ratios := t.scr.ratios[:0]
	for _, c := range idx {
		ratios = append(ratios, t.scr.sw.prob[c])
	}
	cluster.NormalizeRatios(ratios)
	t.scr.ratios = ratios
	return ratios
}

// accumulate adds broadcast b's share ratio·w/wj to recorder id's weight and
// velocity accumulators; a recorder that overheard no weight (wj <= 0)
// records nothing.
func (t *Tracker) accumulate(b *bcast, id wsn.NodeID, pos mathx.Vec2, ratio, wj float64) {
	if wj <= 0 {
		return
	}
	scr := &t.scr
	if scr.accStamp[id] != scr.accEpoch {
		scr.accStamp[id] = scr.accEpoch
		scr.accW[id] = 0
		scr.accVel[id] = mathx.Vec2{}
		scr.touched = append(scr.touched, id)
	}
	share := ratio * b.w / wj
	scr.accW[id] += share
	// The recorded particle's velocity blends the realized displacement from
	// the source host to the recorder with the source particle's own
	// velocity, damping the quantization noise the node-hop injects into the
	// velocity estimate.
	hop := pos.Sub(b.pos).Scale(1 / t.cfg.Dt)
	vel := hop.Lerp(b.vel, t.cfg.VelSmoothing)
	scr.accVel[id] = scr.accVel[id].Add(vel.Scale(share))
}

// sweepShared resolves attempt 0 of every broadcast at once in the shared
// predicted-area geometry, where all broadcasts name the same center and
// recording distance. One spatial query yields the candidates (with the
// order, positions and probabilities a per-broadcast query would give), and
// one row-major pass over the broadcast×candidate pairs decides each link
// once: a heard link makes the candidate a recorder of that broadcast and
// adds the broadcast's weight to the candidate's overheard total, in
// broadcast order — the same additions overheardTotalCompute performs.
// Burst-loss draws do not depend on query order, so deciding each link once
// here leaves every outcome unchanged.
func (t *Tracker) sweepShared(center mathx.Vec2, maxRecordDist float64) {
	scr := &t.scr
	sw := &scr.sw
	area := cluster.PredictedArea{Center: center, Radius: t.nw.Cfg.SensingRadius}
	sw.id = t.nw.AppendActiveNodesWithin(sw.id[:0], center, maxRecordDist)
	// Reserve every table once per phase from the sizes the sweep knows:
	// n candidates and nb broadcasts, at most n·nb recorder entries, and at
	// most n recorders (hence division ratios) per broadcast.
	n, nb := len(sw.id), len(scr.bw)
	sw.pos, sw.prob, sw.tot, sw.comp = grow(sw.pos, n), grow(sw.prob, n), grow(sw.tot, n), grow(sw.comp, n)
	sw.heard, sw.inRange = grow(sw.heard, n), grow(sw.inRange, n)
	sw.rec, sw.off = slices.Grow(sw.rec[:0], n*nb), append(slices.Grow(sw.off[:0], nb+1), 0)
	scr.ratios = slices.Grow(scr.ratios[:0], n)
	for c, id := range sw.id {
		p := t.nw.Node(id).Pos
		sw.pos[c], sw.prob[c] = p, area.Probability(p)
	}
	clear(sw.tot)
	clear(sw.heard)
	clear(sw.inRange)
	rt := newRangeTest(t.nw.Cfg.CommRadius)
	lossFree := t.nw.LossFree()
	for bi, w := range scr.bw {
		bx, by, bid := scr.bx[bi], scr.by[bi], wsn.NodeID(scr.bid[bi])
		for c, id := range sw.id {
			if id != bid && rt.beyond(sw.pos[c].X-bx, sw.pos[c].Y-by) {
				continue
			}
			sw.inRange[c]++
			if id == bid || lossFree || t.nw.Delivers(bid, id) {
				sw.tot[c] += w
				sw.heard[c]++
				sw.rec = append(sw.rec, int32(c))
			}
		}
		sw.off = append(sw.off, int32(len(sw.rec)))
	}
	for c := range sw.id {
		sw.tot[c], sw.comp[c] = t.compensate(sw.tot[c], int(sw.heard[c]), int(sw.inRange[c]))
	}
}

// rangeTest decides Hypot(dx, dy) > r exactly while computing Hypot only
// near the boundary: a squared distance outside a relative 1e-9 band around
// r² settles the comparison (both d² and Hypot are within a few ulps of
// exact), and pairs inside the band fall back to Hypot itself. Radii whose
// square is not a comfortably normal float (or that are negative or NaN)
// widen the band to everything.
type rangeTest struct{ r, lo2, hi2 float64 }

func newRangeTest(r float64) rangeTest {
	if !(r >= 1e-145 && r <= 1e145) {
		return rangeTest{r: r, lo2: math.Inf(-1), hi2: math.Inf(1)}
	}
	return rangeTest{r: r, lo2: r * r * (1 - 1e-9), hi2: r * r * (1 + 1e-9)}
}

// beyond reports math.Hypot(dx, dy) > rt.r.
func (rt rangeTest) beyond(dx, dy float64) bool {
	d2 := dx*dx + dy*dy
	if d2 < rt.lo2 {
		return false
	}
	if d2 > rt.hi2 {
		return true
	}
	return math.Hypot(dx, dy) > rt.r
}

// selectRecordersInto returns the awake nodes within maxDist of the
// broadcast's predicted-area center that physically received the attempt-th
// transmission of the broadcast: within the communication radius of the
// sender (or the sender itself). The returned slice aliases *buf (grown in
// place) and is invalidated by the next call with the same buffer.
func (t *Tracker) selectRecordersInto(buf *[]wsn.NodeID, b bcast, maxDist float64, attempt int) []wsn.NodeID {
	commR := t.nw.Cfg.CommRadius
	*buf = t.nw.AppendActiveNodesWithin((*buf)[:0], b.area.Center, maxDist)
	cand := *buf
	recorders := cand[:0]
	for _, id := range cand {
		if id == b.id || (t.nw.Node(id).Pos.Dist(b.pos) <= commR && t.nw.DeliversAttempt(b.id, id, attempt)) {
			recorders = append(recorders, id)
		}
	}
	return recorders
}

// gatherBcastColumns mirrors this iteration's finalized broadcasts into the
// flat scratch columns the batch kernels read.
func (t *Tracker) gatherBcastColumns(bcasts []bcast) {
	scr := &t.scr
	n := len(bcasts)
	scr.bx, scr.by, scr.bw, scr.bid = grow(scr.bx, n), grow(scr.by, n), grow(scr.bw, n), grow(scr.bid, n)
	for i := range bcasts {
		b := &bcasts[i]
		scr.bx[i], scr.by[i], scr.bw[i], scr.bid[i] = b.pos.X, b.pos.Y, b.w, int32(b.id)
	}
}

// overheardTotalCompute returns the sum of broadcast weights receivable at
// node id — broadcasts from within the communication radius (overhearing
// effect) — plus whether loss compensation fired. It has no counter side
// effect, so memo layers can replay the Compensated counter per lookup.
// Within one propagation phase the total is a pure function of (id, bcasts,
// loss epoch); when no loss process is configured it delegates to the
// loss-free batch kernel over the gathered broadcast columns (identical
// Hypot operands, identical summation order).
func (t *Tracker) overheardTotalCompute(id wsn.NodeID, bcasts []bcast) (float64, bool) {
	pos := t.nw.Node(id).Pos
	commR := t.nw.Cfg.CommRadius
	if t.nw.LossFree() {
		scr := &t.scr
		return kernel.OverheardSum(scr.bx, scr.by, scr.bw, scr.bid, int32(id), pos.X, pos.Y, commR), false
	}
	total := 0.0
	heard, inRange := 0, 0
	for i := range bcasts {
		if bcasts[i].id == id {
			total += bcasts[i].w
			heard++
			inRange++
			continue
		}
		if bcasts[i].pos.Dist(pos) > commR {
			continue
		}
		inRange++
		if t.nw.Delivers(bcasts[i].id, id) {
			total += bcasts[i].w
			heard++
		}
	}
	return t.compensate(total, heard, inRange)
}

// compensate applies CompensateLoss to an overheard total. A radio detects
// in-range frames it failed to decode (preamble heard, CRC failed) even
// though it cannot recover their payloads, so the recorder knows how many
// in-range propagation broadcasts it missed and scales the weight it did
// observe by inRange/heard. Without packet loss heard == inRange and the
// total is returned unchanged.
func (t *Tracker) compensate(total float64, heard, inRange int) (float64, bool) {
	comp := t.cfg.CompensateLoss && heard > 0 && inRange > heard
	if comp {
		total *= float64(inRange) / float64(heard)
	}
	return total, comp
}

// overheardTotalMemo is the memoized overheardTotalCompute: the seed
// recomputed the same total for every (broadcast, recorder) pair — O(B²·R)
// distance and loss work per iteration — while it only depends on the
// recorder. The memo is invalidated per propagation phase (otEpoch), and
// every lookup of a compensated total counts one Compensated event, as one
// uncached computation per lookup would.
func (t *Tracker) overheardTotalMemo(id wsn.NodeID, bcasts []bcast) float64 {
	scr := &t.scr
	if scr.otStamp[id] != scr.otEpoch {
		scr.otStamp[id] = scr.otEpoch
		scr.otVal[id], scr.otComp[id] = t.overheardTotalCompute(id, bcasts)
	}
	if scr.otComp[id] {
		t.resil.Compensated++
	}
	return scr.otVal[id]
}

// effSigma returns the bearing-noise scale used when evaluating a
// measurement taken at `from` against candidate position `cand`: the sensor
// noise inflated by the node-quantization term QuantSigma/d (the particle is
// pinned to a node position, so it carries positional uncertainty of about
// half the internode spacing).
func (t *Tracker) effSigma(from, cand mathx.Vec2) float64 {
	sigma := t.cfg.Sensor.SigmaN
	if t.cfg.QuantSigma > 0 {
		d := from.Dist(cand)
		if d < 1 {
			d = 1
		}
		q := t.cfg.QuantSigma / d
		sigma = math.Sqrt(sigma*sigma + q*q)
	}
	return sigma
}

// gatherSharerColumns mirrors the usable sharers' positions and bearings into
// the flat scratch columns the holder-update kernel reads.
func (t *Tracker) gatherSharerColumns(sharers []wsn.NodeID) {
	scr := &t.scr
	n := len(sharers)
	scr.sx, scr.sy, scr.sz = grow(scr.sx, n), grow(scr.sy, n), grow(scr.sz, n)
	for i, sid := range sharers {
		pos := t.nw.Node(sid).Pos
		scr.sx[i], scr.sy[i] = pos.X, pos.Y
		scr.sz[i], _ = t.hasObs(sid)
	}
}

// holderLL computes one holder's joint log likelihood over the audible
// sharers via the batch kernel. The per-sharer distance doubles as the radio
// range check and the quantization-sigma input — the scalar path computed the
// identical math.Hypot twice (Vec2.Dist in the range test, effSigma's from
// .Dist(cand)), so sharing one evaluation is bit-identical. The caller sizes
// the pairDist and pairMask scratch to len(sharers).
func (t *Tracker) holderLL(id wsn.NodeID, sharers []wsn.NodeID) (ll float64, heard bool, gated int) {
	pos := t.nw.Node(id).Pos
	commR := t.nw.Cfg.CommRadius
	scr := &t.scr
	dist, mask := scr.pairDist, scr.pairMask
	lossFree := t.nw.LossFree()
	for k, sid := range sharers {
		d := math.Hypot(scr.sx[k]-pos.X, scr.sy[k]-pos.Y)
		dist[k] = d
		mask[k] = sid == id || (d <= commR && (lossFree || t.nw.Delivers(sid, id)))
	}
	return t.bk.MaskedSum(scr.sx, scr.sy, scr.sz, dist, mask, pos.X, pos.Y)
}

// scoreSharers runs one round of the quarantine reputation update. The
// consensus reference is the least-squares triangulation of the cohort's own
// bearings — every participant can compute it from the measurement broadcasts
// it already overhears, and unlike the predicted target position it carries
// no prediction error: honest bearings all pass near the true target, so an
// honest node's residual against the fix reflects only measurement noise and
// node quantization, while a lying sensor's bearing line misses the fix by
// construction. Each node's absolute bearing residual against the fix,
// normalized by its effective sigma, feeds the reputation state machine
// (whose median test additionally guards the rounds where faulty bearings
// dragged the fix itself off target).
func (t *Tracker) scoreSharers(sharers []wsn.NodeID) {
	if t.quar == nil || len(sharers) < quarMinCohort {
		return
	}
	ms := t.scr.ms[:0]
	for _, id := range sharers {
		b, _ := t.hasObs(id)
		ms = append(ms, statex.Measurement{From: t.nw.Node(id).Pos, Bearing: b})
	}
	t.scr.ms = ms
	fix, ok := statex.TriangulateBearings(ms)
	if !ok {
		return
	}
	norms := t.scr.norms[:0]
	for _, id := range sharers {
		pos := t.nw.Node(id).Pos
		sigma := t.effSigma(pos, fix)
		b, _ := t.hasObs(id)
		resid := mathx.AngleDiff(b, fix.Sub(pos).Angle())
		norms = append(norms, math.Abs(resid)/sigma)
	}
	t.scr.norms = norms
	t.quar.observe(sharers, norms)
}

// assignLikelihood implements steps 5–6 of CDPF: particle-holding nodes that
// detected the target broadcast their measurements (size Dm); every holder
// computes the joint likelihood of the measurements it heard at its own
// position and multiplies it into its weight. Holders that hear no
// measurement while measurements exist drop their particles (the
// "zero or almost zero density" rule of Section III-B).
//
// With the sensing defenses enabled (DESIGN.md §9) three filters sit between
// a shared measurement and a holder's weight: quarantined nodes' broadcasts
// are ignored by every receiver (they still transmit — a lying sensor does
// not know it is distrusted, so the bytes are still charged), the innovation
// gate clamps individual wildly-inconsistent terms to its boundary, and the
// heavy-tailed noise model bounds the damage of whatever slips through.
func (t *Tracker) assignLikelihood(obs []Observation, res *StepResult) {
	if t.parts.len() == 0 && len(obs) == 0 {
		return
	}
	t.indexObs(obs)
	// Sharers: holders with a measurement (the N_n measurement-sharing
	// nodes of Section II-B).
	sharers := t.scr.sharers[:0]
	for _, id := range t.parts.sorted() {
		if _, ok := t.hasObs(id); ok {
			sharers = append(sharers, id)
		}
	}
	t.scr.sharers = sharers
	for _, id := range sharers {
		t.nw.Transmit(id, wsn.MsgMeasurement, t.cfg.Sizes.Dm)
	}
	if len(sharers) == 0 {
		// No holder has a measurement to share: an information-free
		// iteration for the cloud (possible divergence — handled by the
		// recovery logic in Step). Weights persist.
		return
	}
	// Reputation round, then drop quarantined sharers from the usable set.
	t.scoreSharers(sharers)
	if t.quar != nil {
		usable := sharers[:0]
		for _, id := range sharers {
			if !t.quar.isQuarantined(id) {
				usable = append(usable, id)
			}
		}
		sharers = usable
		if len(sharers) == 0 {
			// Every sharer is quarantined: treat as an information-free
			// iteration rather than trusting known-bad measurements.
			return
		}
	}
	t.gatherSharerColumns(sharers)
	holders := t.snapshotHolders()
	logls := grow(t.scr.logls, len(holders))
	heardAny := grow(t.scr.heard, len(holders))
	t.scr.logls, t.scr.heard = logls, heardAny
	t.scr.pairDist = grow(t.scr.pairDist, len(sharers))
	t.scr.pairMask = grow(t.scr.pairMask, len(sharers))
	for i, id := range holders {
		ll, heard, g := t.holderLL(id, sharers)
		logls[i] = ll
		heardAny[i] = heard
		t.gated += g
	}
	// Common rescaling by the maximum log-likelihood. This is a uniform
	// scale factor (normalization happens next iteration via overhearing),
	// applied here only to keep weights within floating-point range.
	maxLL := math.Inf(-1)
	for i, h := range heardAny {
		if h && logls[i] > maxLL {
			maxLL = logls[i]
		}
	}
	for i, id := range holders {
		if !heardAny[i] {
			// Measurements exist but none audible here: treat as zero
			// density and drop.
			t.parts.remove(id)
			res.Dropped++
			continue
		}
		w := t.parts.w[id] * math.Exp(logls[i]-maxLL)
		if w <= 0 || math.IsNaN(w) {
			t.parts.remove(id)
			res.Dropped++
			continue
		}
		t.parts.w[id] = w
	}
}

// assignNE implements CDPF-NE's weight assignment: no measurement traffic;
// each holder multiplies its weight by its own estimated contribution
// within the estimation area around the predicted position. Holders outside
// the estimation area receive contribution 0 and are dropped.
//
// Additionally, a holder that itself detected the target folds that free
// local knowledge into its weight (the paper's "adaptively determined
// according to the received signal strength" initialization rule, applied
// at every iteration): detection means the target is within the sensing
// radius of the holder, which is strong evidence for the holder-position
// hypothesis and costs zero communication.
func (t *Tracker) assignNE(obs []Observation, res *StepResult) {
	if t.parts.len() == 0 {
		return
	}
	if !res.PredictedValid {
		return // no prediction yet (first iteration): weights persist
	}
	if !EstimateContributionsInto(t.nw, res.Predicted, t.nw.Cfg.SensingRadius, &t.scr.contrib) {
		return
	}
	cs := &t.scr.contrib
	t.scr.contribEpoch++
	for i, id := range cs.Nodes {
		t.scr.contribStamp[id] = t.scr.contribEpoch
		t.scr.contribVal[id] = cs.C[i]
	}
	t.indexObs(obs)
	for _, id := range t.snapshotHolders() {
		c := 0.0
		if t.scr.contribStamp[id] == t.scr.contribEpoch {
			c = t.scr.contribVal[id]
		}
		if c <= 0 {
			t.parts.remove(id)
			res.Dropped++
			continue
		}
		w := t.parts.w[id] * c
		if _, detected := t.hasObs(id); detected {
			w *= t.cfg.NEDetectBoost
		}
		t.parts.w[id] = w
	}
}

// initWeight is the weight given to brand-new particles when no other
// particles exist (the paper: "configured as a constant").
const initWeight = 1.0

// createFresh implements the initialization rule and the Section III-B
// creation rule: a node that detects the target but did not receive any
// propagated particles this iteration spawns a new one (e.g. the node
// outside all predicted areas in Fig. 1). When every particle has been lost
// while detections exist, the filter re-initializes on all detectors — the
// same procedure as the first iteration.
//
// A new particle's weight is the mean weight of the surviving particles (so
// it joins at a typical scale) or initWeight on an empty track; its velocity
// is inferred from the displacement between the detection position and the
// last overheard estimate.
func (t *Tracker) createFresh(obs []Observation, res *StepResult) {
	if len(obs) == 0 {
		return
	}
	reinit := t.parts.len() == 0 // track lost (or first iteration)
	base := initWeight
	if !reinit {
		total := 0.0
		for _, id := range t.parts.sorted() {
			total += t.parts.w[id]
		}
		base = total / float64(t.parts.len())
	}
	for _, o := range obs {
		if t.parts.has(o.Node) {
			continue
		}
		if !t.nw.Node(o.Node).Active() {
			continue
		}
		if !reinit && t.heardPropagation(o.Node) {
			continue // received propagated particles: no creation
		}
		var vel mathx.Vec2
		if res.EstimateValid {
			vel = t.nw.Node(o.Node).Pos.Sub(res.Estimate).Scale(1 / t.cfg.Dt)
		}
		t.parts.add(o.Node, vel, base)
		res.Created++
	}
}
