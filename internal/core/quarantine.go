package core

import (
	"math"
	"slices"
	"sort"

	"repro/internal/wsn"
)

// Online node quarantine (DESIGN.md §9). The likelihood step is the fusion
// primitive of the whole filter — one persistently lying sensor inside the
// predicted area poisons every holder's weight — so the defense sits exactly
// there: each measurement-sharing node carries a reputation score updated
// from cross-node residual consensus, and nodes whose readings persistently
// deviate from the cohort are quarantined (their shared measurements are
// ignored by every receiver) until their readings become consistent again.
//
// The consensus reference is the predicted target position every participant
// already derives from the overheard propagation broadcasts: it is shared by
// construction, costs no extra communication, and the *median* cohort
// residual guards the test against a bad prediction (when the prediction is
// off, every node shows a large residual, the median rises, and nobody is
// flagged — deviance is always relative to the peers, never absolute alone).
//
// The state machine is hysteretic so a single unlucky reading cannot evict a
// healthy node and a single lucky one cannot readmit a stuck sensor:
//
//	score 1.0 ──deviant──▶ ×quarPenalty ──...──▶ < quarEnter: QUARANTINED
//	QUARANTINED ──consistent──▶ +quarRecovery ──...──▶ > quarExit: readmitted
//
// Scores clamp to [0, 1], and the penalty scales with the strength of the
// evidence: a reading k·quarDevSigma beyond consensus multiplies the score by
// quarPenalty^k (capped at k = quarMaxStrength). A borderline deviant thus
// needs two strikes to evict while a grossly deviant reading (≳5σ beyond the
// consensus fix) evicts on sight — necessary because the target sweeps past
// each sensor in about one iteration, so the sharing cohort turns over almost
// completely between steps and a faulty node is typically judged only once.
// A recovered (or unluckily evicted) sensor climbs back out through
// consistent readings.
const (
	// quarDevSigma is the normalized-residual threshold beyond which a
	// sharer's reading counts as deviant for reputation scoring (the reading
	// must also exceed quarMedianSlack times the cohort's median residual).
	quarDevSigma = 3.0
	// quarPenalty multiplies a node's score on each deviant reading.
	quarPenalty = 0.5
	// quarRecovery is added to a node's score on each consistent reading.
	quarRecovery = 0.15
	// quarEnter is the score below which a node is quarantined.
	quarEnter = 0.3
	// quarExit is the score a quarantined node must exceed to be readmitted.
	quarExit = 0.6
	// quarMinCohort is the minimum number of simultaneous sharers required
	// to score at all: deviance is a cross-node consensus judgement, which
	// is meaningless against fewer than two peers.
	quarMinCohort = 3
	// quarMedianSlack scales the cohort median in the deviance test: a node
	// is deviant only if its residual also exceeds quarMedianSlack times the
	// median cohort residual, so a poor shared prediction (which inflates
	// everyone's residual) flags nobody.
	quarMedianSlack = 2.0
	// quarMaxStrength caps the evidence-scaled penalty exponent so one
	// astronomically wrong reading cannot park the score at an unrecoverable
	// denormal.
	quarMaxStrength = 4.0
)

// reputation tracks per-node sensing trust for one tracker instance.
type reputation struct {
	score       map[wsn.NodeID]float64
	quarantined map[wsn.NodeID]bool
	ever        map[wsn.NodeID]bool
	scored      map[wsn.NodeID]bool

	// medScratch buffers the cohort-median sort so observe allocates only
	// while the cohort high-water mark grows.
	medScratch []float64

	evictions    int
	readmissions int
}

// newReputation returns an empty reputation tracker flagging residuals
// beyond quarDevSigma effective sigmas.
func newReputation() *reputation {
	return &reputation{
		score:       make(map[wsn.NodeID]float64),
		quarantined: make(map[wsn.NodeID]bool),
		ever:        make(map[wsn.NodeID]bool),
		scored:      make(map[wsn.NodeID]bool),
	}
}

// isQuarantined reports whether node id's measurements are currently ignored.
func (r *reputation) isQuarantined(id wsn.NodeID) bool { return r.quarantined[id] }

// observe scores one iteration's measurement-sharing cohort. normResid[i] is
// sharer ids[i]'s absolute bearing residual against the consensus predicted
// position, normalized by that node's effective noise sigma. Cohorts smaller
// than quarMinCohort are ignored.
func (r *reputation) observe(ids []wsn.NodeID, normResid []float64) {
	if len(ids) < quarMinCohort {
		return
	}
	r.medScratch = append(r.medScratch[:0], normResid...)
	med := medianInPlace(r.medScratch)
	for i, id := range ids {
		r.scored[id] = true
		s, known := r.score[id]
		if !known {
			s = 1
		}
		deviant := normResid[i] > quarDevSigma && normResid[i] > quarMedianSlack*med
		if deviant {
			strength := normResid[i] / quarDevSigma
			if strength > quarMaxStrength {
				strength = quarMaxStrength
			}
			s *= math.Pow(quarPenalty, strength)
		} else {
			s += quarRecovery
			if s > 1 {
				s = 1
			}
		}
		r.score[id] = s
		switch {
		case !r.quarantined[id] && s < quarEnter:
			r.quarantined[id] = true
			r.ever[id] = true
			r.evictions++
		case r.quarantined[id] && s > quarExit:
			delete(r.quarantined, id)
			r.readmissions++
		}
	}
}

// sortedIDs returns the keys of set in ascending order.
func sortedIDs(set map[wsn.NodeID]bool) []wsn.NodeID {
	out := make([]wsn.NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median returns the median of xs (mean of the middle pair for even lengths)
// without mutating the input. It returns 0 for an empty slice.
func median(xs []float64) float64 {
	s := make([]float64, len(xs))
	copy(s, xs)
	return medianInPlace(s)
}

// medianInPlace is median sorting its argument in place; hot callers pass a
// reused scratch copy to avoid the defensive allocation.
func medianInPlace(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// QuarantineStats reports the sensing-defense counters of a run: how many
// measurement terms the innovation gate excluded, and the quarantine state
// machine's transitions and current/historical membership.
type QuarantineStats struct {
	// Gated counts (holder, measurement) likelihood terms whose residual the
	// innovation gate clamped to the gate boundary.
	Gated int
	// Evictions and Readmissions count quarantine state transitions.
	Evictions    int
	Readmissions int
	// Quarantined lists the currently quarantined nodes, sorted.
	Quarantined []wsn.NodeID
	// Ever lists every node quarantined at any point of the run, sorted —
	// the detector output scored against the fault script's ground truth.
	Ever []wsn.NodeID
	// Scored lists every node the reputation machine ever judged (shared a
	// measurement in a large-enough cohort), sorted. The detector's recall
	// is only meaningful over this set: a faulty node that never shared is
	// outside its reach by construction.
	Scored []wsn.NodeID
}

// Quarantine returns the tracker's sensing-defense counters. All fields are
// zero when the defenses are disabled.
func (t *Tracker) Quarantine() QuarantineStats {
	s := QuarantineStats{Gated: t.gated}
	if t.quar != nil {
		s.Evictions = t.quar.evictions
		s.Readmissions = t.quar.readmissions
		s.Quarantined = sortedIDs(t.quar.quarantined)
		s.Ever = sortedIDs(t.quar.ever)
		s.Scored = sortedIDs(t.quar.scored)
	}
	return s
}
