package core

import (
	"fmt"
	"slices"

	"repro/internal/mathx"
	"repro/internal/wsn"
)

// Tracker state export/restore (DESIGN.md §12). The dense particle store
// makes the tracker's between-steps state flat and small: the particle table
// (holder ID, weight, velocity), a handful of counters, and — when the
// sensing defenses are on — the quarantine reputation maps. Everything else
// the tracker owns (the scratch arena, lastBcasts) is per-iteration working
// memory with no cross-step meaning: Step resets it before reading it.
//
// The invariant SaveState/RestoreState maintain is bit-reproducibility: a
// tracker restored from a mid-run state and stepped through the remaining
// observations produces exactly the outputs the uninterrupted tracker would
// have. That is what lets internal/durable verify crash recovery by diffing
// traces byte-for-byte against the offline twin.

// HolderState is one particle-holding node's persisted particle.
type HolderState struct {
	ID  wsn.NodeID
	W   float64
	Vel mathx.Vec2
}

// NodeScore pairs a node with its quarantine reputation score.
type NodeScore struct {
	ID    wsn.NodeID
	Score float64
}

// ReputationState is the quarantine state machine's persisted state
// (DESIGN.md §9), with all sets in ascending node order for determinism.
type ReputationState struct {
	Scores       []NodeScore
	Quarantined  []wsn.NodeID
	Ever         []wsn.NodeID
	Scored       []wsn.NodeID
	Evictions    int
	Readmissions int
}

// TrackerState is the complete mutable state of a Tracker between Step
// calls. Quar is nil when the quarantine defense is disabled.
type TrackerState struct {
	Holders     []HolderState
	MissedIters int
	Iter        int
	LostAt      int
	EverEst     bool
	Gated       int
	Resil       ResilienceStats
	Quar        *ReputationState
}

// SaveState captures the tracker's between-steps state. The result shares no
// memory with the tracker and is deterministic (holders ascending by ID).
func (t *Tracker) SaveState() TrackerState {
	ids := t.parts.sorted()
	holders := make([]HolderState, len(ids))
	for i, id := range ids {
		holders[i] = HolderState{ID: id, W: t.parts.w[id], Vel: t.parts.vel[id]}
	}
	st := TrackerState{
		Holders:     holders,
		MissedIters: t.missedIters,
		Iter:        t.iter,
		LostAt:      t.lostAt,
		EverEst:     t.everEst,
		Gated:       t.gated,
		Resil:       t.resil,
	}
	st.Resil.Reacquires = slices.Clone(t.resil.Reacquires)
	if t.quar != nil {
		q := &ReputationState{
			Quarantined:  sortedIDs(t.quar.quarantined),
			Ever:         sortedIDs(t.quar.ever),
			Scored:       sortedIDs(t.quar.scored),
			Evictions:    t.quar.evictions,
			Readmissions: t.quar.readmissions,
		}
		q.Scores = make([]NodeScore, 0, len(t.quar.score))
		for id, s := range t.quar.score {
			q.Scores = append(q.Scores, NodeScore{ID: id, Score: s})
		}
		slices.SortFunc(q.Scores, func(a, b NodeScore) int { return int(a.ID) - int(b.ID) })
		st.Quar = q
	}
	return st
}

// RestoreState overwrites the tracker's between-steps state with a state
// captured by SaveState on a tracker with the same network and configuration.
// Subsequent Step calls behave bit-identically to the saved tracker's.
func (t *Tracker) RestoreState(st TrackerState) error {
	n := t.nw.Len()
	t.parts.clear()
	var prev wsn.NodeID = 0
	for i, h := range st.Holders {
		if int(h.ID) < 0 || int(h.ID) >= n {
			return fmt.Errorf("core: restore: holder %d out of range [0, %d)", h.ID, n)
		}
		if i > 0 && h.ID <= prev {
			return fmt.Errorf("core: restore: holder IDs not strictly ascending at %d", h.ID)
		}
		prev = h.ID
		t.parts.add(h.ID, h.Vel, h.W)
	}
	t.missedIters = st.MissedIters
	t.iter = st.Iter
	t.lostAt = st.LostAt
	t.everEst = st.EverEst
	t.gated = st.Gated
	t.resil = st.Resil
	t.resil.Reacquires = slices.Clone(st.Resil.Reacquires)
	t.lastBcasts = t.lastBcasts[:0]

	switch {
	case st.Quar == nil && t.quar == nil:
	case st.Quar == nil:
		// Quarantine configured but the state predates any scoring: reset.
		t.quar = newReputation()
	case t.quar == nil:
		return fmt.Errorf("core: restore: state carries quarantine data but the tracker has quarantine disabled")
	default:
		q := newReputation()
		for _, s := range st.Quar.Scores {
			if int(s.ID) < 0 || int(s.ID) >= n {
				return fmt.Errorf("core: restore: scored node %d out of range [0, %d)", s.ID, n)
			}
			q.score[s.ID] = s.Score
		}
		for _, id := range st.Quar.Quarantined {
			q.quarantined[id] = true
		}
		for _, id := range st.Quar.Ever {
			q.ever[id] = true
		}
		for _, id := range st.Quar.Scored {
			q.scored[id] = true
		}
		q.evictions = st.Quar.Evictions
		q.readmissions = st.Quar.Readmissions
		t.quar = q
	}
	return nil
}
