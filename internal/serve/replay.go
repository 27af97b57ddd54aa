package serve

import (
	"fmt"

	"repro/internal/durable"
	"repro/internal/trace"
)

// Replay re-runs one logged session offline from its WAL history alone: a
// fresh build of the admitted spec stepped through every logged batch,
// ignoring snapshots entirely. Because the WAL carries the exact admitted
// observations and the spec pins every seed, the result reproduces the
// production session's trace from nothing but the log — the time-travel
// debugging mode cdpfsim's -replay-dir flag exposes.
func Replay(rec *durable.Recovery, id string) (*trace.Recorder, error) {
	log := rec.Sessions[id]
	if log == nil {
		known := make([]string, 0, len(rec.Order))
		known = append(known, rec.Order...)
		return nil, fmt.Errorf("serve: no session %q in the WAL (have %v)", id, known)
	}
	// A migrated-in session's log starts at its import record's handoff
	// snapshot: restore from it (its Records carry the pre-migration trace,
	// so the replay still reproduces the full run) and step the tail.
	var s *session
	var err error
	if log.Base != nil {
		s, err = restoreSession(id, 0, log.Base)
	} else {
		s, err = loggedSession(id, 0, log.SpecJSON)
	}
	if err != nil {
		return nil, err
	}
	out := trace.New(s.spec.Cell.Algo, s.sc.P.Density, s.sc.P.Seed)
	if log.Base != nil {
		out.Records = append(out.Records, log.Base.Records...)
	}
	for _, b := range log.Batches {
		if b.K != s.stepped {
			return nil, fmt.Errorf("serve: WAL for %q jumps from step %d to k=%d", id, s.stepped, b.K)
		}
		rec, err := s.stepLogged(b)
		if err != nil {
			return nil, fmt.Errorf("serve: replaying session %q: %w", id, err)
		}
		out.Add(rec)
	}
	return out, nil
}
