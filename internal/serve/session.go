package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/mathx"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/wsn"
)

// session is one live tracking run: a scenario (network deployment, ground
// truth, filter timeline), a tracker, and the RNG stream the offline run
// would consume. All mutable state is owned by the session's shard
// goroutine; the mutex only guards the record history and subscriber list,
// which the HTTP handlers read concurrently.
type session struct {
	id    string
	shard int
	spec  SessionSpec
	// specJSON is the normalized spec as admitted, the exact bytes the WAL
	// create record and every snapshot carry. Recovery compares these bytes to
	// decide whether a snapshot belongs to the current WAL incarnation of the
	// session ID.
	specJSON []byte

	sc  *scenario.Scenario
	tr  *core.Tracker
	rng *mathx.RNG
	// faults is the session's scheduled fault script (empty unless the spec
	// is a cell with a fail-stop axis). The shard goroutine replays it ahead
	// of each step, exactly where the offline loop does.
	faults *wsn.FaultSchedule

	// queued counts admitted-but-unstepped batches against spec.Queue; the
	// HTTP handler increments it under the manager's admission lock and the
	// shard goroutine decrements it after stepping.
	queued int

	// nextK is the next iteration the session expects to be fed. Admission
	// (not stepping) advances it, so a multi-batch request is validated as a
	// consecutive run and a concurrent feeder sees a coherent sequence.
	nextK int

	mu      sync.Mutex
	records []trace.Record
	stepped int
	subs    []chan trace.Record
	done    bool
}

// buildSession resolves a normalized SessionSpec's cell into the scenario,
// tracker configuration, fault schedule, and algorithm label. It is the one
// constructor behind newSession, OfflineTrace, and Observations, so a served
// session and its offline twin cannot drift apart.
func buildSession(sp SessionSpec) (*scenario.Scenario, core.Config, *wsn.FaultSchedule, string, error) {
	fail := func(err error) (*scenario.Scenario, core.Config, *wsn.FaultSchedule, string, error) {
		return nil, core.Config{}, nil, "", err
	}
	if sp.Cell == nil {
		return fail(fmt.Errorf("serve: session spec needs a cell"))
	}
	ax := *sp.Cell
	if err := ax.Validate(); err != nil {
		return fail(err)
	}
	if !ax.IsCDPF() || ax.Duty > 0 || ax.Mobility > 0 || ax.Targets > 1 {
		return fail(fmt.Errorf("serve: cell not serveable: sessions run algo cdpf or cdpf-ne with duty 0, mobility 0, targets 1 (got algo %s, duty %v, mobility %v, targets %d)",
			ax.Algo, ax.Duty, ax.Mobility, ax.Targets))
	}
	sc, faults, err := ax.Build()
	if err != nil {
		return fail(err)
	}
	cfg, err := ax.TrackerConfig()
	if err != nil {
		return fail(err)
	}
	return sc, cfg, faults, ax.Algo, nil
}

// newSession builds the scenario and tracker for a normalized spec. The
// tracker RNG is sc.RNG(1) — the exact stream cdpfsim and OfflineTrace use —
// so a served session and its offline twin consume identical randomness.
func newSession(id string, shard int, spec SessionSpec) (*session, error) {
	sc, cfg, faults, _, err := buildSession(spec)
	if err != nil {
		return nil, err
	}
	tr, err := core.NewTracker(sc.Net, cfg)
	if err != nil {
		return nil, err
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return &session{
		id: id, shard: shard, spec: spec, specJSON: specJSON,
		sc: sc, tr: tr, rng: sc.RNG(1), faults: faults,
	}, nil
}

// loggedSession builds a fresh session from logged spec bytes (a WAL create
// record or a snapshot), keeping the bytes verbatim: future snapshots must
// keep matching the WAL create record even if the decoded spec would
// re-marshal differently (a legacy record always does).
func loggedSession(id string, shard int, specJSON []byte) (*session, error) {
	spec, err := decodeSpec(specJSON)
	if err != nil {
		return nil, fmt.Errorf("serve: logged spec for %q: %w", id, err)
	}
	s, err := newSession(id, shard, spec)
	if err != nil {
		return nil, err
	}
	s.specJSON = specJSON
	return s, nil
}

// snapshot captures the session's complete durable state. Tracker, RNG, and
// network state are only mutated by step, so callers must hold the stepping
// role: the owning shard goroutine, or the manager after the shards exited
// (drain) or before they see the session (recovery).
func (s *session) snapshot() *durable.Snapshot {
	s.mu.Lock()
	records := make([]trace.Record, len(s.records))
	copy(records, s.records)
	stepped := s.stepped
	s.mu.Unlock()
	return &durable.Snapshot{
		ID:        s.id,
		SpecJSON:  s.specJSON,
		Stepped:   stepped,
		RNG:       s.rng.State(),
		Comm:      s.sc.Net.Stats.Snapshot(),
		LossEpoch: s.sc.Net.LossEpoch(),
		Tracker:   s.tr.SaveState(),
		Records:   records,
	}
}

// restoreSession rebuilds a session from a snapshot: a fresh build of the
// same spec with every deterministic stream repositioned, so subsequent
// steps are bit-identical to the crashed process's. The caller has already
// verified the snapshot's spec bytes match the WAL's create record.
func restoreSession(id string, shard int, snap *durable.Snapshot) (*session, error) {
	s, err := loggedSession(id, shard, snap.SpecJSON)
	if err != nil {
		return nil, err
	}
	if err := s.tr.RestoreState(snap.Tracker); err != nil {
		return nil, err
	}
	if snap.Stepped > s.iterations() || snap.Stepped != len(snap.Records) {
		return nil, fmt.Errorf("serve: snapshot for %q stepped %d with %d records over %d iterations",
			id, snap.Stepped, len(snap.Records), s.iterations())
	}
	s.rng.SetState(snap.RNG)
	*s.sc.Net.Stats = snap.Comm
	s.sc.Net.SetLossEpoch(snap.LossEpoch)
	s.records = append(s.records, snap.Records...)
	s.stepped = snap.Stepped
	s.nextK = snap.Stepped
	s.done = snap.Stepped >= s.iterations()
	// Node up/down state is not in the snapshot: the fault schedule is a
	// pure function of the spec, so replaying it up to the last stepped
	// iteration's time reproduces the exact network state.
	if s.stepped > 0 {
		s.faults.ApplyUntil(s.sc.Net, s.sc.Filter.Times[s.stepped-1])
	}
	return s, nil
}

// iterations is the total filter iteration count (Steps+1, including t=0).
func (s *session) iterations() int { return s.sc.Iterations() }

// checkNodes rejects a batch naming a node outside the session's network:
// the tracker indexes its per-node tables by the ID, so admitting one would
// panic the shard goroutine, and logging one would panic every recovery.
func (s *session) checkNodes(b Batch) error {
	n := s.sc.Net.Len()
	for _, m := range b.Obs {
		if m.Node < 0 || m.Node >= n {
			return fmt.Errorf("batch k=%d names node %d outside [0, %d)", b.K, m.Node, n)
		}
	}
	return nil
}

// stepLogged re-steps one WAL batch during recovery or replay, refusing a
// batch checkNodes would have rejected at admission.
func (s *session) stepLogged(r *durable.BatchRecord) (trace.Record, error) {
	b := wireBatch(r)
	if err := s.checkNodes(b); err != nil {
		return trace.Record{}, err
	}
	return s.step(b), nil
}

// step runs one filter iteration on the shard goroutine and returns the
// record it published. It must be called with consecutive k starting at 0;
// the manager's admission logic guarantees that ordering.
func (s *session) step(b Batch) trace.Record {
	obs := make([]core.Observation, len(b.Obs))
	for i, m := range b.Obs {
		obs[i] = core.Observation{Node: wsn.NodeID(m.Node), Bearing: m.Bearing}
	}
	s.faults.ApplyUntil(s.sc.Net, s.sc.Filter.Times[b.K])
	rec := stepTracker(s.sc, s.tr, s.rng, b.K, obs)

	s.mu.Lock()
	s.records = append(s.records, rec)
	s.stepped++
	done := s.stepped >= s.iterations()
	s.done = done
	// Copy under the lock: unsubscribe compacts s.subs in place.
	subs := append([]chan trace.Record(nil), s.subs...)
	s.mu.Unlock()

	for _, ch := range subs {
		// Subscriber channels are sized for the whole run at subscribe time,
		// so this never blocks the shard goroutine.
		ch <- rec
	}
	if done {
		s.mu.Lock()
		subs, s.subs = s.subs, nil
		s.mu.Unlock()
		for _, ch := range subs {
			close(ch)
		}
	}
	return rec
}

// subscribe returns the records published so far plus a channel for the
// rest. The channel is buffered for every remaining iteration and is closed
// when the session completes; a nil channel means the session already
// finished and the snapshot is the complete run.
func (s *session) subscribe() ([]trace.Record, <-chan trace.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := make([]trace.Record, len(s.records))
	copy(snap, s.records)
	if s.done {
		return snap, nil
	}
	ch := make(chan trace.Record, s.iterations()-len(s.records))
	s.subs = append(s.subs, ch)
	return snap, ch
}

// unsubscribe removes a live subscription (client went away mid-stream).
func (s *session) unsubscribe(ch <-chan trace.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, c := range s.subs {
		if c == ch {
			s.subs = append(s.subs[:i], s.subs[i+1:]...)
			return
		}
	}
}

// closeSubs terminates all live subscriptions (manager drain).
func (s *session) closeSubs() {
	s.mu.Lock()
	subs := s.subs
	s.subs = nil
	s.mu.Unlock()
	for _, ch := range subs {
		close(ch)
	}
}

// info snapshots the session for the status endpoint. queued/nextK are read
// under the manager's admission lock by the caller and passed in.
func (s *session) info(queued, nextK int) SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := trace.Recorder{Records: s.records}
	return SessionInfo{
		ID:         s.id,
		Shard:      s.shard,
		Iterations: s.iterations(),
		NextK:      nextK,
		Stepped:    s.stepped,
		Done:       s.done,
		Queue:      s.spec.Queue,
		Queued:     queued,
		Nodes:      s.sc.Net.Len(),
		RMSE:       finiteOrZero(rec.RMSE()),
	}
}

// finiteOrZero maps the no-estimates-yet NaN RMSE to 0, keeping SessionInfo
// JSON-encodable (encoding/json rejects NaN).
func finiteOrZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// stepTracker is the one shared per-iteration code path of the served and
// offline runs: step the tracker on iteration k's observations and build the
// canonical trace record (truth, estimate-for-previous-iteration, detector
// count, communication deltas). Byte-identity between cdpfd streams and
// offline traces holds because both sides run exactly this function.
func stepTracker(sc *scenario.Scenario, tr *core.Tracker, rng *mathx.RNG, k int, obs []core.Observation) trace.Record {
	before := sc.Net.Stats.Snapshot()
	res := tr.Step(obs, rng)
	d := sc.Net.Stats.Diff(before)
	rec := trace.Record{
		K: k, Time: sc.Filter.Times[k],
		TruthX: sc.Truth(k).X, TruthY: sc.Truth(k).Y,
		Detectors: len(sc.DetectingNodes(k)), Holders: res.Holders,
		MsgsDelta: d.TotalMsgs(), BytesDelta: d.TotalBytes(),
	}
	if res.EstimateValid && k >= 1 {
		rec.HaveEst, rec.EstForK = true, k-1
		rec.EstX, rec.EstY = res.Estimate.X, res.Estimate.Y
		rec.Err = res.Estimate.Dist(sc.Truth(k - 1))
	}
	return rec
}
