package serve

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/trace"
)

// ManagerConfig tunes the session manager.
type ManagerConfig struct {
	// Shards is the worker-goroutine count; every session is owned by
	// exactly one shard, chosen by hashing the session ID, so a session's
	// iterations execute strictly in order on one goroutine. <= 0 defaults
	// to 4.
	Shards int
	// ShardQueue is each shard's bounded work-queue depth; admission sheds
	// load with 503 when the owning shard's queue is full. <= 0 defaults to
	// 256.
	ShardQueue int
	// MaxSessions bounds live (unfinished) sessions; creation beyond it is
	// rejected. <= 0 defaults to 4096.
	MaxSessions int
	// Metrics, when non-nil, receives instrumentation.
	Metrics *Metrics
	// Store, when non-nil, makes sessions durable: every admitted batch is
	// written to the write-ahead log before it is stepped, and session state
	// is snapshotted on the SnapshotEvery cadence, at completion, and at
	// drain. Restore rebuilds sessions from what a Store left behind.
	Store *durable.Store
	// SnapshotEvery is the per-session snapshot cadence in steps (a snapshot
	// after every Nth iteration bounds WAL replay work on recovery). <= 0
	// defaults to 32.
	SnapshotEvery int
	// StepBatch is the cross-session step batch size: a woken shard drains up
	// to this many ready iterations from its queue and steps them
	// back-to-back, amortizing the admission-lock bookkeeping over the whole
	// batch instead of paying it per step. Per-shard FIFO (and therefore
	// per-session ordering and the log-before-step WAL invariant) is
	// unchanged — the drain only moves already-ordered work out of the
	// channel earlier. <= 0 defaults to 16.
	StepBatch int

	// stepGate, when non-nil, is received from before every step — a
	// test-only hook that lets the overload tests stall the shard workers
	// deterministically (close the channel to release them).
	stepGate chan struct{}
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.ShardQueue <= 0 {
		c.ShardQueue = 256
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 32
	}
	if c.StepBatch <= 0 {
		c.StepBatch = 16
	}
	return c
}

// workItem is one queued filter iteration: a session, its batch, and the
// admission timestamp (the step-latency histogram measures queue-to-stepped
// time, so queueing delay under load is visible, not hidden).
type workItem struct {
	s        *session
	b        Batch
	admitted time.Time
}

// AdmitError is a rejected admission, carrying the HTTP-ish status the
// transport should surface: 429 when the caller overran its per-session
// budget, 503 when the shard or the whole server is saturated or draining,
// 409 on sequencing errors, 404/410 for unknown or finished sessions.
type AdmitError struct {
	Status int
	Reason string // metrics label
	Msg    string
}

func (e *AdmitError) Error() string { return e.Msg }

func admitErr(status int, reason, format string, args ...interface{}) *AdmitError {
	return &AdmitError{Status: status, Reason: reason, Msg: fmt.Sprintf(format, args...)}
}

// Manager owns the sharded session table. All admission decisions (create,
// ingest) happen under mu; stepping happens on the shard goroutines.
type Manager struct {
	cfg ManagerConfig

	mu       sync.Mutex
	sessions map[string]*session
	// finished retains the records (only — scenario and tracker state is
	// released) of up to finishedHistory completed sessions, so a client
	// that fed a whole run before subscribing can still read it back.
	finished      map[string]*finishedSession
	finishedOrder []*finishedSession
	nextID        int
	draining      bool

	shards []chan workItem
	wg     sync.WaitGroup

	drainCh chan struct{} // closed when draining starts (SSE handlers watch it)
}

// NewManager starts the shard goroutines.
func NewManager(cfg ManagerConfig) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:      cfg,
		sessions: make(map[string]*session),
		finished: make(map[string]*finishedSession),
		shards:   make([]chan workItem, cfg.Shards),
		drainCh:  make(chan struct{}),
	}
	for i := range m.shards {
		m.shards[i] = make(chan workItem, cfg.ShardQueue)
		m.wg.Add(1)
		go m.runShard(i, m.shards[i])
	}
	return m
}

// runShard steps queued iterations in FIFO order. Per-shard FIFO implies
// per-session FIFO, which together with admission-time sequencing gives
// every session strictly ordered, exactly-once iterations.
//
// A woken shard drains up to StepBatch ready iterations and steps them
// back-to-back: each item still logs to the WAL immediately before its own
// step (the log-before-step invariant is per item, not per wakeup), but the
// admission-lock bookkeeping — queued decrements, completion detection — is
// paid once per drained batch. With the test gate installed the drain is
// disabled (batch of 1), so a stalled worker holds nothing and the queue
// lengths the overload tests observe stay deterministic.
func (m *Manager) runShard(shard int, ch chan workItem) {
	defer m.wg.Done()
	batchMax := m.cfg.StepBatch
	if m.cfg.stepGate != nil {
		batchMax = 1
	}
	items := make([]workItem, 0, batchMax)
	for {
		if m.cfg.stepGate != nil {
			<-m.cfg.stepGate
		}
		it, ok := <-ch
		if !ok {
			return
		}
		items = append(items[:0], it)
	drain:
		for len(items) < batchMax {
			select {
			case more, open := <-ch:
				if !open {
					// Channel closed mid-drain: finish what was accepted; the
					// next blocking receive observes the close and exits.
					break drain
				}
				items = append(items, more)
			default:
				break drain
			}
		}
		for i := range items {
			it := &items[i]
			// Log before stepping, so the WAL always dominates the applied
			// history: recovery can rebuild every stepped iteration, and a
			// batch logged but never stepped replays harmlessly. A failed
			// append is counted by the store but does not stall serving —
			// mid-run availability wins over durability of the newest step.
			if m.cfg.Store != nil {
				_ = m.cfg.Store.LogBatch(shard, batchRecord(it.s.id, it.b))
			}
			it.s.step(it.b)
			if m.cfg.Store != nil {
				if stepped := it.b.K + 1; it.s.done || stepped%m.cfg.SnapshotEvery == 0 {
					_ = m.cfg.Store.SaveSnapshot(it.s.snapshot())
				}
			}
			m.cfg.Metrics.stepDone(time.Since(it.admitted))
		}
		completed := 0
		m.mu.Lock()
		for i := range items {
			s := items[i].s
			s.queued--
			if s.done && m.sessions[s.id] == s {
				delete(m.sessions, s.id)
				m.retainFinished(s)
				completed++
			}
		}
		m.mu.Unlock()
		for ; completed > 0; completed-- {
			m.cfg.Metrics.sessionCompleted()
		}
	}
}

// finishedHistory bounds the completed-session record cache.
const finishedHistory = 128

// finishedSession is a completed run's remnant: identity plus records. The
// scenario and tracker (the memory-heavy state) are gone with the session.
type finishedSession struct {
	id         string
	shard      int
	iterations int
	records    []trace.Record
}

// retainFinished archives a completed session, evicting the oldest beyond
// finishedHistory. Caller holds m.mu.
func (m *Manager) retainFinished(s *session) {
	s.mu.Lock()
	recs := s.records
	s.mu.Unlock()
	f := &finishedSession{
		id: s.id, shard: s.shard, iterations: s.iterations(), records: recs,
	}
	m.finished[s.id] = f
	m.finishedOrder = append(m.finishedOrder, f)
	for len(m.finishedOrder) > finishedHistory {
		old := m.finishedOrder[0]
		m.finishedOrder = m.finishedOrder[1:]
		// Delete by identity: a reused ID may already point at a newer run.
		if m.finished[old.id] == old {
			delete(m.finished, old.id)
		}
	}
}

// shardFor hashes a session ID onto a shard index.
func (m *Manager) shardFor(id string) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(len(m.shards)))
}

// Create validates the spec, builds the session, and registers it.
func (m *Manager) Create(spec SessionSpec) (*session, error) {
	spec = spec.normalize()

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, admitErr(503, "draining", "server is draining")
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		m.mu.Unlock()
		return nil, admitErr(503, "max_sessions", "session limit %d reached", m.cfg.MaxSessions)
	}
	id := spec.ID
	if id == "" {
		m.nextID++
		id = fmt.Sprintf("s-%d", m.nextID)
	}
	if _, exists := m.sessions[id]; exists {
		m.mu.Unlock()
		return nil, admitErr(409, "duplicate_id", "session %q already exists", id)
	}
	// A new session supersedes a finished run's archived records under the
	// same ID (the stale order entry is skipped at eviction time).
	delete(m.finished, id)
	// Reserve the ID while the scenario builds outside the lock (deployment
	// of a dense field is milliseconds of work).
	m.sessions[id] = nil
	m.mu.Unlock()

	s, err := newSession(id, m.shardFor(id), spec)

	// Log the admission while the nil placeholder still blocks ingest: once
	// the session becomes reachable, its WAL create record is already on
	// disk, so no batch record can ever precede it. A session whose create
	// record cannot be logged is not admitted — durability starts at step 0
	// or not at all.
	if err == nil && m.cfg.Store != nil {
		if werr := m.cfg.Store.LogCreate(s.shard, id, s.specJSON); werr != nil {
			err = admitErr(500, "wal", "logging session %q: %v", id, werr)
		}
	}

	m.mu.Lock()
	if err != nil || m.draining {
		delete(m.sessions, id)
		m.mu.Unlock()
		if err == nil {
			err = admitErr(503, "draining", "server is draining")
		}
		return nil, err
	}
	m.sessions[id] = s
	m.mu.Unlock()
	m.cfg.Metrics.sessionCreated()
	return s, nil
}

// Get returns a live session.
func (m *Manager) Get(id string) (*session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	return s, ok && s != nil
}

// Info snapshots a session's status under the admission lock.
func (m *Manager) Info(id string) (SessionInfo, bool) {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if !ok || s == nil {
		if f, ok := m.finished[id]; ok {
			m.mu.Unlock()
			rec := trace.Recorder{Records: f.records}
			return SessionInfo{
				ID: f.id, Shard: f.shard, Iterations: f.iterations,
				NextK: f.iterations, Stepped: len(f.records), Done: true,
				RMSE: finiteOrZero(rec.RMSE()),
			}, true
		}
		m.mu.Unlock()
		return SessionInfo{}, false
	}
	queued, nextK := s.queued, s.nextK
	m.mu.Unlock()
	return s.info(queued, nextK), true
}

// Ingest admits req's batches to the session's shard queue. Batches must be
// consecutive starting at the session's next unfed iteration; the whole
// request is validated before any batch is enqueued, so a rejected request
// admits nothing. Backpressure is two-level: the per-session budget rejects
// with 429 (this caller is ahead of its own session's stepping), the shard
// queue with 503 (the server is saturated).
func (m *Manager) Ingest(id string, req IngestRequest) (IngestResponse, error) {
	if len(req.Batches) == 0 {
		return IngestResponse{}, admitErr(400, "empty", "no batches in request")
	}

	m.mu.Lock()
	s, ok := m.sessions[id]
	if !ok || s == nil {
		m.mu.Unlock()
		return IngestResponse{}, admitErr(404, "no_session", "no live session %q", id)
	}
	if m.draining {
		m.mu.Unlock()
		return IngestResponse{}, admitErr(503, "draining", "server is draining")
	}
	for i, b := range req.Batches {
		if want := s.nextK + i; b.K != want {
			m.mu.Unlock()
			return IngestResponse{}, admitErr(409, "out_of_order",
				"batch %d has k=%d, session %q expects k=%d", i, b.K, id, want)
		}
		if err := s.checkNodes(b); err != nil {
			m.mu.Unlock()
			return IngestResponse{}, admitErr(400, "bad_node", "session %q: %v", id, err)
		}
	}
	if last := s.nextK + len(req.Batches); last > s.iterations() {
		m.mu.Unlock()
		return IngestResponse{}, admitErr(409, "past_end",
			"session %q has %d iterations, batches reach k=%d", id, s.iterations(), last-1)
	}
	if s.queued+len(req.Batches) > s.spec.Queue {
		m.mu.Unlock()
		m.cfg.Metrics.reject("session_queue")
		return IngestResponse{}, admitErr(429, "session_queue",
			"session %q queue full (%d queued, budget %d)", id, s.queued, s.spec.Queue)
	}
	ch := m.shards[s.shard]
	if len(ch)+len(req.Batches) > cap(ch) {
		m.mu.Unlock()
		m.cfg.Metrics.reject("shard_queue")
		return IngestResponse{}, admitErr(503, "shard_queue",
			"shard %d queue full (%d of %d)", s.shard, len(ch), cap(ch))
	}
	// Admission succeeds as a unit: reserve the budget and advance the
	// expected sequence, then enqueue. The sends cannot block — capacity was
	// checked under mu, and mu is the only admission path to this shard.
	now := time.Now()
	s.queued += len(req.Batches)
	s.nextK += len(req.Batches)
	nextK := s.nextK
	for _, b := range req.Batches {
		ch <- workItem{s: s, b: b, admitted: now}
	}
	m.mu.Unlock()
	return IngestResponse{Accepted: len(req.Batches), NextK: nextK}, nil
}

// Subscribe attaches to a session's estimate stream. The returned snapshot
// holds the records published so far; ch (nil when the session already
// completed) delivers the rest and is closed at completion or drain.
func (m *Manager) Subscribe(id string) ([]trace.Record, <-chan trace.Record, error) {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if !ok || s == nil {
		f, fok := m.finished[id]
		m.mu.Unlock()
		if fok {
			return f.records, nil, nil
		}
		return nil, nil, admitErr(404, "no_session", "no session %q", id)
	}
	m.mu.Unlock()
	snap, ch := s.subscribe()
	return snap, ch, nil
}

// Unsubscribe detaches a live stream whose client went away.
func (m *Manager) Unsubscribe(id string, ch <-chan trace.Record) {
	m.mu.Lock()
	s, ok := m.sessions[id]
	m.mu.Unlock()
	if ok && s != nil {
		s.unsubscribe(ch)
	}
}

// QueueDepth sums the admitted-but-unstepped batches across shards.
func (m *Manager) QueueDepth() int {
	depth := 0
	m.mu.Lock()
	for _, s := range m.sessions {
		if s != nil {
			depth += s.queued
		}
	}
	m.mu.Unlock()
	return depth
}

// Draining returns a channel closed when drain begins; long-lived streams
// select on it to terminate promptly.
func (m *Manager) Draining() <-chan struct{} { return m.drainCh }

// Drain stops admission, lets the shards finish every queued iteration,
// and closes all subscriber streams. It is idempotent and safe to call once
// concurrently with admissions (they are rejected with 503 from the first
// moment).
func (m *Manager) Drain() {
	m.mu.Lock()
	already := m.draining
	m.draining = true
	m.mu.Unlock()
	if already {
		return
	}
	close(m.drainCh)
	// No new work can be admitted now; closing the shard queues lets the
	// workers drain what was already accepted and exit.
	for _, ch := range m.shards {
		close(ch)
	}
	m.wg.Wait()
	// Terminate streams of sessions that never finished.
	m.mu.Lock()
	var left []*session
	for _, s := range m.sessions {
		if s != nil {
			left = append(left, s)
		}
	}
	m.mu.Unlock()
	for _, s := range left {
		// The shards have exited, so each session's state is final: snapshot
		// it, and the next boot resumes mid-run sessions without any WAL
		// replay.
		if m.cfg.Store != nil {
			_ = m.cfg.Store.SaveSnapshot(s.snapshot())
		}
		s.closeSubs()
	}
}

// batchRecord converts a wire batch into its WAL form.
func batchRecord(id string, b Batch) *durable.BatchRecord {
	r := &durable.BatchRecord{ID: id, K: b.K}
	if len(b.Obs) > 0 {
		r.Obs = make([]durable.Obs, len(b.Obs))
		for i, o := range b.Obs {
			r.Obs[i] = durable.Obs{Node: int32(o.Node), Bearing: o.Bearing}
		}
	}
	return r
}

// wireBatch converts a WAL batch record back into its wire form.
func wireBatch(r *durable.BatchRecord) Batch {
	b := Batch{K: r.K}
	if len(r.Obs) > 0 {
		b.Obs = make([]Measurement, len(r.Obs))
		for i, o := range r.Obs {
			b.Obs[i] = Measurement{Node: int(o.Node), Bearing: o.Bearing}
		}
	}
	return b
}

// Restore rebuilds every session a previous boot left in the durability
// directory, stepping each to its exact pre-crash state: the latest snapshot
// whose spec bytes match the WAL's create record is the starting point
// (fresh build otherwise), and the WAL batches beyond it are re-stepped
// through the ordinary stepping path. It must be called before the manager
// serves traffic — recovered sessions become visible to clients atomically
// per session, finished ones land in the completed-session archive.
func (m *Manager) Restore(rec *durable.Recovery) error {
	if rec == nil {
		return nil
	}
	counters := new(durable.Counters)
	if m.cfg.Store != nil {
		counters = m.cfg.Store.Counters()
	}
	for _, id := range rec.Order {
		log := rec.Sessions[id]
		s, err := m.rebuildSession(id, log, rec.Snapshots[id], counters)
		if err != nil {
			return fmt.Errorf("serve: restoring session %q: %w", id, err)
		}
		counters.RecoveredSessions.Add(1)
		// Re-snapshot at the recovered position: the next boot starts here
		// instead of replaying this boot's replay again.
		if m.cfg.Store != nil {
			_ = m.cfg.Store.SaveSnapshot(s.snapshot())
		}
		m.mu.Lock()
		if s.done {
			delete(m.sessions, id)
			m.retainFinished(s)
		} else {
			m.sessions[id] = s
		}
		m.bumpNextID(id)
		m.mu.Unlock()
		m.cfg.Metrics.sessionCreated()
		if s.done {
			m.cfg.Metrics.sessionCompleted()
		}
	}
	return nil
}

// rebuildSession reconstructs one session from its snapshot and WAL tail.
func (m *Manager) rebuildSession(id string, log *durable.SessionLog, snap *durable.Snapshot, counters *durable.Counters) (*session, error) {
	shard := m.shardFor(id)
	// A migrated-in session's WAL history starts at the handoff snapshot
	// embedded in its import record, not at step 0; batches before baseStep
	// were stepped (and logged) by the previous owner.
	baseStep := 0
	if log.Base != nil {
		baseStep = log.Base.Stepped
	}
	var s *session
	var err error
	// A snapshot file is trusted only for the WAL incarnation whose exact
	// spec bytes it carries: a reused session ID re-created after the
	// snapshot was written fails the comparison and rebuilds from the WAL
	// alone. The log-before-step ordering guarantees a genuine snapshot
	// never leads the WAL, so the consistency check only trips on
	// corruption; a stale pre-migration snapshot fails the baseStep bound
	// and yields to the import record's own snapshot.
	switch {
	case snap != nil && bytes.Equal(snap.SpecJSON, log.SpecJSON) &&
		snap.Stepped >= baseStep && snap.Stepped <= baseStep+len(log.Batches):
		s, err = restoreSession(id, shard, snap)
	case log.Base != nil:
		s, err = restoreSession(id, shard, log.Base)
	default:
		s, err = loggedSession(id, shard, log.SpecJSON)
	}
	if err != nil {
		return nil, err
	}
	for _, b := range log.Batches {
		if b.K < s.stepped || s.done {
			continue // covered by the snapshot (or a finished run's tail)
		}
		if b.K != s.stepped {
			return nil, fmt.Errorf("WAL gap: have step %d, next logged batch is k=%d", s.stepped, b.K)
		}
		if _, err := s.stepLogged(b); err != nil {
			return nil, err
		}
		counters.ReplayedBatches.Add(1)
	}
	s.nextK = s.stepped
	return s, nil
}

// bumpNextID keeps auto-assigned session IDs ("s-<n>") unique across boots:
// without this, the first post-recovery create would collide with a
// recovered session's ID. Caller holds m.mu.
func (m *Manager) bumpNextID(id string) {
	n, ok := strings.CutPrefix(id, "s-")
	if !ok {
		return
	}
	if v, err := strconv.Atoi(n); err == nil && v > m.nextID {
		m.nextID = v
	}
}
