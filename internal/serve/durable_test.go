package serve

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/trace"
)

// openStore opens the durability directory, failing the test on error.
func openStore(t *testing.T, dir string) (*durable.Store, *durable.Recovery) {
	t.Helper()
	st, rec, err := durable.Open(durable.Options{Dir: dir, Fsync: durable.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	return st, rec
}

// crash simulates a kill -9 for a manager under test: the store is closed
// (no further durable writes can land, exactly like a dead process) and the
// manager is deliberately NOT drained — drain would write final snapshots,
// which a crashed process never gets to do. The leaked shard goroutines are
// cleaned up at test end.
func crash(t *testing.T, m *Manager, st *durable.Store) {
	t.Helper()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Drain)
}

// feedRange ingests batches[from:to] one at a time with admission retries.
func feedRange(t *testing.T, m *Manager, id string, batches []Batch, from, to int) {
	t.Helper()
	for _, b := range batches[from:to] {
		for {
			_, err := m.Ingest(id, IngestRequest{Batches: []Batch{b}})
			if err == nil {
				break
			}
			var ae *AdmitError
			if !asAdmit(err, &ae) || (ae.Status != 429 && ae.Status != 503) {
				t.Fatalf("ingest k=%d: %v", b.K, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// waitStepped polls until the session has stepped n iterations.
func waitStepped(t *testing.T, m *Manager, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		info, ok := m.Info(id)
		if ok && info.Stepped >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("session %q never reached %d steps", id, n)
}

// waitRetired polls until the shard has retired session id from the live
// set, after which its ID may be created again.
func waitRetired(t *testing.T, m *Manager, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, live := m.Get(id); !live {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("session %q never retired", id)
}

// collectAll subscribes and drains the full record stream.
func collectAll(t *testing.T, m *Manager, id string) []trace.Record {
	t.Helper()
	snap, ch, err := m.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	recs := append([]trace.Record(nil), snap...)
	if ch != nil {
		for rec := range ch {
			recs = append(recs, rec)
		}
	}
	return recs
}

// assertTwinIdentity byte-compares a served record set against the offline
// twin of its spec — the recovery correctness bar: not approximately equal,
// identical.
func assertTwinIdentity(t *testing.T, spec SessionSpec, got []trace.Record) {
	t.Helper()
	offline, err := OfflineTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != offline.Len() {
		t.Fatalf("served %d records, offline twin has %d", len(got), offline.Len())
	}
	served := &trace.Recorder{Algo: offline.Algo, Density: offline.Density, Seed: offline.Seed, Records: got}
	var off, srv strings.Builder
	if err := offline.WriteCSV(&off); err != nil {
		t.Fatal(err)
	}
	if err := served.WriteCSV(&srv); err != nil {
		t.Fatal(err)
	}
	if off.String() != srv.String() {
		t.Fatalf("recovered trace differs from offline twin:\noffline:\n%s\nserved:\n%s",
			off.String(), srv.String())
	}
}

// legacyCrashySpec is testSpec("crashy", 31) as a server logged it before
// the cell became the only session spelling: the normalized "scenario" and
// "tracker" objects, with the "Parallelism":1 tracker field sessions pinned
// before the tracker lost its intra-step worker pool.
const legacyCrashySpec = `{"id":"crashy","scenario":{"Density":10,"Seed":31,"Steps":10,"Dt":5,"SigmaN":0.05,` +
	`"Target":{"Start":{"X":0,"Y":100},"Heading":0,"Speed":3,"StepDt":1,"MaxTurn":0.2617993877991494},` +
	`"FailFraction":0,"SleepFraction":0,"SensorFault":{"Kind":0,"Fraction":0,"Magnitude":0,"Start":0,"End":0}},` +
	`"tracker":{"Sizes":{"Dp":16,"Dm":4,"Dw":4},"Sensor":{"SigmaN":0.05,"TailNu":0},"Dt":5,"PredictRadius":0,` +
	`"RecordThreshold":0.3,"DropFraction":0.3,"UseNE":false,"InitWeight":1,"QuantSigma":0,"PerParticleAreas":false,` +
	`"VelSmoothing":0,"NEDetectBoost":0,"MaxHolders":0,"Parallelism":1,"Rebroadcasts":0,"RebroadcastBackoff":0,` +
	`"CompensateLoss":false,"GateSigma":0,"Quarantine":false,"QuarantineDevSigma":0},"queue":16}`

// legacyCopy rewrites the durable state of session id in dir into a fresh
// directory the way an older server wrote it: the same WAL records and
// snapshot, but carrying specJSON as the logged spec. Returns the new
// directory.
func legacyCopy(t *testing.T, dir, id, specJSON string) string {
	t.Helper()
	st, rec := openStore(t, dir)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	log, snap := rec.Sessions[id], rec.Snapshots[id]
	out := t.TempDir()
	st, _ = openStore(t, out)
	if err := st.LogCreate(0, id, []byte(specJSON)); err != nil {
		t.Fatal(err)
	}
	for _, b := range log.Batches {
		if err := st.LogBatch(0, b); err != nil {
			t.Fatal(err)
		}
	}
	if snap != nil {
		old := *snap
		old.SpecJSON = []byte(specJSON)
		if err := st.SaveSnapshot(&old); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRecoverResumesMidRunByteIdentical is the core crash-recovery contract
// at the package level: crash a durable manager mid-session, rebuild from
// disk into a manager with a different shard count, finish the feed, and
// require the stitched trace to be byte-identical to the offline twin.
func TestRecoverResumesMidRunByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name          string
		snapshotEvery int
		wantReplayed  int64 // batches re-stepped from the WAL on recovery
		legacy        bool  // recover from a legacyCopy of the crashed state
	}{
		// Snapshot cadence 4 and crash at step 5: recovery starts from the
		// step-4 snapshot and replays exactly one WAL batch.
		{"snapshot-plus-tail", 4, 1, false},
		// Cadence beyond the run: no snapshot exists, the WAL rebuilds all
		// five steps.
		{"wal-only", 1000, 5, false},
		// A store written with the legacy scenario/tracker spelling: the
		// record converts to its cell, and the snapshot still matches its
		// create record byte for byte.
		{"legacy-spelling", 4, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			spec := testSpec("crashy", 31)
			batches, err := Observations(spec)
			if err != nil {
				t.Fatal(err)
			}

			st1, _ := openStore(t, dir)
			m1 := NewManager(ManagerConfig{Shards: 2, Store: st1, SnapshotEvery: tc.snapshotEvery})
			if _, err := m1.Create(spec); err != nil {
				t.Fatal(err)
			}
			feedRange(t, m1, spec.ID, batches, 0, 5)
			waitStepped(t, m1, spec.ID, 5)
			crash(t, m1, st1)
			if tc.legacy {
				// A legacy tracker no cell builds fails recovery, naming
				// the session: one row per tracker field since folded into
				// a constant, each set to a value the tracker no longer
				// runs.
				for _, field := range []struct{ from, to string }{
					{`"PredictRadius":0`, `"PredictRadius":10`},
					{`"RecordThreshold":0.3`, `"RecordThreshold":0.2`},
					{`"DropFraction":0.3`, `"DropFraction":0.1`},
					{`"InitWeight":1`, `"InitWeight":2`},
					{`"MaxHolders":0`, `"MaxHolders":5`},
					{`"RebroadcastBackoff":0`, `"RebroadcastBackoff":1.3`},
					{`"QuarantineDevSigma":0`, `"QuarantineDevSigma":2`},
				} {
					if !strings.Contains(legacyCrashySpec, field.from) {
						t.Fatalf("legacyCrashySpec lacks %s", field.from)
					}
					noCell := strings.Replace(legacyCrashySpec, field.from, field.to, 1)
					st, rec := openStore(t, legacyCopy(t, dir, spec.ID, noCell))
					m := NewManager(ManagerConfig{Shards: 1, Store: st})
					err := m.Restore(rec)
					m.Drain()
					st.Close()
					if err == nil || !strings.Contains(err.Error(), `"crashy"`) {
						t.Fatalf("unconvertible legacy spec (%s): Restore error %v, want one naming the session", field.to, err)
					}
				}
				dir = legacyCopy(t, dir, spec.ID, legacyCrashySpec)
			}

			st2, rec := openStore(t, dir)
			defer st2.Close()
			m2 := NewManager(ManagerConfig{Shards: 3, Store: st2, SnapshotEvery: tc.snapshotEvery})
			defer m2.Drain()
			if err := m2.Restore(rec); err != nil {
				t.Fatal(err)
			}
			if got := st2.Counters().RecoveredSessions.Load(); got != 1 {
				t.Fatalf("RecoveredSessions = %d, want 1", got)
			}
			if got := st2.Counters().ReplayedBatches.Load(); got != tc.wantReplayed {
				t.Fatalf("ReplayedBatches = %d, want %d", got, tc.wantReplayed)
			}
			info, ok := m2.Info(spec.ID)
			if !ok || info.Done || info.Stepped != 5 || info.NextK != 5 {
				t.Fatalf("recovered info = %+v, want stepped=5 next_k=5 live", info)
			}
			feedRange(t, m2, spec.ID, batches, info.NextK, len(batches))
			assertTwinIdentity(t, spec, collectAll(t, m2, spec.ID))
		})
	}
}

// TestRecoverTruncatesTornTail damages the WAL tail after the crash (the
// torn-write case): recovery must truncate to the valid prefix, resume from
// the surviving step count, and still finish byte-identically once the
// client refeeds from NextK.
func TestRecoverTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec("torn", 40)
	batches, err := Observations(spec)
	if err != nil {
		t.Fatal(err)
	}

	st1, _ := openStore(t, dir)
	m1 := NewManager(ManagerConfig{Shards: 2, Store: st1, SnapshotEvery: 1000})
	if _, err := m1.Create(spec); err != nil {
		t.Fatal(err)
	}
	feedRange(t, m1, spec.ID, batches, 0, 5)
	waitStepped(t, m1, spec.ID, 5)
	crash(t, m1, st1)

	// Tear the last frame: chop a few bytes off every non-empty segment.
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments (%v)", err)
	}
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > 3 {
			if err := os.Truncate(seg, fi.Size()-3); err != nil {
				t.Fatal(err)
			}
		}
	}

	st2, rec := openStore(t, dir)
	defer st2.Close()
	if st2.Counters().TruncatedTails.Load() == 0 {
		t.Fatal("no torn tail detected")
	}
	m2 := NewManager(ManagerConfig{Shards: 2, Store: st2, SnapshotEvery: 1000})
	defer m2.Drain()
	if err := m2.Restore(rec); err != nil {
		t.Fatal(err)
	}
	info, ok := m2.Info(spec.ID)
	if !ok || info.Done {
		t.Fatalf("recovered info = %+v, want live session", info)
	}
	if info.Stepped != 4 {
		t.Fatalf("stepped = %d after tearing the last record, want 4", info.Stepped)
	}
	feedRange(t, m2, spec.ID, batches, info.NextK, len(batches))
	assertTwinIdentity(t, spec, collectAll(t, m2, spec.ID))
}

// TestRecoverFinishedSessionReadback: a session that completed before the
// crash must come back readable (archived records, Done info), not lost and
// not live.
func TestRecoverFinishedSessionReadback(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec("done-before-crash", 52)
	batches, err := Observations(spec)
	if err != nil {
		t.Fatal(err)
	}

	st1, _ := openStore(t, dir)
	m1 := NewManager(ManagerConfig{Shards: 2, Store: st1})
	if _, err := m1.Create(spec); err != nil {
		t.Fatal(err)
	}
	feedRange(t, m1, spec.ID, batches, 0, len(batches))
	waitStepped(t, m1, spec.ID, len(batches))
	crash(t, m1, st1)

	st2, rec := openStore(t, dir)
	defer st2.Close()
	m2 := NewManager(ManagerConfig{Shards: 2, Store: st2})
	defer m2.Drain()
	if err := m2.Restore(rec); err != nil {
		t.Fatal(err)
	}
	info, ok := m2.Info(spec.ID)
	if !ok || !info.Done {
		t.Fatalf("recovered info = %+v, want done", info)
	}
	assertTwinIdentity(t, spec, collectAll(t, m2, spec.ID))
}

// TestRecoverIDReuseIgnoresStaleSnapshot: finish a session, recreate its ID
// with a different spec, crash, recover. The on-disk snapshot still belongs
// to the first incarnation; its spec bytes no longer match the WAL's latest
// create record, so recovery must rebuild the second incarnation from the
// WAL alone.
func TestRecoverIDReuseIgnoresStaleSnapshot(t *testing.T) {
	dir := t.TempDir()
	first := testSpec("reused", 31)
	second := testSpec("reused", 77)
	firstBatches, err := Observations(first)
	if err != nil {
		t.Fatal(err)
	}
	secondBatches, err := Observations(second)
	if err != nil {
		t.Fatal(err)
	}

	st1, _ := openStore(t, dir)
	m1 := NewManager(ManagerConfig{Shards: 2, Store: st1, SnapshotEvery: 1000})
	if _, err := m1.Create(first); err != nil {
		t.Fatal(err)
	}
	feedRange(t, m1, first.ID, firstBatches, 0, len(firstBatches))
	waitStepped(t, m1, first.ID, len(firstBatches))
	waitRetired(t, m1, first.ID)
	// The completion snapshot for the first incarnation is on disk now.
	if _, err := m1.Create(second); err != nil {
		t.Fatal(err)
	}
	feedRange(t, m1, second.ID, secondBatches, 0, 2)
	waitStepped(t, m1, second.ID, 2)
	crash(t, m1, st1)

	st2, rec := openStore(t, dir)
	defer st2.Close()
	m2 := NewManager(ManagerConfig{Shards: 2, Store: st2, SnapshotEvery: 1000})
	defer m2.Drain()
	if err := m2.Restore(rec); err != nil {
		t.Fatal(err)
	}
	// Replayed exactly the second incarnation's two steps — had the stale
	// snapshot been trusted, the session would resume at the wrong step with
	// the wrong scenario.
	if got := st2.Counters().ReplayedBatches.Load(); got != 2 {
		t.Fatalf("ReplayedBatches = %d, want 2", got)
	}
	info, ok := m2.Info(second.ID)
	if !ok || info.Done || info.Stepped != 2 {
		t.Fatalf("recovered info = %+v, want live at step 2", info)
	}
	feedRange(t, m2, second.ID, secondBatches, info.NextK, len(secondBatches))
	assertTwinIdentity(t, second, collectAll(t, m2, second.ID))
}

// TestDrainSnapshotsResumeWithoutReplay: a clean shutdown (drain) snapshots
// every live session, so the next boot resumes purely from snapshots.
func TestDrainSnapshotsResumeWithoutReplay(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec("drained", 63)
	batches, err := Observations(spec)
	if err != nil {
		t.Fatal(err)
	}

	st1, _ := openStore(t, dir)
	m1 := NewManager(ManagerConfig{Shards: 2, Store: st1, SnapshotEvery: 1000})
	if _, err := m1.Create(spec); err != nil {
		t.Fatal(err)
	}
	feedRange(t, m1, spec.ID, batches, 0, 6)
	waitStepped(t, m1, spec.ID, 6)
	m1.Drain()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec := openStore(t, dir)
	defer st2.Close()
	m2 := NewManager(ManagerConfig{Shards: 2, Store: st2, SnapshotEvery: 1000})
	defer m2.Drain()
	if err := m2.Restore(rec); err != nil {
		t.Fatal(err)
	}
	if got := st2.Counters().ReplayedBatches.Load(); got != 0 {
		t.Fatalf("ReplayedBatches = %d after clean drain, want 0", got)
	}
	info, ok := m2.Info(spec.ID)
	if !ok || info.Stepped != 6 {
		t.Fatalf("recovered info = %+v, want stepped=6", info)
	}
	feedRange(t, m2, spec.ID, batches, info.NextK, len(batches))
	assertTwinIdentity(t, spec, collectAll(t, m2, spec.ID))
}

// TestRecoveredAutoIDsDoNotCollide: server-assigned IDs must continue past
// recovered sessions instead of colliding with them.
func TestRecoveredAutoIDsDoNotCollide(t *testing.T) {
	dir := t.TempDir()
	st1, _ := openStore(t, dir)
	m1 := NewManager(ManagerConfig{Shards: 2, Store: st1})
	spec := testSpec("", 31) // server assigns s-1
	s, err := m1.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s.id != "s-1" {
		t.Fatalf("auto ID = %q, want s-1", s.id)
	}
	crash(t, m1, st1)

	st2, rec := openStore(t, dir)
	defer st2.Close()
	m2 := NewManager(ManagerConfig{Shards: 2, Store: st2})
	defer m2.Drain()
	if err := m2.Restore(rec); err != nil {
		t.Fatal(err)
	}
	s2, err := m2.Create(testSpec("", 32))
	if err != nil {
		t.Fatal(err)
	}
	if s2.id == "s-1" {
		t.Fatal("post-recovery auto ID collided with a recovered session")
	}
}

// TestReplayRebuildsTraceFromWAL: the offline replay path (cdpfsim
// -replay-dir) reconstructs a production session's trace, labels included,
// from the WAL alone.
func TestReplayRebuildsTraceFromWAL(t *testing.T) {
	for _, spec := range []SessionSpec{testSpec("replayable", 85), cellSpec("replayable-cell")} {
		t.Run(spec.ID, func(t *testing.T) {
			dir := t.TempDir()
			batches, err := Observations(spec)
			if err != nil {
				t.Fatal(err)
			}
			st1, _ := openStore(t, dir)
			m1 := NewManager(ManagerConfig{Shards: 2, Store: st1})
			if _, err := m1.Create(spec); err != nil {
				t.Fatal(err)
			}
			feedRange(t, m1, spec.ID, batches, 0, len(batches))
			waitStepped(t, m1, spec.ID, len(batches))
			m1.Drain()
			if err := st1.Close(); err != nil {
				t.Fatal(err)
			}

			rec, err := durable.Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := Replay(rec, spec.ID)
			if err != nil {
				t.Fatal(err)
			}
			assertTwinIdentity(t, spec, replayed.Records)
			offline, err := OfflineTrace(spec)
			if err != nil {
				t.Fatal(err)
			}
			if replayed.Algo != offline.Algo || replayed.Density != offline.Density || replayed.Seed != offline.Seed {
				t.Fatalf("replay labels algo %s, density %v, seed %d; offline twin algo %s, density %v, seed %d",
					replayed.Algo, replayed.Density, replayed.Seed, offline.Algo, offline.Density, offline.Seed)
			}

			if _, err := Replay(rec, "nonesuch"); err == nil {
				t.Fatal("replay of unknown session succeeded")
			}
		})
	}
}

// TestRecoverRejectsOutOfRangeNode: a rejected out-of-range batch is never
// logged, and a WAL that nonetheless holds one (written by a server that
// admitted it) fails Restore and Replay naming the session instead of
// panicking the tracker.
func TestRecoverRejectsOutOfRangeNode(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec("badnode", 3)
	st, _ := openStore(t, dir)
	m := NewManager(ManagerConfig{Shards: 1, Store: st})
	sess, err := m.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	nodes := sess.sc.Net.Len()
	bad := Batch{K: 0, Obs: []Measurement{{Node: nodes, Bearing: 0.5}}}
	var ae *AdmitError
	if _, err := m.Ingest(spec.ID, IngestRequest{Batches: []Batch{bad}}); !asAdmit(err, &ae) || ae.Status != 400 || ae.Reason != "bad_node" {
		t.Fatalf("out-of-range ingest: %v, want 400 bad_node", err)
	}
	m.Drain()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := durable.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rec.Sessions[spec.ID].Batches); n != 0 {
		t.Fatalf("rejected batch logged: %d WAL batches", n)
	}

	for _, node := range []int32{-1, int32(nodes)} {
		dir := t.TempDir()
		st, _ := openStore(t, dir)
		if err := st.LogCreate(0, spec.ID, sess.specJSON); err != nil {
			t.Fatal(err)
		}
		if err := st.LogBatch(0, &durable.BatchRecord{ID: spec.ID, K: 0, Obs: []durable.Obs{{Node: node, Bearing: 0.5}}}); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, rec := openStore(t, dir)
		m := NewManager(ManagerConfig{Shards: 1, Store: st})
		err := m.Restore(rec)
		m.Drain()
		st.Close()
		if err == nil || !strings.Contains(err.Error(), `"badnode"`) {
			t.Fatalf("node %d: Restore error %v, want one naming the session", node, err)
		}
		if _, err := Replay(rec, spec.ID); err == nil || !strings.Contains(err.Error(), `"badnode"`) {
			t.Fatalf("node %d: Replay error %v, want one naming the session", node, err)
		}
	}
}

// TestRecoveringGateAndHealthz: while the recovery gate is up, /v1/ serves
// 503 and /healthz says "recovering"; afterwards the daemon is "ready".
func TestRecoveringGateAndHealthz(t *testing.T) {
	met := NewMetrics(nil)
	mgr := NewManager(ManagerConfig{Shards: 1, Metrics: met})
	defer mgr.Drain()
	srv := NewServer(mgr, met)
	srv.SetRecovering(true)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf := make([]byte, 64)
		n, _ := resp.Body.Read(buf)
		return resp.StatusCode, strings.TrimSpace(string(buf[:n]))
	}
	if code, body := get("/healthz"); code != 503 || body != "recovering" {
		t.Fatalf("recovering healthz = %d %q", code, body)
	}
	if code, _ := get("/v1/sessions/nope"); code != 503 {
		t.Fatalf("recovering API status = %d, want 503", code)
	}
	// Metrics stay scrapeable during recovery.
	if code, _ := get("/metrics"); code != 200 {
		t.Fatalf("recovering metrics status = %d, want 200", code)
	}
	srv.SetRecovering(false)
	if code, body := get("/healthz"); code != 200 || body != "ready" {
		t.Fatalf("ready healthz = %d %q", code, body)
	}
	if code, _ := get("/v1/sessions/nope"); code != 404 {
		t.Fatalf("ready API status = %d, want 404", code)
	}
}
