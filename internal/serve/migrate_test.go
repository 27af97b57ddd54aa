package serve

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/durable"
)

// exportReady exports a session once it is quiescent, retrying the 409 the
// way the gateway does.
func exportReady(t *testing.T, m *Manager, id string) *durable.Snapshot {
	t.Helper()
	for i := 0; i < 1000; i++ {
		snap, err := m.Export(id)
		if err == nil {
			return snap
		}
		var ae *AdmitError
		if !asAdmit(err, &ae) || ae.Status != 409 {
			t.Fatalf("export %q: %v", id, err)
		}
	}
	t.Fatalf("session %q never became quiescent", id)
	return nil
}

// TestExportImportMidRun is the manager-level migration identity check: a
// session moved between two managers halfway through its run finishes with
// a trace byte-identical to its offline twin.
func TestExportImportMidRun(t *testing.T) {
	spec := testSpec("mig-twin", 41)
	batches, err := Observations(spec)
	if err != nil {
		t.Fatal(err)
	}
	half := len(batches) / 2

	src := NewManager(ManagerConfig{Shards: 2})
	defer src.Drain()
	dst := NewManager(ManagerConfig{Shards: 2})
	defer dst.Drain()

	if _, err := src.Create(spec); err != nil {
		t.Fatal(err)
	}
	feedRange(t, src, spec.ID, batches, 0, half)
	waitStepped(t, src, spec.ID, half)

	snap := exportReady(t, src, spec.ID)
	if _, ok := src.Info(spec.ID); ok {
		t.Fatal("exported session still visible on the source manager")
	}
	if err := dst.Import(snap); err != nil {
		t.Fatal(err)
	}

	feedRange(t, dst, spec.ID, batches, half, len(batches))
	waitStepped(t, dst, spec.ID, len(batches))
	assertTwinIdentity(t, spec, collectAll(t, dst, spec.ID))
}

// TestCrashAfterImportRecovers: a daemon that crashes after receiving a
// migrated session must recover it from its own WAL — whose history begins
// at the import record, not at step zero. Both recovery paths are
// exercised: snapshot-assisted, and WAL-only after the snapshot files are
// deleted (forcing the rebuild to start from the import record's embedded
// base image).
func TestCrashAfterImportRecovers(t *testing.T) {
	for _, tc := range []struct {
		name          string
		dropSnapshots bool
	}{
		{"with-snapshot", false},
		{"wal-only", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec("mig-crash", 43)
			batches, err := Observations(spec)
			if err != nil {
				t.Fatal(err)
			}
			third := len(batches) / 3

			src := NewManager(ManagerConfig{Shards: 2})
			defer src.Drain()
			if _, err := src.Create(spec); err != nil {
				t.Fatal(err)
			}
			feedRange(t, src, spec.ID, batches, 0, third)
			waitStepped(t, src, spec.ID, third)
			snap := exportReady(t, src, spec.ID)

			dir := t.TempDir()
			st, _ := openStore(t, dir)
			dst := NewManager(ManagerConfig{Shards: 2, Store: st, SnapshotEvery: 1000})
			if err := dst.Import(snap); err != nil {
				t.Fatal(err)
			}
			feedRange(t, dst, spec.ID, batches, third, 2*third)
			waitStepped(t, dst, spec.ID, 2*third)
			crash(t, dst, st)

			if tc.dropSnapshots {
				if err := os.RemoveAll(filepath.Join(dir, "snap")); err != nil {
					t.Fatal(err)
				}
			}

			st2, rec := openStore(t, dir)
			defer st2.Close()
			if rec.Sessions[spec.ID] == nil {
				t.Fatalf("recovery lost the imported session; have %v", rec.Order)
			}
			if rec.Sessions[spec.ID].Base == nil {
				t.Fatal("recovered session log has no base image from the import record")
			}
			dst2 := NewManager(ManagerConfig{Shards: 2, Store: st2, SnapshotEvery: 1000})
			defer dst2.Drain()
			if err := dst2.Restore(rec); err != nil {
				t.Fatalf("restore after crash: %v", err)
			}
			info, ok := dst2.Info(spec.ID)
			if !ok || info.Stepped < 2*third {
				t.Fatalf("recovered session at %d steps, want >= %d", info.Stepped, 2*third)
			}
			feedRange(t, dst2, spec.ID, batches, info.NextK, len(batches))
			waitStepped(t, dst2, spec.ID, len(batches))
			assertTwinIdentity(t, spec, collectAll(t, dst2, spec.ID))
		})
	}
}

// TestForgetPreventsResurrection: a source daemon that crashes after
// exporting a session must not bring it back on restart — the forget record
// in its WAL erases the session's history.
func TestForgetPreventsResurrection(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	m := NewManager(ManagerConfig{Shards: 2, Store: st, SnapshotEvery: 4})
	spec := testSpec("mig-forget", 47)
	batches, err := Observations(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(spec); err != nil {
		t.Fatal(err)
	}
	feedRange(t, m, spec.ID, batches, 0, len(batches)/2)
	waitStepped(t, m, spec.ID, len(batches)/2)
	exportReady(t, m, spec.ID)
	crash(t, m, st)

	st2, rec := openStore(t, dir)
	defer st2.Close()
	if rec.Sessions[spec.ID] != nil {
		t.Fatalf("exported session %q resurrected from the source WAL", spec.ID)
	}
	m2 := NewManager(ManagerConfig{Shards: 2, Store: st2})
	defer m2.Drain()
	if err := m2.Restore(rec); err != nil {
		t.Fatal(err)
	}
	if _, ok := m2.Info(spec.ID); ok {
		t.Fatalf("restored manager serves the migrated-away session %q", spec.ID)
	}
}

// TestExportEdgeCases: 404 for unknown sessions, 410 for finished ones, 409
// while batches are queued.
func TestExportEdgeCases(t *testing.T) {
	m := NewManager(ManagerConfig{Shards: 2})
	defer m.Drain()

	var ae *AdmitError
	if _, err := m.Export("nope"); !asAdmit(err, &ae) || ae.Status != 404 {
		t.Fatalf("export of unknown session: %v", err)
	}

	spec := testSpec("mig-edges", 51)
	if _, err := m.Create(spec); err != nil {
		t.Fatal(err)
	}
	// Busy: pin a fake queued batch under the lock — deterministic, no race
	// against the shard goroutines.
	m.mu.Lock()
	m.sessions[spec.ID].queued++
	m.mu.Unlock()
	if _, err := m.Export(spec.ID); !asAdmit(err, &ae) || ae.Status != 409 {
		t.Fatalf("export of busy session: %v", err)
	}
	m.mu.Lock()
	m.sessions[spec.ID].queued--
	m.mu.Unlock()

	n := feedAll(t, m, spec)
	waitStepped(t, m, spec.ID, n)
	if _, err := m.Export(spec.ID); !asAdmit(err, &ae) || ae.Status != 410 {
		t.Fatalf("export of finished session: %v", err)
	}
}

// TestImportRejectsDuplicate: importing a snapshot whose ID is already live
// is a 409 — the cluster invariant is one home per session.
func TestImportRejectsDuplicate(t *testing.T) {
	spec := testSpec("mig-dup", 53)
	src := NewManager(ManagerConfig{Shards: 2})
	defer src.Drain()
	if _, err := src.Create(spec); err != nil {
		t.Fatal(err)
	}
	batches, err := Observations(spec)
	if err != nil {
		t.Fatal(err)
	}
	feedRange(t, src, spec.ID, batches, 0, 2)
	waitStepped(t, src, spec.ID, 2)
	snap := exportReady(t, src, spec.ID)

	dst := NewManager(ManagerConfig{Shards: 2})
	defer dst.Drain()
	if err := dst.Import(snap); err != nil {
		t.Fatal(err)
	}
	var ae *AdmitError
	if err := dst.Import(snap); !asAdmit(err, &ae) || ae.Status != 409 {
		t.Fatalf("duplicate import: %v", err)
	}
}

// TestMaxSessionsLimit: with MaxSessions live sessions, both admission paths
// refuse another — Create with 503 max_sessions and no WAL record, Import
// with 503 — and a session that completes frees its slot.
func TestMaxSessionsLimit(t *testing.T) {
	st, _ := openStore(t, t.TempDir())
	defer st.Close()
	m := NewManager(ManagerConfig{Shards: 2, MaxSessions: 2, Store: st})
	defer m.Drain()

	specA, specB := testSpec("max-a", 61), testSpec("max-b", 62)
	for _, spec := range []SessionSpec{specA, specB} {
		if _, err := m.Create(spec); err != nil {
			t.Fatal(err)
		}
	}
	walBefore := st.Counters().WALRecords.Load()
	var ae *AdmitError
	_, err := m.Create(testSpec("max-c", 63))
	if !asAdmit(err, &ae) || ae.Status != 503 || ae.Reason != "max_sessions" {
		t.Fatalf("third create: %v, want 503 max_sessions", err)
	}
	if got := st.Counters().WALRecords.Load(); got != walBefore {
		t.Fatalf("refused create wrote %d WAL records", got-walBefore)
	}

	src := NewManager(ManagerConfig{Shards: 1})
	defer src.Drain()
	migSpec := testSpec("max-mig", 64)
	if _, err := src.Create(migSpec); err != nil {
		t.Fatal(err)
	}
	err = m.Import(exportReady(t, src, migSpec.ID))
	if !asAdmit(err, &ae) || ae.Status != 503 || ae.Reason != "max_sessions" {
		t.Fatalf("import over the limit: %v, want 503 max_sessions", err)
	}

	batches, err := Observations(specA)
	if err != nil {
		t.Fatal(err)
	}
	feedRange(t, m, specA.ID, batches, 0, len(batches))
	waitRetired(t, m, specA.ID)
	if _, err := m.Create(testSpec("max-c", 63)); err != nil {
		t.Fatalf("create after a session completed: %v", err)
	}
}
