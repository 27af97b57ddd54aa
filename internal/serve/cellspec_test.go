package serve

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	cellspec "repro/internal/spec"
	"repro/internal/trace"
)

// cellSpec is a served spec/v1 cell composing bursty loss with mid-run
// fail-stops.
func cellSpec(id string) SessionSpec {
	return SessionSpec{ID: id, Cell: &cellspec.Axes{
		Algo: "cdpf", Density: 10, Seed: 31, Loss: 0.3, Burst: 3, FailFrac: 0.2,
	}}
}

// TestDecodeSpecIgnoresZeroScenario: cell records logged while the spec
// still had a scenario field carry a zero "scenario" object beside the cell;
// they decode to the cell alone.
func TestDecodeSpecIgnoresZeroScenario(t *testing.T) {
	logged := `{"id":"cell-crashy","scenario":{"Density":0,"Seed":0,"Steps":0,"Dt":0,"SigmaN":0,` +
		`"Target":{"Start":{"X":0,"Y":0},"Heading":0,"Speed":0,"StepDt":0,"MaxTurn":0},"FailFraction":0,"SleepFraction":0,` +
		`"SensorFault":{"Kind":0,"Fraction":0,"Magnitude":0,"Start":0,"End":0}},` +
		`"cell":{"algo":"cdpf","density":10,"seed":31,"steps":10,"dt":5,"sigma_n":0.05,"loss":0.3,"burst":3,` +
		`"failfrac":0.2,"sfault":"stuck","hardened":"auto","targets":1},"queue":16}`
	got, err := decodeSpec([]byte(logged))
	if err != nil {
		t.Fatal(err)
	}
	if want := cellSpec("cell-crashy").normalize(); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v (cell %+v), want %+v (cell %+v)", got, *got.Cell, want, *want.Cell)
	}
}

// TestCellServedSessionMatchesOfflineTwin is the determinism contract for
// cell-configured sessions: a served cell fed its own observation feed
// produces a trace byte-identical to OfflineTrace of the same spec.
func TestCellServedSessionMatchesOfflineTwin(t *testing.T) {
	spec := cellSpec("cell-twin")
	offline, err := OfflineTrace(spec)
	if err != nil {
		t.Fatal(err)
	}

	m := NewManager(ManagerConfig{Shards: 2})
	defer m.Drain()
	s, err := m.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, ch, err := m.Subscribe(s.id)
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, m, spec)

	var got []trace.Record
	for rec := range ch {
		got = append(got, rec)
	}
	assertTwinIdentity(t, spec, got)
	if offline.Algo != "cdpf" {
		t.Fatalf("offline twin algo %q", offline.Algo)
	}
}

// TestCellOfflineTraceMatchesRunCell pins the serving path to the batch
// path: OfflineTrace of a cell spec must equal experiments.RunCell of the
// same axes byte for byte, so a cdpfd session, a cdpfsim -spec run, and a
// cdpfmatrix cell are three routes to one set of bytes.
func TestCellOfflineTraceMatchesRunCell(t *testing.T) {
	for _, ax := range []cellspec.Axes{
		{Algo: "cdpf", Density: 10, Seed: 31, Loss: 0.3, Burst: 3, FailFrac: 0.2},
		{Algo: "cdpf-ne", Density: 10, Seed: 62},
		{Algo: "cdpf", Density: 10, Seed: 31, SensorFault: "drift", SensorFaultFrac: 0.2, Defend: true},
	} {
		a := ax
		offline, err := OfflineTrace(SessionSpec{Cell: &a})
		if err != nil {
			t.Fatal(err)
		}
		out, err := experiments.RunCell(context.Background(), ax)
		if err != nil {
			t.Fatal(err)
		}
		var off, cell strings.Builder
		if err := offline.WriteCSV(&off); err != nil {
			t.Fatal(err)
		}
		if err := out.Trace.WriteCSV(&cell); err != nil {
			t.Fatal(err)
		}
		if off.String() != cell.String() {
			t.Fatalf("axes %+v: OfflineTrace differs from RunCell:\noffline:\n%s\ncell:\n%s",
				ax, off.String(), cell.String())
		}
	}
}

// TestCellSpecAdmission rejects cell-less, invalid, and non-serveable specs.
func TestCellSpecAdmission(t *testing.T) {
	m := NewManager(ManagerConfig{Shards: 1})
	defer m.Drain()
	cases := []struct {
		name string
		spec SessionSpec
	}{
		{"no cell", SessionSpec{}},
		{"invalid cell", SessionSpec{Cell: &cellspec.Axes{Loss: 2}}},
		{"baseline algo", SessionSpec{Cell: &cellspec.Axes{Algo: "sdpf"}}},
		{"duty cell", SessionSpec{Cell: &cellspec.Axes{Algo: "cdpf", Duty: 0.3}}},
		{"multi-target cell", SessionSpec{Cell: &cellspec.Axes{Algo: "cdpf", Targets: 3}}},
		{"mobile cell", SessionSpec{Cell: &cellspec.Axes{Algo: "cdpf", Mobility: 0.5}}},
	}
	for _, c := range cases {
		c.spec.ID = "adm-" + c.name
		if _, err := m.Create(c.spec); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
	// A clean serveable cell is accepted.
	if _, err := m.Create(cellSpec("adm-ok")); err != nil {
		t.Fatal(err)
	}
}

// TestCellSessionRecovery crashes a durable cell session after the mid-run
// fail-stop has fired and the last snapshot covers it, so restoreSession's
// fault-schedule replay (not WAL batch re-stepping) must reproduce the downed
// nodes. The finished trace must still match the offline twin byte for byte.
func TestCellSessionRecovery(t *testing.T) {
	dir := t.TempDir()
	spec := cellSpec("cell-crashy")
	batches, err := Observations(spec)
	if err != nil {
		t.Fatal(err)
	}

	st1, _ := openStore(t, dir)
	m1 := NewManager(ManagerConfig{Shards: 2, Store: st1, SnapshotEvery: 2})
	if _, err := m1.Create(spec); err != nil {
		t.Fatal(err)
	}
	// The fail-stop fires at iterations/2 = k=5; step to 8 so the step-8
	// snapshot carries post-fault tracker state over a fresh (all-up) network
	// rebuild.
	feedRange(t, m1, spec.ID, batches, 0, 8)
	waitStepped(t, m1, spec.ID, 8)
	crash(t, m1, st1)

	st2, rec := openStore(t, dir)
	defer st2.Close()
	m2 := NewManager(ManagerConfig{Shards: 1, Store: st2, SnapshotEvery: 2})
	defer m2.Drain()
	if err := m2.Restore(rec); err != nil {
		t.Fatal(err)
	}
	info, ok := m2.Info(spec.ID)
	if !ok || info.Done {
		t.Fatalf("recovered info = %+v", info)
	}
	feedRange(t, m2, spec.ID, batches, info.NextK, len(batches))
	assertTwinIdentity(t, spec, collectAll(t, m2, spec.ID))
}
