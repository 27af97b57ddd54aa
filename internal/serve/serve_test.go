package serve

import (
	"math"
	"strings"
	"testing"
	"time"

	cellspec "repro/internal/spec"
	"repro/internal/trace"
)

// testSpec is a small, fast session: density 10, 10 filter iterations.
func testSpec(id string, seed uint64) SessionSpec {
	return SessionSpec{ID: id, Cell: &cellspec.Axes{Algo: "cdpf", Density: 10, Seed: seed}}
}

// feedAll ingests every batch of a spec one iteration at a time, waiting for
// queue space, and returns the batch count.
func feedAll(t *testing.T, m *Manager, spec SessionSpec) int {
	t.Helper()
	batches, err := Observations(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		for {
			_, err := m.Ingest(spec.ID, IngestRequest{Batches: []Batch{b}})
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
	return len(batches)
}

func asAdmit(err error, out **AdmitError) bool {
	ae, ok := err.(*AdmitError)
	if ok {
		*out = ae
	}
	return ok
}

func TestServedSessionMatchesOfflineRun(t *testing.T) {
	spec := testSpec("twin", 31)
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
	if len(got) != offline.Len() {
		t.Fatalf("served %d records, offline %d", len(got), offline.Len())
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
		t.Fatalf("served trace differs from offline trace:\noffline:\n%s\nserved:\n%s",
			off.String(), srv.String())
	}
	if math.IsNaN(served.RMSE()) || served.RMSE() <= 0 {
		t.Fatalf("served RMSE = %v, want positive", served.RMSE())
	}
}

// TestServedDeterministicAcrossShardCounts: the shard count is a pure
// scheduling knob — 1, 2, or 8 shards produce byte-identical traces.
func TestServedDeterministicAcrossShardCounts(t *testing.T) {
	var want string
	for _, shards := range []int{1, 2, 8} {
		m := NewManager(ManagerConfig{Shards: shards})
		spec := testSpec("det", 7)
		s, err := m.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, ch, err := m.Subscribe(s.id)
		if err != nil {
			t.Fatal(err)
		}
		feedAll(t, m, spec)
		rec := &trace.Recorder{}
		for r := range ch {
			rec.Add(r)
		}
		var b strings.Builder
		if err := rec.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if want == "" {
			want = b.String()
		} else if b.String() != want {
			t.Fatalf("shards=%d produced a different trace", shards)
		}
		m.Drain()
	}
}

func TestIngestSequencing(t *testing.T) {
	m := NewManager(ManagerConfig{Shards: 1})
	defer m.Drain()
	spec := testSpec("seq", 3)
	if _, err := m.Create(spec); err != nil {
		t.Fatal(err)
	}
	batches, err := Observations(spec)
	if err != nil {
		t.Fatal(err)
	}

	var ae *AdmitError
	// Out of order: k=1 first.
	_, err = m.Ingest("seq", IngestRequest{Batches: []Batch{batches[1]}})
	if !asAdmit(err, &ae) || ae.Status != 409 {
		t.Fatalf("out-of-order ingest: %v", err)
	}
	// Non-consecutive run inside one request.
	_, err = m.Ingest("seq", IngestRequest{Batches: []Batch{batches[0], batches[2]}})
	if !asAdmit(err, &ae) || ae.Status != 409 {
		t.Fatalf("gapped ingest: %v", err)
	}
	// Empty request.
	_, err = m.Ingest("seq", IngestRequest{})
	if !asAdmit(err, &ae) || ae.Status != 400 {
		t.Fatalf("empty ingest: %v", err)
	}
	// Unknown session.
	_, err = m.Ingest("nope", IngestRequest{Batches: []Batch{batches[0]}})
	if !asAdmit(err, &ae) || ae.Status != 404 {
		t.Fatalf("unknown session ingest: %v", err)
	}
	// Past the end: feed everything, then one more.
	feedAll(t, m, spec)
	_, err = m.Ingest("seq", IngestRequest{Batches: []Batch{{K: len(batches)}}})
	if !asAdmit(err, &ae) || (ae.Status != 409 && ae.Status != 404) {
		t.Fatalf("past-end ingest: %v", err)
	}
}

func TestCreateValidation(t *testing.T) {
	m := NewManager(ManagerConfig{Shards: 1})
	defer m.Drain()

	// Invalid scenario (negative density) surfaces the cell's validation.
	bad := testSpec("bad", 1)
	bad.Cell.Density = -5
	if _, err := m.Create(bad); err == nil {
		t.Fatal("negative density accepted")
	}
	// Duplicate ID.
	if _, err := m.Create(testSpec("dup", 1)); err != nil {
		t.Fatal(err)
	}
	var ae *AdmitError
	_, err := m.Create(testSpec("dup", 2))
	if !asAdmit(err, &ae) || ae.Status != 409 {
		t.Fatalf("duplicate create: %v", err)
	}
	// Server-assigned IDs.
	s, err := m.Create(testSpec("", 9))
	if err != nil {
		t.Fatal(err)
	}
	if s.id == "" {
		t.Fatal("empty server-assigned ID")
	}
}

// TestOverloadBackpressure stalls the shard worker behind a gate and proves
// the two-level admission semantics: 429 when a session overruns its own
// budget, 503 when the shard queue is full, and full progress for every
// admitted batch once the stall clears.
func TestOverloadBackpressure(t *testing.T) {
	gate := make(chan struct{})
	met := NewMetrics(nil)
	m := NewManager(ManagerConfig{Shards: 1, ShardQueue: 4, Metrics: met, stepGate: gate})
	defer m.Drain()

	specA := testSpec("over-a", 1)
	specA.Queue = 2
	specB := testSpec("over-b", 2)
	if _, err := m.Create(specA); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(specB); err != nil {
		t.Fatal(err)
	}
	ba, err := Observations(specA)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := Observations(specB)
	if err != nil {
		t.Fatal(err)
	}

	// Session A fills its own budget (2), then gets 429.
	if _, err := m.Ingest("over-a", IngestRequest{Batches: ba[:2]}); err != nil {
		t.Fatal(err)
	}
	var ae *AdmitError
	_, err = m.Ingest("over-a", IngestRequest{Batches: ba[2:3]})
	if !asAdmit(err, &ae) || ae.Status != 429 {
		t.Fatalf("session-queue overrun: %v", err)
	}

	// Session B is unaffected by A's 429 and fills the shard (cap 4),
	// then the server as a whole sheds with 503.
	if _, err := m.Ingest("over-b", IngestRequest{Batches: bb[:2]}); err != nil {
		t.Fatal(err)
	}
	_, err = m.Ingest("over-b", IngestRequest{Batches: bb[2:3]})
	if !asAdmit(err, &ae) || ae.Status != 503 {
		t.Fatalf("shard-queue overrun: %v", err)
	}
	if got := m.QueueDepth(); got != 4 {
		t.Fatalf("QueueDepth = %d, want 4", got)
	}

	// Release the stall: every admitted batch steps, queues empty, and both
	// sessions accept further feed.
	close(gate)
	waitFor(t, func() bool { return m.QueueDepth() == 0 })
	if _, err := m.Ingest("over-a", IngestRequest{Batches: ba[2:4]}); err != nil {
		t.Fatalf("post-stall ingest A: %v", err)
	}
	if _, err := m.Ingest("over-b", IngestRequest{Batches: bb[2:4]}); err != nil {
		t.Fatalf("post-stall ingest B: %v", err)
	}
	waitFor(t, func() bool { return met.Steps() == 8 })

	var mb strings.Builder
	if err := met.WritePrometheus(&mb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`cdpfd_rejected_total{reason="session_queue"} 1`,
		`cdpfd_rejected_total{reason="shard_queue"} 1`,
		"cdpfd_steps_total 8",
		"cdpfd_sessions_created_total 2",
	} {
		if !strings.Contains(mb.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, mb.String())
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within deadline")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainClosesStreamsAndRejectsWork: drain finishes queued steps, closes
// subscriber channels, and every admission afterwards is a 503.
func TestDrainClosesStreamsAndRejectsWork(t *testing.T) {
	m := NewManager(ManagerConfig{Shards: 2})
	spec := testSpec("drainee", 5)
	if _, err := m.Create(spec); err != nil {
		t.Fatal(err)
	}
	batches, err := Observations(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ingest("drainee", IngestRequest{Batches: batches[:3]}); err != nil {
		t.Fatal(err)
	}
	snap, ch, err := m.Subscribe("drainee")
	if err != nil {
		t.Fatal(err)
	}

	m.Drain()
	m.Drain() // idempotent

	// The three admitted batches were stepped; the stream is closed. A
	// batch the shard stepped before Subscribe is in the snapshot, not on
	// the channel.
	n := len(snap)
	for range ch {
		n++
	}
	if n != 3 {
		t.Fatalf("drained stream delivered %d records, want 3", n)
	}
	var ae *AdmitError
	_, err = m.Ingest("drainee", IngestRequest{Batches: batches[3:4]})
	if !asAdmit(err, &ae) || ae.Status != 503 {
		t.Fatalf("post-drain ingest: %v", err)
	}
	_, err = m.Create(testSpec("late", 6))
	if !asAdmit(err, &ae) || ae.Status != 503 {
		t.Fatalf("post-drain create: %v", err)
	}
}

// TestFinishedSessionReadback: a session fed to completion before anyone
// subscribes still serves its full record set, with the heavy state gone.
func TestFinishedSessionReadback(t *testing.T) {
	m := NewManager(ManagerConfig{Shards: 1})
	defer m.Drain()
	spec := testSpec("replay", 11)
	if _, err := m.Create(spec); err != nil {
		t.Fatal(err)
	}
	n := feedAll(t, m, spec)
	waitFor(t, func() bool {
		info, ok := m.Info("replay")
		return ok && info.Done
	})
	snap, ch, err := m.Subscribe("replay")
	if err != nil {
		t.Fatal(err)
	}
	if ch != nil {
		t.Fatal("finished session returned a live channel")
	}
	if len(snap) != n {
		t.Fatalf("finished snapshot has %d records, want %d", len(snap), n)
	}
	info, ok := m.Info("replay")
	if !ok || !info.Done || info.Stepped != n {
		t.Fatalf("finished info = %+v", info)
	}
	// The ID is reusable after completion.
	if _, err := m.Create(testSpec("replay", 12)); err != nil {
		t.Fatalf("reusing finished ID: %v", err)
	}
}

func TestSessionInfoProgress(t *testing.T) {
	m := NewManager(ManagerConfig{Shards: 1})
	defer m.Drain()
	spec := testSpec("prog", 21)
	if _, err := m.Create(spec); err != nil {
		t.Fatal(err)
	}
	info, ok := m.Info("prog")
	if !ok {
		t.Fatal("no info")
	}
	if info.Iterations != 11 || info.Stepped != 0 || info.Done {
		t.Fatalf("fresh info = %+v", info)
	}
	if info.Nodes <= 0 {
		t.Fatalf("info.Nodes = %d", info.Nodes)
	}
	batches, err := Observations(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ingest("prog", IngestRequest{Batches: batches[:4]}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		info, _ := m.Info("prog")
		return info.Stepped == 4
	})
	info, _ = m.Info("prog")
	if info.NextK != 4 || info.Done {
		t.Fatalf("mid-run info = %+v", info)
	}
}
