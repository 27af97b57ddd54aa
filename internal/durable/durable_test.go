package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/trace"
	"repro/internal/wsn"
)

// testSnapshot builds a snapshot exercising every field, including the
// optional quarantine block and a multi-record trace.
func testSnapshot() *Snapshot {
	s := &Snapshot{
		ID:        "sess-0042",
		SpecJSON:  []byte(`{"nodes":20,"seed":7}`),
		Stepped:   17,
		RNG:       mathx.RNGState{S: [4]uint64{1, 2, 3, ^uint64(0)}, Gauss: -0.25, HasGauss: true},
		LossEpoch: 913,
	}
	for i := range s.Comm.Msgs {
		s.Comm.Msgs[i] = int64(100 + i)
		s.Comm.Bytes[i] = int64(9000 + i)
	}
	s.Tracker = core.TrackerState{
		Holders: []core.HolderState{
			{ID: 2, W: 0.5, Vel: mathx.Vec2{X: 1.5, Y: -2.25}},
			{ID: 7, W: 0.25, Vel: mathx.Vec2{X: 0, Y: 3}},
		},
		MissedIters: -1,
		Iter:        17,
		LostAt:      4,
		EverEst:     true,
		Gated:       3,
		Resil: core.ResilienceStats{
			Rebroadcasts: 5, RebroadcastSaves: 2, Compensated: 1,
			LossEpisodes: 2, LockedIters: 12, LostIters: 5,
			Reacquires: []int{3, 9},
		},
		Quar: &core.ReputationState{
			Scores:       []core.NodeScore{{ID: 1, Score: 0.125}, {ID: 4, Score: -2.5}},
			Quarantined:  []wsn.NodeID{4},
			Ever:         []wsn.NodeID{1, 4},
			Scored:       []wsn.NodeID{1, 4, 9},
			Evictions:    2,
			Readmissions: 1,
		},
	}
	s.Records = []trace.Record{
		{K: 0, Time: 0, TruthX: 1, TruthY: 2, Detectors: 3, Holders: 8, MsgsDelta: 40, BytesDelta: 640},
		{K: 1, Time: 5, TruthX: 1.5, TruthY: 2.5, HaveEst: true, EstForK: 0, EstX: 1.1, EstY: 2.2, Err: 0.3, Detectors: 4, Holders: 8, MsgsDelta: 44, BytesDelta: 700},
	}
	return s
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(*Snapshot)
	}{
		{"full", func(*Snapshot) {}},
		{"no-quarantine", func(s *Snapshot) { s.Tracker.Quar = nil }},
		{"empty-collections", func(s *Snapshot) {
			s.Tracker.Holders = nil
			s.Tracker.Resil.Reacquires = nil
			s.Records = nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := testSnapshot()
			tc.mod(want)
			got, err := decodeSnapshot(want.encode(nil))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	enc := testSnapshot().encode(nil)
	// Truncations at every length and single-byte flips at every offset must
	// decode to an error, never a panic and never a silent success (any flip
	// lands in magic, version, length, CRC, or a CRC-covered payload byte).
	for n := 0; n < len(enc); n++ {
		if _, err := decodeSnapshot(enc[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
	for i := 0; i < len(enc); i++ {
		mut := bytes.Clone(enc)
		mut[i] ^= 0x40
		if _, err := decodeSnapshot(mut); err == nil {
			t.Fatalf("bit flip at offset %d decoded successfully", i)
		}
	}
}

func TestWALWriteAndRecover(t *testing.T) {
	dir := t.TempDir()
	st, rec, err := Open(Options{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Sessions) != 0 || len(rec.Snapshots) != 0 {
		t.Fatalf("fresh dir not empty: %+v", rec)
	}
	specA := []byte(`{"steps":3}`)
	specB := []byte(`{"steps":2}`)
	if err := st.LogCreate(0, "a", specA); err != nil {
		t.Fatal(err)
	}
	if err := st.LogCreate(1, "b", specB); err != nil {
		t.Fatal(err)
	}
	batches := []*BatchRecord{
		{ID: "a", K: 0, Obs: []Obs{{Node: 3, Bearing: 1.25}, {Node: 9, Bearing: -0.5}}},
		{ID: "a", K: 1, Obs: nil},
		{ID: "b", K: 0, Obs: []Obs{{Node: 0, Bearing: 2.0}}},
		{ID: "a", K: 2, Obs: []Obs{{Node: 1, Bearing: 0.125}}},
	}
	for _, b := range batches {
		shard := 0
		if b.ID == "b" {
			shard = 1
		}
		if err := st.LogBatch(shard, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.SaveSnapshot(testSnapshot()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec2, err := Open(Options{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got, want := rec2.Order, []string{"a", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("session order %v, want %v", got, want)
	}
	a := rec2.Sessions["a"]
	if !bytes.Equal(a.SpecJSON, specA) {
		t.Fatalf("spec A %q, want %q", a.SpecJSON, specA)
	}
	wantA := []*BatchRecord{batches[0], batches[1], batches[3]}
	if !reflect.DeepEqual(a.Batches, wantA) {
		t.Fatalf("batches A mismatch:\ngot  %+v\nwant %+v", a.Batches, wantA)
	}
	b := rec2.Sessions["b"]
	if !reflect.DeepEqual(b.Batches, []*BatchRecord{batches[2]}) {
		t.Fatalf("batches B mismatch: %+v", b.Batches)
	}
	snap := rec2.Snapshots["sess-0042"]
	if snap == nil || snap.Stepped != 17 {
		t.Fatalf("snapshot not recovered: %+v", snap)
	}
	// The second boot must claim a new generation: logging to the same shard
	// creates a distinct segment rather than appending to the old one.
	if err := st2.LogCreate(0, "c", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 {
		t.Fatalf("expected 3 segments after second boot, got %d", len(segs))
	}
}

func TestSessionIDReuseKeepsLatestIncarnation(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(Options{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.LogCreate(0, "dup", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.LogBatch(0, &BatchRecord{ID: "dup", K: 0}); err != nil {
		t.Fatal(err)
	}
	if err := st.LogCreate(0, "dup", []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.LogBatch(0, &BatchRecord{ID: "dup", K: 0, Obs: []Obs{{Node: 5, Bearing: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := rec.Sessions["dup"]
	if !bytes.Equal(s.SpecJSON, []byte(`{"v":2}`)) {
		t.Fatalf("spec %q, want v2", s.SpecJSON)
	}
	if len(s.Batches) != 1 || len(s.Batches[0].Obs) != 1 {
		t.Fatalf("want only the second incarnation's batch, got %+v", s.Batches)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(Options{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.LogCreate(0, "s", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.LogBatch(0, &BatchRecord{ID: "s", K: 0, Obs: []Obs{{Node: 1, Bearing: 0.5}}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, walDirName, segmentName(1, 0))
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	validLen := info.Size()
	for _, tail := range [][]byte{
		{0x01, 0x02, 0x03},             // partial header
		{9, 0, 0, 0, 1, 2, 3, 4, 0xff}, // valid-looking length, bad CRC, partial payload
		bytes.Repeat([]byte{0xff}, 64), // implausible length word
	} {
		if err := os.WriteFile(seg, append(readFile(t, seg), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		st2, rec, err := Open(Options{Dir: dir, Fsync: FsyncNone})
		if err != nil {
			t.Fatal(err)
		}
		st2.Close()
		c := st2.Counters()
		if got := len(rec.Sessions["s"].Batches); got != 1 {
			t.Fatalf("recovered %d batches, want 1", got)
		}
		if c.TruncatedTails.Load() != 1 {
			t.Fatalf("TruncatedTails = %d, want 1", c.TruncatedTails.Load())
		}
		info, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != validLen {
			t.Fatalf("segment not truncated to valid prefix: %d, want %d", info.Size(), validLen)
		}
	}
	// A clean reopen counts no further truncations.
	st3, _, err := Open(Options{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	st3.Close()
	c := st3.Counters()
	if c.TruncatedTails.Load() != 0 {
		t.Fatalf("clean segments still truncated: %d", c.TruncatedTails.Load())
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestOrphanBatchSkipped(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, walDirName), 0o755); err != nil {
		t.Fatal(err)
	}
	// Hand-craft a segment holding a batch with no create record.
	payload := encodeBatch(nil, &BatchRecord{ID: "ghost", K: 0})
	if err := os.WriteFile(filepath.Join(dir, walDirName, segmentName(1, 0)), frame(nil, payload), 0o644); err != nil {
		t.Fatal(err)
	}
	c := new(Counters)
	rec, err := load(dir, c, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Sessions) != 0 {
		t.Fatalf("orphan batch created a session: %+v", rec.Sessions)
	}
	if c.OrphanBatches.Load() != 1 {
		t.Fatalf("OrphanBatches = %d, want 1", c.OrphanBatches.Load())
	}
}

func TestCorruptSnapshotSkipped(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(Options{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSnapshot(testSnapshot()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapDirName, "junk.snap"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := new(Counters)
	snaps, err := loadSnapshots(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps["sess-0042"] == nil {
		t.Fatalf("snapshots = %v", snaps)
	}
	if c.SnapshotErrors.Load() != 1 {
		t.Fatalf("SnapshotErrors = %d, want 1", c.SnapshotErrors.Load())
	}
}

func TestSnapshotPathEscapesUnsafeIDs(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(Options{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	snap := testSnapshot()
	snap.ID = "../../etc/passwd: weird/$id"
	if err := st.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	snaps, err := loadSnapshots(dir, new(Counters))
	if err != nil {
		t.Fatal(err)
	}
	if snaps[snap.ID] == nil {
		t.Fatalf("escaped snapshot not found: %v", snaps)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for s, want := range map[string]FsyncPolicy{"always": FsyncAlways, "interval": FsyncInterval, "none": FsyncNone} {
		got, err := ParseFsyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}
