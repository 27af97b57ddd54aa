package serve

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestBatchDrainByteIdentity pins the step batch as a pure throughput
// device: many sessions fed round-robin through batch-draining shards
// produce traces byte identical to each session's offline run. The
// round-robin feed keeps every shard queue populated while its worker is
// stepping, so the drain loop really does pull multi-session batches.
func TestBatchDrainByteIdentity(t *testing.T) {
	const sessions = 6
	csv := func(rec *trace.Recorder) string {
		var b strings.Builder
		if err := rec.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	m := NewManager(ManagerConfig{Shards: 2})
	defer m.Drain()
	specs := make([]SessionSpec, sessions)
	batches := make([][]Batch, sessions)
	chans := make(map[string]<-chan trace.Record, sessions)
	for i := range specs {
		specs[i] = testSpec(fmt.Sprintf("batch-%d", i), uint64(50+i))
		bs, err := Observations(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		batches[i] = bs
		if _, err := m.Create(specs[i]); err != nil {
			t.Fatal(err)
		}
		_, ch, err := m.Subscribe(specs[i].ID)
		if err != nil {
			t.Fatal(err)
		}
		chans[specs[i].ID] = ch
	}
	// Feed one iteration per session per round: the queues stay loaded
	// across sessions, which is exactly the shape the drain amortizes.
	for k := 0; k < len(batches[0]); k++ {
		for i := range specs {
			for {
				_, err := m.Ingest(specs[i].ID, IngestRequest{Batches: []Batch{batches[i][k]}})
				if err == nil {
					break
				}
				var ae *AdmitError
				if !asAdmit(err, &ae) || (ae.Status != 429 && ae.Status != 503) {
					t.Fatalf("ingest session %d k=%d: %v", i, k, err)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	for _, spec := range specs {
		rec := &trace.Recorder{}
		for r := range chans[spec.ID] {
			rec.Add(r)
		}
		offline, err := OfflineTrace(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := csv(rec), csv(offline); got != want {
			t.Fatalf("session %s: batched trace differs from offline:\noffline:\n%s\nbatched:\n%s",
				spec.ID, want, got)
		}
	}
}
