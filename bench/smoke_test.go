package main

import (
	"bytes"
	"context"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// oneCell returns a one-cell sweep holding the first cell of the workload's
// spec whose grid coordinates match coords.
func oneCell(t *testing.T, file string, coords map[string]string) *sweep {
	t.Helper()
	sw, err := loadSweep(file, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sw.cells {
		match := true
		for k, v := range coords {
			match = match && c.Coords[k] == v
		}
		if !match {
			continue
		}
		f := c.File(sw.file.Name)
		cells, err := f.Expand()
		if err != nil {
			t.Fatal(err)
		}
		return &sweep{file: f, cells: cells, iters: c.Axes.Steps + 1}
	}
	t.Fatalf("%s has no cell matching %v", file, coords)
	return nil
}

// TestSmokeOfflineTimedAndTracedPathsAgree runs one cell of each offline
// workload through the timed path (RunMatrix) and the traced loop, and
// requires byte-identical traces.
func TestSmokeOfflineTimedAndTracedPathsAgree(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		file   string
		coords map[string]string
		step   string
	}{
		{"specs/fig56.json", map[string]string{"algo": "sdpf", "density": "5"}, "baseline.sdpf.step"},
		{"specs/cdpf-track.json", map[string]string{"algo": "cdpf", "density": "20", "loss": "0.3"}, "core.step"},
	} {
		sw := oneCell(t, c.file, c.coords)
		dir := t.TempDir()
		_, _, done, err := matrixPass(ctx, sw, dir, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(done) != 1 {
			t.Fatalf("%s: %d cell results, want 1", c.file, len(done))
		}
		ref, err := readTraces(sw, dir)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		facts, err := tracedCell(ctx, tr, tr.newID(), sw.file.Name, sw.cells[0], t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(facts.csv, ref[sw.cells[0].Name]) {
			t.Errorf("%s: traced loop trace differs from RunMatrix's:\n%s\nvs\n%s", c.file, facts.csv, ref[sw.cells[0].Name])
		}
		ix := indexSpans(tr.snapshot())
		for name, want := range map[string]int{
			"experiments.cell": 1, "experiments.io": 1, "scenario.build": 1,
			"scenario.observe": sw.iters, "wsn.faults": sw.iters, c.step: sw.iters,
		} {
			if got := len(ix.byName[name]); got != want {
				t.Errorf("%s: %d %s spans, want %d", c.file, got, name, want)
			}
		}
		if share := ix.selfTotal("experiments.cell") / ix.total("experiments.cell"); share > 0.5 {
			t.Errorf("%s: %.0f%% of the cell is outside its child spans", c.file, 100*share)
		}
	}
}

// TestSmokeServeCoreSessionsMatchOfflineTrace drives two sessions through
// the in-process serve-core path and checks every record against
// serve.OfflineTrace.
func TestSmokeServeCoreSessionsMatchOfflineTrace(t *testing.T) {
	ctx := context.Background()
	e := &env{seed: 5, seconds: 1, workers: 2, specs: "specs", work: t.TempDir()}
	pool, err := loadPool(ctx, e, false)
	if err != nil {
		t.Fatal(err)
	}
	d, err := openCore(pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.rss = startRSS(os.Getpid())
	defer d.rss.close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.receive()
	}()
	r, runErr := d.runRung(rung{name: "nominal", rate: 400}, 200*time.Millisecond)
	if runErr == nil {
		runErr = d.finish()
	}
	close(d.stop)
	wg.Wait()
	d.mgr.Drain()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if len(r.ops) != 80 || len(d.sessions) != 2 {
		t.Fatalf("%d ops over %d sessions, want 80 over 2", len(r.ops), len(d.sessions))
	}
	if _, missing := r.latencies(d.sessions); missing != 0 {
		t.Errorf("%d steps without an estimate", missing)
	}
	want, err := twins(ctx, e, pool, len(d.sessions))
	if err != nil {
		t.Fatal(err)
	}
	o := newOutcome()
	if bad := verifySessions(o, d.sessions, want, corePayloads); bad != 0 {
		t.Errorf("%d sessions differ from their offline twins: %v", bad, o.problems)
	}
}

func TestReadStreamRecordsEstimatesUntilDone(t *testing.T) {
	d := &httpDriver{deliveries: newDeliveries()}
	s := &servedSession{}
	body := "event: estimate\ndata: {\"k\":0}\n\nevent: estimate\ndata: {\"k\":1}\n\nevent: done\ndata: {\"estimates\":2}\n\n"
	if err := d.readStream(s, strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	if len(s.data) != 2 || string(s.data[1]) != `{"k":1}` || s.recv.Load() != 2 || d.delivered.Load() != 2 || len(s.arrive) != 2 {
		t.Errorf("got %q, recv %d, delivered %d", s.data, s.recv.Load(), d.delivered.Load())
	}
	if err := d.readStream(&servedSession{}, strings.NewReader(body[:30])); err == nil {
		t.Error("a stream cut before its done event read as complete")
	}
}
