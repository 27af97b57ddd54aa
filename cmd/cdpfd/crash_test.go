package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	cellspec "repro/internal/spec"
	"repro/internal/trace"
)

// TestCrashRecoveryByteIdentical is the headline durability test: build the
// real cdpfd binary, drive sessions over HTTP, kill -9 the daemon mid-run,
// restart it on the same data directory, finish every session, and diff each
// session's trace byte-for-byte against its uninterrupted offline twin.
func TestCrashRecoveryByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon; skipped in -short")
	}
	workDir := t.TempDir()
	bin := filepath.Join(workDir, "cdpfd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building cdpfd: %v", err)
	}
	dataDir := filepath.Join(workDir, "data")

	specs := []serve.SessionSpec{
		{ID: "crash-a", Cell: &cellspec.Axes{Algo: "cdpf", Density: 10, Seed: 1201}},
		{ID: "crash-b", Cell: &cellspec.Axes{Algo: "cdpf-ne", Density: 10, Seed: 1202}},
	}
	feeds := make(map[string][]serve.Batch, len(specs))
	for _, spec := range specs {
		batches, err := serve.Observations(spec)
		if err != nil {
			t.Fatal(err)
		}
		feeds[spec.ID] = batches
	}

	// Boot one: create both sessions, feed roughly half of each, and confirm
	// the daemon stepped them before the kill.
	d := startDaemon(t, bin, dataDir)
	for _, spec := range specs {
		d.create(t, spec)
	}
	const half = 5
	for _, spec := range specs {
		d.feed(t, spec.ID, feeds[spec.ID][:half])
	}
	for _, spec := range specs {
		d.waitStepped(t, spec.ID, half)
	}
	d.kill(t) // SIGKILL: no drain, no final snapshots, no goodbye

	// Boot two: same data directory, fresh ephemeral port. Recovery must
	// land every session exactly where the kill left it.
	d = startDaemon(t, bin, dataDir)
	defer d.stop(t)
	for _, spec := range specs {
		info := d.info(t, spec.ID)
		if info.Done || info.Stepped != half || info.NextK != half {
			t.Fatalf("session %q after restart: %+v, want stepped=%d live", spec.ID, info, half)
		}
	}
	for _, spec := range specs {
		d.feed(t, spec.ID, feeds[spec.ID][half:])
	}
	for _, spec := range specs {
		got := d.collect(t, spec.ID)
		offline, err := serve.OfflineTrace(spec)
		if err != nil {
			t.Fatal(err)
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
			t.Fatalf("session %q: recovered trace differs from offline twin:\noffline:\n%s\nserved:\n%s",
				spec.ID, off.String(), srv.String())
		}
	}

	// The restarted daemon's metrics must account for the recovery.
	metrics := d.get(t, "/metrics")
	for _, want := range []string{"cdpfd_recovered_sessions_total 2", "cdpfd_wal_records_total"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// daemon drives one cdpfd process over HTTP in the crash tests.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// startDaemon launches the binary on an ephemeral port with durability
// enabled and waits for /healthz to say "ready" (which covers recovery).
func startDaemon(t *testing.T, bin, dataDir string) *daemon {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-data-dir", dataDir, "-fsync", "interval", "-snapshot-every", "3",
		"-shards", "2")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting cdpfd: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("daemon never became ready")
		}
		data, err := os.ReadFile(addrFile)
		if err != nil || len(data) == 0 {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		base := "http://" + strings.TrimSpace(string(data))
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.TrimSpace(string(body)) == "ready" {
				return &daemon{cmd: cmd, base: base}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// kill delivers SIGKILL — the crash under test — and reaps the process.
func (d *daemon) kill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = d.cmd.Wait()
}

// stop shuts the daemon down gracefully (end-of-test cleanup).
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	_ = d.cmd.Process.Signal(os.Interrupt)
	done := make(chan struct{})
	go func() { d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		t.Error("daemon did not exit on SIGINT")
	}
}

func (d *daemon) create(t *testing.T, spec serve.SessionSpec) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(d.base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("create %q: HTTP %d: %s", spec.ID, resp.StatusCode, msg)
	}
}

// feed posts batches one at a time, retrying 429/503 (budget backpressure).
func (d *daemon) feed(t *testing.T, id string, batches []serve.Batch) {
	t.Helper()
	for _, b := range batches {
		body, err := json.Marshal(serve.IngestRequest{Batches: []serve.Batch{b}})
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			if time.Now().After(deadline) {
				t.Fatalf("feeding %q k=%d never accepted", id, b.K)
			}
			resp, err := http.Post(d.base+"/v1/sessions/"+id+"/measurements", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			status := resp.StatusCode
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if status == http.StatusAccepted {
				break
			}
			if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
				t.Fatalf("feeding %q k=%d: HTTP %d: %s", id, b.K, status, msg)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func (d *daemon) info(t *testing.T, id string) serve.SessionInfo {
	t.Helper()
	resp, err := http.Get(d.base + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("info %q: HTTP %d: %s", id, resp.StatusCode, msg)
	}
	var info serve.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

func (d *daemon) waitStepped(t *testing.T, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if d.info(t, id).Stepped >= n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("session %q never reached %d steps", id, n)
}

// collect reads the session's full SSE estimate stream.
func (d *daemon) collect(t *testing.T, id string) []trace.Record {
	t.Helper()
	resp, err := http.Get(d.base + "/v1/sessions/" + id + "/estimates")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("estimates %q: HTTP %d: %s", id, resp.StatusCode, msg)
	}
	var recs []trace.Record
	event := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if event == "done" {
				return recs
			}
			if event != "estimate" {
				continue
			}
			var rec trace.Record
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &rec); err != nil {
				t.Fatalf("bad estimate event: %v", err)
			}
			recs = append(recs, rec)
		}
	}
	return recs
}

func (d *daemon) get(t *testing.T, path string) string {
	t.Helper()
	resp, err := http.Get(d.base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestDurabilityFlagValidation: a bad -fsync value must fail startup.
func TestDurabilityFlagValidation(t *testing.T) {
	err := run(config{
		addr: "127.0.0.1:0", shards: 1, shardQueue: 4, maxSessions: 4,
		dataDir: t.TempDir(), fsync: "sometimes", drainTimeout: time.Second,
	})
	if err == nil {
		t.Fatal("bad fsync policy accepted")
	}
	if !strings.Contains(err.Error(), "fsync") {
		t.Fatalf("unexpected error: %v", err)
	}
}
