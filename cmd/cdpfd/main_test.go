package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestRunServesAndDrainsOnSIGTERM boots the daemon on an ephemeral port,
// confirms it serves /healthz and /metrics, then delivers SIGTERM to the test
// process and requires run() to drain and return nil — the graceful-shutdown
// contract the CI smoke job also asserts from the outside.
func TestRunServesAndDrainsOnSIGTERM(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "cdpfd.addr")
	done := make(chan error, 1)
	go func() {
		done <- run(config{
			addr: "127.0.0.1:0", shards: 2, shardQueue: 16, maxSessions: 64,
			addrFile: addrFile,
		})
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatal("daemon never wrote its address file")
		}
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			addr = string(data[:len(data)-1]) // trailing newline
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

// TestValidateRejects: every sizing flag must be positive and -fsync must
// name a policy whether or not -data-dir is set; each error names its flag.
func TestValidateRejects(t *testing.T) {
	good := config{
		addr: "127.0.0.1:0", shards: 2, shardQueue: 256, maxSessions: 4096,
		fsync: "interval", snapshotEvery: 32,
	}
	if err := good.validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	cases := []struct {
		flag string
		mut  func(*config)
	}{
		{"-shards", func(c *config) { c.shards = 0 }},
		{"-shard-queue", func(c *config) { c.shardQueue = -1 }},
		{"-max-sessions", func(c *config) { c.maxSessions = 0 }},
		{"-snapshot-every", func(c *config) { c.snapshotEvery = 0 }},
		{"-fsync", func(c *config) { c.fsync = "sometimes" }},
		{"-fsync", func(c *config) { c.fsync = "sometimes"; c.dataDir = t.TempDir() }},
	}
	for _, tc := range cases {
		cfg := good
		tc.mut(&cfg)
		err := cfg.validate()
		if err == nil {
			t.Fatalf("%s: bad config %+v accepted", tc.flag, cfg)
		}
		if !strings.Contains(err.Error(), tc.flag) {
			t.Fatalf("%s: error %q does not name the flag", tc.flag, err)
		}
	}
}
