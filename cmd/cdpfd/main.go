// Command cdpfd is the online tracking daemon: it hosts concurrent CDPF
// sessions over HTTP, ingesting measurement batches and streaming estimates
// back as Server-Sent Events (see internal/serve for the API and the
// determinism contract with the offline run).
//
// A session is one declarative spec/v1 cell: POST /v1/sessions with a
// "cell" object holding the axes (algo, density, seed, loss, burst,
// failfrac, sensor faults, defend, ...). Cells are admitted only when
// serveable — cdpf/cdpf-ne, single target, no duty cycle or mobility — and
// resolve through the same internal/spec path cdpfsim and cdpfmatrix use, so
// a served cell, an offline -spec run, and a matrix cell produce identical
// bytes.
//
// Usage:
//
//	cdpfd [-addr HOST:PORT] [-shards N] [-shard-queue N] [-max-sessions N]
//	      [-addr-file FILE] [-drain-linger D] [-data-dir DIR]
//	      [-fsync always|interval|none] [-snapshot-every N] [-version]
//
// With -data-dir, sessions are durable: every admitted batch is written to a
// write-ahead log before it is stepped, session state is snapshotted
// periodically, and on startup the daemon replays what a crashed or killed
// predecessor left behind — recovered sessions resume bit-identically (see
// internal/durable). While recovery runs, the port is bound but /v1/ serves
// 503 and /healthz reports "recovering".
//
// The daemon drains gracefully on SIGINT/SIGTERM: admission stops (503),
// every queued iteration is stepped, estimate streams are closed, live
// sessions are snapshotted, and the process exits 0. -addr-file writes the
// bound address (useful with -addr :0 for tests and CI smoke jobs).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/durable"
	"repro/internal/serve"
	"repro/internal/version"
)

// config carries every run parameter (the flag surface, parsed).
type config struct {
	addr          string
	shards        int
	shardQueue    int
	maxSessions   int
	addrFile      string
	drainLinger   time.Duration
	dataDir       string
	fsync         string
	snapshotEvery int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8723", "listen address (use :0 for an ephemeral port)")
	flag.IntVar(&cfg.shards, "shards", runtime.GOMAXPROCS(0), "session shard (worker goroutine) count")
	flag.IntVar(&cfg.shardQueue, "shard-queue", 256, "bounded work-queue depth per shard (503 when full)")
	flag.IntVar(&cfg.maxSessions, "max-sessions", 4096, "live session limit")
	flag.StringVar(&cfg.addrFile, "addr-file", "", "write the bound address to this file once listening")
	flag.DurationVar(&cfg.drainLinger, "drain-linger", 0, "after draining, keep serving session exports until the session table empties or this long passes (lets a gateway evacuate on SIGTERM)")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "durability directory (WAL + snapshots); empty disables durability")
	flag.StringVar(&cfg.fsync, "fsync", "interval", "WAL sync policy: always, interval, or none")
	flag.IntVar(&cfg.snapshotEvery, "snapshot-every", 32, "snapshot each session every N steps")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("cdpfd", version.String())
		return
	}
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "cdpfd:", err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "cdpfd:", err)
		os.Exit(1)
	}
}

// drainTimeout is the maximum time to wait for connection drain after the
// queues empty.
const drainTimeout = 30 * time.Second

// validate rejects flag values the daemon would otherwise not run with, before
// anything binds: the manager substitutes its defaults for non-positive
// sizes, and the fsync policy is otherwise parsed only when -data-dir is set.
func (cfg config) validate() error {
	switch {
	case cfg.shards <= 0:
		return fmt.Errorf("-shards must be positive, got %d", cfg.shards)
	case cfg.shardQueue <= 0:
		return fmt.Errorf("-shard-queue must be positive, got %d", cfg.shardQueue)
	case cfg.maxSessions <= 0:
		return fmt.Errorf("-max-sessions must be positive, got %d", cfg.maxSessions)
	case cfg.snapshotEvery <= 0:
		return fmt.Errorf("-snapshot-every must be positive, got %d", cfg.snapshotEvery)
	}
	if _, err := durable.ParseFsyncPolicy(cfg.fsync); err != nil {
		return fmt.Errorf("-fsync: %w", err)
	}
	return nil
}

func run(cfg config) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	met := serve.NewMetrics(nil)

	// Open the durability directory before anything serves: torn WAL tails
	// are truncated here, and the returned recovery is replayed below.
	var store *durable.Store
	var recovery *durable.Recovery
	if cfg.dataDir != "" {
		policy, err := durable.ParseFsyncPolicy(cfg.fsync)
		if err != nil {
			return err
		}
		store, recovery, err = durable.Open(durable.Options{Dir: cfg.dataDir, Fsync: policy})
		if err != nil {
			return fmt.Errorf("opening durability dir: %w", err)
		}
		defer store.Close()
		met.SetDurability(store.Counters())
	}

	mgr := serve.NewManager(serve.ManagerConfig{
		Shards: cfg.shards, ShardQueue: cfg.shardQueue, MaxSessions: cfg.maxSessions,
		Metrics: met, Store: store, SnapshotEvery: cfg.snapshotEvery,
	})
	met.SetQueueDepthFunc(mgr.QueueDepth)

	handler := serve.NewServer(mgr, met)
	// Bind before recovering, gate the API while sessions rebuild: a
	// restarting daemon is observable (healthz "recovering") instead of
	// connection-refused, and clients' retry loops simply wait it out.
	if store != nil {
		handler.SetRecovering(true)
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if cfg.addrFile != "" {
		tmp := cfg.addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(bound+"\n"), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, cfg.addrFile); err != nil {
			return err
		}
	}
	log.Printf("cdpfd %s listening on %s (%d shards, queue %d/shard, max %d sessions)",
		version.String(), bound, cfg.shards, cfg.shardQueue, cfg.maxSessions)

	// Shared hardening timeouts (slowloris header trickle, idle keep-alives)
	// live in serve.NewHTTPServer so cdpfd and cdpfgw stay in lockstep.
	srv := serve.NewHTTPServer(handler)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	if store != nil {
		t0 := time.Now()
		if err := mgr.Restore(recovery); err != nil {
			return fmt.Errorf("recovering sessions: %w", err)
		}
		c := store.Counters()
		log.Printf("cdpfd: recovered %d sessions (%d WAL batches replayed, %d torn tails truncated) in %v",
			c.RecoveredSessions.Load(), c.ReplayedBatches.Load(), c.TruncatedTails.Load(),
			time.Since(t0).Round(time.Millisecond))
		handler.SetRecovering(false)
	}

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("cdpfd: signal received, draining (%d iterations queued)", mgr.QueueDepth())
	mgr.Drain() // finish queued work, snapshot live sessions, close streams
	// With -drain-linger, the drained daemon lingers with /healthz reporting
	// "draining" and the admin export endpoint still answering: a gateway
	// probing the fleet sees the phase change and pulls every remaining
	// session off via export before this process exits. The linger ends early
	// the moment the session table is empty.
	if cfg.drainLinger > 0 && mgr.LiveSessions() > 0 {
		log.Printf("cdpfd: lingering up to %v for %d sessions to be evacuated", cfg.drainLinger, mgr.LiveSessions())
		lingerEnd := time.Now().Add(cfg.drainLinger)
		for time.Now().Before(lingerEnd) && mgr.LiveSessions() > 0 {
			time.Sleep(50 * time.Millisecond)
		}
		if left := mgr.LiveSessions(); left > 0 {
			log.Printf("cdpfd: linger expired with %d sessions still local (snapshots cover them)", left)
		} else {
			log.Printf("cdpfd: all sessions evacuated")
		}
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if store != nil {
		if err := store.Close(); err != nil {
			return fmt.Errorf("closing durability store: %w", err)
		}
	}
	log.Printf("cdpfd: drained %d steps total, exiting", met.Steps())
	return nil
}
