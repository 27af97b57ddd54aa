// Command cdpfgw is the cluster gateway for cdpfd: a stateless HTTP front
// door that routes every session-scoped request to the backend that owns the
// session under rendezvous hashing, falls through the ring when a backend
// does not have it, and live-migrates sessions off draining backends (see
// internal/gateway and internal/ring).
//
// Usage:
//
//	cdpfgw -backends NAME=HOST:PORT,NAME=HOST:PORT,...
//	       [-addr HOST:PORT] [-addr-file FILE] [-probe-every D] [-version]
//
// The gateway probes every backend's /healthz on -probe-every. When a
// backend transitions to "draining" (a cdpfd that received SIGTERM with
// -drain-linger set), the gateway automatically evacuates it: each of its
// live sessions is exported at a step boundary and imported into its new
// ring owner, while client requests for in-flight sessions are held, not
// failed. Explicit evacuation is POST /admin/migrate?backend=NAME.
//
// Endpoints: the full cdpfd /v1 session API (proxied), /cluster (topology +
// per-backend session census), /metrics (gateway counters + per-metric sums
// across backends), /healthz (200 "ready" while any backend can own
// sessions).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/ring"
	"repro/internal/serve"
	"repro/internal/version"
)

type config struct {
	addr       string
	addrFile   string
	backends   string
	probeEvery time.Duration
}

// drainTimeout is the maximum time to wait for connection drain on shutdown.
const drainTimeout = 10 * time.Second

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8780", "listen address (use :0 for an ephemeral port)")
	flag.StringVar(&cfg.addrFile, "addr-file", "", "write the bound address to this file once listening")
	flag.StringVar(&cfg.backends, "backends", "", "comma-separated NAME=HOST:PORT backend list (required)")
	flag.DurationVar(&cfg.probeEvery, "probe-every", 500*time.Millisecond, "backend /healthz probe interval")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("cdpfgw", version.String())
		return
	}
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "cdpfgw:", err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "cdpfgw:", err)
		os.Exit(1)
	}
}

// validate rejects nonsensical flag values before anything binds.
func (cfg config) validate() error {
	if cfg.probeEvery <= 0 {
		return fmt.Errorf("-probe-every must be positive, got %v", cfg.probeEvery)
	}
	return nil
}

// parseBackends turns "b0=127.0.0.1:9000,b1=127.0.0.1:9001" into ring
// backends; bare addresses gain an http:// scheme.
func parseBackends(s string) ([]ring.Backend, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-backends is required (NAME=HOST:PORT,...)")
	}
	var out []ring.Backend
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addr, ok := strings.Cut(part, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("bad backend %q, want NAME=HOST:PORT", part)
		}
		if !strings.Contains(addr, "://") {
			addr = "http://" + addr
		}
		out = append(out, ring.Backend{Name: name, Addr: strings.TrimRight(addr, "/")})
	}
	return out, nil
}

func run(cfg config) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	backends, err := parseBackends(cfg.backends)
	if err != nil {
		return err
	}
	r, err := ring.New(backends)
	if err != nil {
		return err
	}
	gw := gateway.New(r)

	// The prober drives auto-evacuation: the moment a backend reports
	// "draining", its sessions are pulled off it (MigrateBackend is
	// idempotent, so repeated probe transitions cannot double-move). Every
	// transition is also fed to the gateway so a Ready backend gets its
	// breaker closed without waiting out a cooldown.
	prober := &ring.Prober{
		Ring:     r,
		Interval: cfg.probeEvery,
		OnTransition: func(name string, from, to ring.Health) {
			log.Printf("cdpfgw: backend %s: %s -> %s", name, from, to)
			gw.NoteHealth(name, from, to)
			if to == ring.Draining {
				go func() {
					rep, err := gw.MigrateBackend(ctx, name)
					if err != nil {
						log.Printf("cdpfgw: evacuating %s: %v", name, err)
						return
					}
					log.Printf("cdpfgw: evacuated %s: %d moved, %d skipped, %d errors",
						name, len(rep.Moved), len(rep.Skipped), len(rep.Errors))
					for _, e := range rep.Errors {
						log.Printf("cdpfgw: evacuation error: %s", e)
					}
				}()
			}
		},
	}
	go prober.Run(ctx)

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
	log.Printf("cdpfgw %s listening on %s, %d backends", version.String(), bound, len(backends))

	srv := serve.NewHTTPServer(gw)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("cdpfgw: signal received, shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}
