// Package gateway is the stateless cluster front door for cdpfd: it owns no
// session state of its own, routing every session-scoped request to the
// backend the ring says owns the session and falling through the ring's
// fallback chain when the owner does not have it (yet). Because routing is
// pure rendezvous hashing over backend names, any number of gateways in
// front of the same fleet route identically without coordinating.
//
// The gateway is also the migration driver: evacuating a backend means
// marking it ineligible in the ring, exporting each of its sessions at a
// step boundary, and importing the snapshot bytes into the session's new
// owner. Requests for a session caught mid-handoff are held (not failed)
// until the handoff lands, so clients observe added latency, never a lost
// session.
//
// Against unannounced failure the data path is defended in depth: a
// per-backend circuit breaker stops hammering a dead backend, every retry
// sleeps under an exponential-backoff-with-full-jitter budget, and when the
// ring is unsettled — some member Down or Recovering — requests for possibly
// affected sessions park until the fleet heals (bounded by parkTimeout)
// instead of surfacing transient 404s/503s. A backend crash therefore costs
// its clients latency, not errors.
package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ring"
	"repro/internal/serve"
	"repro/internal/version"
)

// The gateway's timers and budgets. Each is a constant because no
// deployment has needed another value; keeping them in one block gives a
// latency attribution one place to read them.
const (
	// exportRetry bounds how long one session export is retried while the
	// session still has queued batches (409).
	exportRetry = 15 * time.Second
	// exportBackoffBase / exportBackoffMax shape the 409-retry backoff inside
	// one export (full jitter).
	exportBackoffBase = 2 * time.Millisecond
	exportBackoffMax  = 50 * time.Millisecond
	// routePasses, routeBackoffBase and routeBackoffMax are the data-path
	// retry budget: how many times the whole route chain is re-walked and
	// how backoff between passes grows.
	routePasses      = 4
	routeBackoffBase = 25 * time.Millisecond
	routeBackoffMax  = 250 * time.Millisecond
	// parkTimeout bounds how long a request parks while the ring is
	// unsettled (a member Down or Recovering) before failing.
	parkTimeout = 30 * time.Second
	// attemptTimeout bounds one buffered proxy attempt (not SSE streams).
	attemptTimeout = 10 * time.Second
	// responseHeaderTimeout bounds the wait for a backend's response
	// headers. The proxy client has no global timeout (SSE streams live
	// arbitrarily long), so this is what keeps a blackholed backend from
	// hanging an attempt forever.
	responseHeaderTimeout = 10 * time.Second
	// censusTimeout bounds one backend census poll for /cluster.
	censusTimeout = 2 * time.Second
	// scrapeTimeout bounds one backend /metrics scrape.
	scrapeTimeout = 2 * time.Second
	// breakerFailures is how many consecutive connection-level failures
	// open a backend's breaker.
	breakerFailures = 5
	// breakerCooldown is how long an open breaker waits before letting one
	// half-open probe through.
	breakerCooldown = time.Second
)

// Gateway is the http.Handler. All state is routing state: the ring, the
// in-flight migration holds, the breakers, and counters.
type Gateway struct {
	ring     *ring.Ring
	client   *http.Client
	breakers map[string]*breaker
	met      metrics
	mux      *http.ServeMux

	// route and parkTimeout start at the package constants; tests shorten
	// them to keep park and retry drills fast.
	route       retryConfig
	parkTimeout time.Duration

	mu        sync.Mutex
	migrating map[string]chan struct{} // session id -> closed when its handoff completes
	evacuated map[string]bool          // backend name -> evacuation ran (or is running)

	idCounter atomic.Uint64
}

// New builds a gateway over the ring.
func New(r *ring.Ring) *Gateway {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.ResponseHeaderTimeout = responseHeaderTimeout
	g := &Gateway{
		ring:        r,
		client:      &http.Client{Transport: tr},
		breakers:    make(map[string]*breaker),
		route:       retryConfig{passes: routePasses, base: routeBackoffBase, max: routeBackoffMax},
		parkTimeout: parkTimeout,
		migrating:   make(map[string]chan struct{}),
		evacuated:   make(map[string]bool),
		mux:         http.NewServeMux(),
	}
	for _, m := range r.Members() {
		g.breakers[m.Name] = newBreaker()
	}
	g.mux.HandleFunc("POST /v1/sessions", g.handleCreate)
	g.mux.HandleFunc("GET /v1/sessions/{id}", g.handleSession)
	g.mux.HandleFunc("POST /v1/sessions/{id}/measurements", g.handleSession)
	g.mux.HandleFunc("GET /v1/sessions/{id}/estimates", g.handleEstimates)
	g.mux.HandleFunc("POST /admin/migrate", g.handleMigrate)
	g.mux.HandleFunc("GET /cluster", g.handleCluster)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	return g
}

// Ring exposes the membership (the prober and tests need it).
func (g *Gateway) Ring() *ring.Ring { return g.ring }

// NoteHealth lets the health prober inform the gateway of transitions. A
// backend confirmed Ready gets its breaker force-closed: the probe is
// independent evidence the backend is back, so the data path should not wait
// out a cooldown.
func (g *Gateway) NoteHealth(name string, from, to ring.Health) {
	if to == ring.Ready {
		if br := g.breakers[name]; br != nil {
			br.reset()
		}
	}
}

func (g *Gateway) breakerFor(name string) *breaker { return g.breakers[name] }

// ServeHTTP stamps the request ID (minting one when the client sent none —
// the ID then rides every proxied hop and comes back in daemon error bodies)
// and applies the client's deadline: an X-Request-Timeout header (a Go
// duration) bounds everything done on the request's behalf, including parks
// and retries, so the client's own deadline is never overshot by gateway
// patience.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rid := r.Header.Get("X-Request-Id")
	if rid == "" {
		rid = serve.NewRequestID()
		r.Header.Set("X-Request-Id", rid)
	}
	w.Header().Set("X-Request-Id", rid)
	if v := r.Header.Get("X-Request-Timeout"); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			r = r.WithContext(ctx)
		}
	}
	g.mux.ServeHTTP(w, r)
}

func (g *Gateway) writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{
		"error":      fmt.Sprintf(format, args...),
		"request_id": w.Header().Get("X-Request-Id"),
	})
}

// handleCreate decodes the spec far enough to know the session ID — routing
// needs it before the session exists. A client that omits the ID gets a
// gateway-assigned one ("g-<n>"), so ownership is still deterministic.
func (g *Gateway) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec serve.SessionSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		g.writeError(w, http.StatusBadRequest, "bad session spec: %v", err)
		return
	}
	if spec.ID == "" {
		spec.ID = fmt.Sprintf("g-%d", g.idCounter.Add(1))
	}
	body, err := json.Marshal(spec)
	if err != nil {
		g.writeError(w, http.StatusInternalServerError, "re-encoding spec: %v", err)
		return
	}
	g.forward(w, r, spec.ID, http.MethodPost, "/v1/sessions", body)
}

// handleSession proxies info and ingest requests through the route chain.
func (g *Gateway) handleSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		g.writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	g.forward(w, r, id, r.Method, r.URL.Path, body)
}

// retryable503 reports whether a 503 error body came from a daemon phase the
// chain should route around (recovering/draining) rather than genuine
// backpressure (full shard queue) that must reach the client so its own
// retry loop backs off. The daemon's phase 503s open with the phase word
// ("recovering: replaying session logs", "server is draining"); matching on
// the message *prefix* keeps a session whose ID happens to contain
// "recovering" from turning its backpressure errors into silent re-routes.
func retryable503(body []byte) bool {
	msg := string(body)
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &eb); err == nil && eb.Error != "" {
		msg = eb.Error
	}
	msg = strings.TrimSpace(msg)
	return strings.HasPrefix(msg, serve.PhaseRecovering) ||
		strings.HasPrefix(msg, serve.PhaseDraining) ||
		strings.HasPrefix(msg, "server is "+serve.PhaseDraining)
}

// passOutcome summarizes one walk of the route chain for the park decision.
type passOutcome struct {
	served     bool           // an authoritative response was written
	last       *backendResult // most recent non-authoritative response (404/phase-503)
	connErrs   int            // connection-level failures this pass
	skips      int            // backends skipped by an open breaker
	recovering bool           // some backend answered "recovering"
}

// parkable reports whether this pass's failure smells like a healing fleet
// (crash, recovery, breaker shadow) rather than a genuinely absent session.
func (o passOutcome) parkable(unsettledRing bool) bool {
	return unsettledRing || o.connErrs > 0 || o.skips > 0 || o.recovering
}

// forward tries the ring's route chain for key until a backend gives an
// authoritative answer. Per attempt:
//
//   - breaker open: skip the backend
//   - connection error: next backend (feeds the breaker; the prober will
//     mark it Down)
//   - 404: next backend — during migration the session may live on a
//     fallback; only when every backend 404s *and the ring is settled* is
//     the 404 real
//   - 503 recovering/draining: next backend
//   - anything else (including 410 gone, 429 and backpressure 503s): final
//
// When a pass fails while the fleet looks unhealthy, the request parks:
// it keeps re-walking the chain under the jittered backoff until the fleet
// heals or parkTimeout expires. Requests for a session mid-handoff wait for
// the handoff first.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, key, method, path string, body []byte) {
	g.met.requests.Add(1)
	start := time.Now()
	parkDeadline := start.Add(g.parkTimeout)
	parked := false
	var last *backendResult
	for pass := 0; ; pass++ {
		if err := g.waitMigration(r.Context(), key); err != nil {
			g.writeError(w, http.StatusServiceUnavailable, "session %s: interrupted waiting for migration: %v", key, err)
			return
		}
		out := g.walkChain(r, key, method, path, body, pass, func(res *backendResult) {
			if parked {
				g.met.observePark(time.Since(start))
			}
			res.write(w)
		})
		if out.served {
			return
		}
		if out.last != nil {
			last = out.last
		}
		parking := out.parkable(g.ring.Unsettled())
		if parking && !parked {
			parked = true
			g.met.parked.Add(1)
		}
		switch {
		case parking && time.Now().Before(parkDeadline):
			// keep passing; backoff below
		case pass+1 < g.route.passes:
			// plain retry budget (settled ring, e.g. migration race)
		default:
			if parking {
				// The fleet never healed: the session's owner is still
				// unavailable, so a fallback's 404 is not authoritative —
				// answer 503, the honest "try again later".
				g.met.parkTimeouts.Add(1)
				g.met.noBackend.Add(1)
				g.writeError(w, http.StatusServiceUnavailable,
					"session %s: backend unavailable past park timeout", key)
				return
			}
			g.met.retryExhausted.Add(1)
			if last != nil {
				last.write(w)
				return
			}
			g.met.noBackend.Add(1)
			g.writeError(w, http.StatusServiceUnavailable, "no backend answered for session %s", key)
			return
		}
		select {
		case <-r.Context().Done():
			if last != nil {
				last.write(w)
				return
			}
			g.met.noBackend.Add(1)
			g.writeError(w, http.StatusServiceUnavailable, "no backend answered for session %s", key)
			return
		case <-time.After(g.route.backoff(pass)):
		}
	}
}

// walkChain runs one pass over the route chain. An authoritative response is
// handed to sink and the zero outcome is returned; otherwise the outcome
// describes why the pass failed.
func (g *Gateway) walkChain(r *http.Request, key, method, path string, body []byte, pass int, sink func(*backendResult)) passOutcome {
	var out passOutcome
	for i, b := range g.ring.Route(key) {
		br := g.breakerFor(b.Name)
		if br != nil && !br.allow() {
			out.skips++
			g.met.breakerSkips.Add(1)
			continue
		}
		if i > 0 || pass > 0 {
			g.met.retries.Add(1)
		}
		res, err := g.do(r, b, method, path, body)
		if err != nil {
			out.connErrs++
			if br != nil {
				br.fail()
			}
			continue
		}
		if br != nil {
			br.succeed()
		}
		switch {
		case res.status == http.StatusNotFound:
			out.last = res
			continue
		case res.status == http.StatusServiceUnavailable && retryable503(res.body):
			out.last = res
			if strings.Contains(string(res.body), serve.PhaseRecovering) {
				out.recovering = true
			}
			continue
		default:
			sink(res)
			return passOutcome{served: true}
		}
	}
	return out
}

// backendResult is one buffered proxied response.
type backendResult struct {
	backend string
	status  int
	ctype   string
	body    []byte
}

func (res *backendResult) write(w http.ResponseWriter) {
	if res.ctype != "" {
		w.Header().Set("Content-Type", res.ctype)
	}
	w.Header().Set("X-Backend", res.backend)
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// do performs one buffered attempt against one backend, bounded by
// attemptTimeout so one hung backend cannot eat the whole retry budget.
func (g *Gateway) do(r *http.Request, b ring.Backend, method, path string, body []byte) (*backendResult, error) {
	ctx, cancel := context.WithTimeout(r.Context(), attemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, b.Addr+path, strings.NewReader(string(body)))
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	req.Header.Set("X-Request-Id", r.Header.Get("X-Request-Id"))
	if v := r.Header.Get("X-Request-Timeout"); v != "" {
		req.Header.Set("X-Request-Timeout", v)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	return &backendResult{
		backend: b.Name,
		status:  resp.StatusCode,
		ctype:   resp.Header.Get("Content-Type"),
		body:    data,
	}, nil
}

// handleEstimates proxies the SSE stream. Streams cannot be buffered and
// replayed, so the fallback chain applies only until a backend accepts the
// subscription; after that the stream is welded to that backend. A stream
// cut by migration ends cleanly and the client resubscribes through the
// gateway, landing on the new owner, whose stream replays the full record
// history first — no estimate is lost. A stream cut by *failure* (the
// backend died, or a proxy truncated the response) is aborted mid-body so
// the client sees a transport error, never a silently shortened stream that
// could pass for complete.
func (g *Gateway) handleEstimates(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	g.met.requests.Add(1)
	fl, ok := w.(http.Flusher)
	if !ok {
		g.writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	start := time.Now()
	parkDeadline := start.Add(g.parkTimeout)
	parked := false
	for pass := 0; ; pass++ {
		if err := g.waitMigration(r.Context(), id); err != nil {
			g.writeError(w, http.StatusServiceUnavailable, "session %s: interrupted waiting for migration: %v", id, err)
			return
		}
		var out passOutcome
		for i, b := range g.ring.Route(id) {
			br := g.breakerFor(b.Name)
			if br != nil && !br.allow() {
				out.skips++
				g.met.breakerSkips.Add(1)
				continue
			}
			if i > 0 || pass > 0 {
				g.met.retries.Add(1)
			}
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, b.Addr+r.URL.Path, nil)
			if err != nil {
				continue
			}
			req.Header.Set("X-Request-Id", r.Header.Get("X-Request-Id"))
			resp, err := g.client.Do(req)
			if err != nil {
				out.connErrs++
				if br != nil {
					br.fail()
				}
				continue
			}
			if br != nil {
				br.succeed()
			}
			if resp.StatusCode != http.StatusOK {
				data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
				resp.Body.Close()
				if resp.StatusCode == http.StatusNotFound {
					out.last = &backendResult{backend: b.Name, status: resp.StatusCode, body: data}
					continue
				}
				if resp.StatusCode == http.StatusServiceUnavailable && retryable503(data) {
					out.last = &backendResult{backend: b.Name, status: resp.StatusCode, body: data}
					if strings.Contains(string(data), serve.PhaseRecovering) {
						out.recovering = true
					}
					continue
				}
				w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
				w.Header().Set("X-Backend", b.Name)
				w.WriteHeader(resp.StatusCode)
				_, _ = w.Write(data)
				return
			}
			if parked {
				g.met.observePark(time.Since(start))
			}
			w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
			w.Header().Set("X-Backend", b.Name)
			w.WriteHeader(http.StatusOK)
			fl.Flush()
			g.weld(w, fl, resp.Body)
			return
		}
		parking := out.parkable(g.ring.Unsettled())
		if parking && !parked {
			parked = true
			g.met.parked.Add(1)
		}
		switch {
		case parking && time.Now().Before(parkDeadline):
		case pass+1 < g.route.passes:
		default:
			if parked && parking {
				g.met.parkTimeouts.Add(1)
			}
			if out.last != nil && !parking {
				g.writeError(w, http.StatusNotFound, "no backend has session %s", id)
				return
			}
			g.writeError(w, http.StatusServiceUnavailable, "no backend reachable for session %s", id)
			return
		}
		select {
		case <-r.Context().Done():
			g.writeError(w, http.StatusServiceUnavailable, "session %s: %v", id, r.Context().Err())
			return
		case <-time.After(g.route.backoff(pass)):
		}
	}
}

// weld copies the accepted SSE stream to the client. The response status is
// already written, so a backend-side read failure cannot be reported in
// band; aborting the handler resets the client connection instead, making
// the cut unmistakable. Clean EOF ends the stream normally (the daemon
// always terminates a finished stream with its `done` event, which the
// client checks for).
func (g *Gateway) weld(w http.ResponseWriter, fl http.Flusher, from io.ReadCloser) {
	defer from.Close()
	buf := make([]byte, 16<<10)
	for {
		n, err := from.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return // client went away
			}
			fl.Flush()
		}
		if err == io.EOF {
			return
		}
		if err != nil {
			g.met.streamAborts.Add(1)
			panic(http.ErrAbortHandler)
		}
	}
}

// clusterInfo is the body of GET /cluster.
type clusterInfo struct {
	Version  string            `json:"version"`
	Eligible int               `json:"eligible_backends"`
	Members  []ring.MemberInfo `json:"members"`
	Sessions map[string]int    `json:"sessions_per_backend"`
	Breakers map[string]string `json:"breakers"`
}

// handleCluster reports the gateway's view of the fleet: member health,
// breaker states, plus a live per-backend session census (polled, best
// effort — an unreachable backend reports -1).
func (g *Gateway) handleCluster(w http.ResponseWriter, r *http.Request) {
	members := g.ring.Members()
	info := clusterInfo{
		Version:  version.String(),
		Eligible: g.ring.EligibleCount(),
		Members:  members,
		Sessions: make(map[string]int, len(members)),
		Breakers: make(map[string]string, len(members)),
	}
	for name, br := range g.breakers {
		info.Breakers[name] = br.current().String()
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, m := range members {
		wg.Add(1)
		go func(m ring.MemberInfo) {
			defer wg.Done()
			n := g.countSessions(r.Context(), m.Addr)
			mu.Lock()
			info.Sessions[m.Name] = n
			mu.Unlock()
		}(m)
	}
	wg.Wait()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(info)
}

// countSessions polls one backend's live session count; -1 when unreachable.
func (g *Gateway) countSessions(ctx context.Context, addr string) int {
	ctx, cancel := context.WithTimeout(ctx, censusTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/admin/sessions", nil)
	if err != nil {
		return -1
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return -1
	}
	var list serve.SessionList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return -1
	}
	return len(list.Sessions)
}

// handleHealthz: the gateway is ready while at least one backend can own
// sessions. The body mirrors the daemons' phase vocabulary so the same
// polling loops work against either tier.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if g.ring.EligibleCount() == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "degraded")
		return
	}
	fmt.Fprintln(w, serve.PhaseReady)
}
